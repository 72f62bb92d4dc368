// Command perfbench is the dsd repository's benchmark. It drives the
// system through its two user paths — a graph file to a checked answer
// through the dsd library, and HTTP to a dsdserver process — on two
// seeded workloads, checks every answer against its own copy of the
// inputs, and prints every metric by name with its unit. See README.md.
//
//	bash perfbench/run.sh --workload file-to-answer --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool

	root, bin, work string

	// Child-process mode: the file-to-answer worker.
	worker   string
	data     string
	warmOnly bool
	spans    string
}

var workloads = map[string]func(config) (*result, error){
	"file-to-answer": runFileToAnswer,
	"serve-read":     runServeRead,
}

func main() {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "file-to-answer or serve-read")
	fs.Int64Var(&cfg.seed, "seed", 1, "input and traffic seed")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "root of the dsd source tree")
	fs.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the built perfbench and dsdserver")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for inputs, logs and results")
	fs.StringVar(&cfg.worker, "worker", "", "internal: run as the file-to-answer child process")
	fs.StringVar(&cfg.data, "data", "", "internal: input directory of the child process")
	fs.BoolVar(&cfg.warmOnly, "warm-only", false, "internal: child exits after its set-up cycle")
	fs.StringVar(&cfg.spans, "spans", "", "internal: where the child writes its spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = traceFlag != 0

	if cfg.worker != "" {
		if err := fileToAnswerWorker(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds %d\n", cfg.workload, cfg.seconds)
		os.Exit(2)
	}
	var err error
	for _, p := range []*string{&cfg.root, &cfg.bin, &cfg.work} {
		if *p, err = filepath.Abs(*p); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Stamp.fill(cfg)
	if err := res.save(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.report(os.Stdout, cfg)
	line, err := json.Marshal(res.line(cfg.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workers is the solver parallelism of every solve: GOMAXPROCS, pinned to
// the machine's processor count in every process the benchmark starts.
func workers() int { return runtime.GOMAXPROCS(0) }

// dataDir is this run's private input directory, removed when it ends.
func dataDir(cfg config) string {
	return filepath.Join(cfg.work, fmt.Sprintf("data-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
}
