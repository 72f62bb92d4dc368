package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
)

// The file-to-answer workload: one caller in a closed loop with no think
// time, repeating a cycle of three jobs, each a graph file opened, loaded,
// solved and its answer checked:
//
//	pkmc   Chung–Lu text edge list, PKMC (the paper's Algorithm 2)
//	exact  the same graph as DSD2 binary, exact-pruned (Local + flow probes)
//	pwc    the TW digraph as text, PWC (the paper's Algorithms 3–4)
//
// The jobs run in a child process; the parent generates the inputs and
// collects the figures. The child also holds the checker's reference copy
// of the inputs, so its peak memory is reported less its resident set
// before the first job (see fileToAnswerWorker).

// setupLaunches is how many times a run sets the system up; setup_s is the
// median.
const setupLaunches = 3

var jobNames = []string{"pkmc", "exact", "pwc"}

// workerEvent is one line the child writes on its standard output.
type workerEvent struct {
	Event   string               `json:"event"` // "ready" after the set-up cycle, then "done"
	Tally   tally                `json:"tally"`
	JobMs   map[string][]float64 `json:"job_ms,omitempty"`
	CycleMs []float64            `json:"cycle_ms,omitempty"`
	Window  float64              `json:"window_s,omitempty"`
	PeakMB  float64              `json:"peak_rss_mb,omitempty"`
	Layers  map[string][]float64 `json:"layers,omitempty"`
	Spans   []spanTotal          `json:"spans,omitempty"`
}

func runFileToAnswer(cfg config) (*result, error) {
	dir := dataDir(cfg)
	defer os.RemoveAll(dir)
	in, err := generate(dir, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := in.saveRef(); err != nil {
		return nil, err
	}
	meta := in.meta

	res := newResult(cfg.workload, cfg.trace)
	res.Inputs = meta
	res.Stamp.Inputs = fmt.Sprintf("cl(text+binary) n=%d m=%d; tw(text) n=%d m=%d", meta.CLN, meta.CLM, meta.TWN, meta.TWM)
	var setups []float64
	var final workerEvent
	for i := 0; i < setupLaunches; i++ {
		warmOnly := i < setupLaunches-1
		ev, setup, err := launchWorker(cfg, dir, warmOnly)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		res.Tally.merge(ev.Tally)
		final = ev
	}
	jobs := 0
	for _, j := range jobNames {
		jobs += len(final.JobMs[j])
	}
	if jobs == 0 {
		return nil, fmt.Errorf("no job completed in the timed window")
	}
	res.slot("setup_s", median(setups), fmt.Sprintf("launch to the end of the first, untimed cycle; median of %d launches", len(setups)))
	res.slot("peak_rss_mb", final.PeakMB, "VmHWM of the process running the jobs per timed cycle, less its resident set before the first job; median over cycles")
	res.slot("ops_per_s", float64(jobs)/final.Window, fmt.Sprintf("%d jobs in %.2f s", jobs, final.Window))
	for i, j := range jobNames {
		res.slot(fmt.Sprintf("op%d_ms", i+1), median(final.JobMs[j]),
			fmt.Sprintf("median of %d %s jobs, file open to checked answer", len(final.JobMs[j]), j))
	}
	res.slot("op4_ms", median(final.CycleMs), fmt.Sprintf("median of %d three-job cycles", len(final.CycleMs)))
	for _, j := range jobNames {
		res.Notes = append(res.Notes, j+" job ms: "+spreadNote(final.JobMs[j]))
	}
	for k, xs := range final.Layers {
		res.layer(k, xs)
	}
	if xs := final.Layers["core.early_stop"]; len(xs) > 0 {
		res.layerValue("core.early_stop", mean(xs), len(xs))
	}
	res.Spans = final.Spans
	if cfg.trace {
		liveLayer(cfg, in, res)
	}
	return res, nil
}

// liveLayer measures the live layer in the traced run: the seeded mutation
// stream (liveRate batches/s for the window) replayed through the live
// package in this process, after the window.
func liveLayer(cfg config, in *inputSet, res *result) {
	rec := newRecorder(true)
	r := replayLive(in, liveStream(in, cfg.seed, liveRate*cfg.seconds), rec, &res.Tally)
	res.layer("live.apply_call_ms_p50", r.callMs)
	res.layer("live.apply_ms_p50", r.applyMs)
	res.layer("live.post_apply_ms_p50", r.postMs)
	res.layerValue("live.touched", mean(r.touched), len(r.touched))
	res.layer("live.densest_ms_p50", r.densestMs)
	res.layer("graph.snapshot_ms", r.snapMs)
	res.layerValue("live.compactions", float64(r.compactions), len(r.callMs))
	res.layerValue("live.recomputes", float64(r.recomputes), len(r.callMs))
	res.Spans = append(res.Spans, rec.selfTimes()...)
}

// launchWorker runs one child and returns its final event and its set-up
// time: launch to the end of its first cycle.
func launchWorker(cfg config, dir string, warmOnly bool) (workerEvent, float64, error) {
	args := []string{"-worker", "file-to-answer", "-data", dir, "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", fmt.Sprint(b2i(cfg.trace))}
	if warmOnly {
		args = append(args, "-warm-only")
	} else if cfg.trace {
		args = append(args, "-spans", spansPath(cfg))
	}
	cmd := exec.Command(filepath.Join(cfg.bin, "perfbench"), args...)
	cmd.Env = childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return workerEvent{}, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return workerEvent{}, 0, err
	}
	var setup float64
	var last workerEvent
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var ev workerEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		if ev.Event == "ready" {
			setup = time.Since(start).Seconds()
		}
		last = ev
	}
	if err := cmd.Wait(); err != nil {
		return workerEvent{}, 0, fmt.Errorf("file-to-answer worker: %w", err)
	}
	if last.Event != "done" || setup == 0 {
		return workerEvent{}, 0, fmt.Errorf("file-to-answer worker ended without a result")
	}
	return last, setup, nil
}

// childEnv pins every process the benchmark starts to GOMAXPROCS = the
// machine's processor count.
func childEnv() []string {
	return append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers()))
}

// fileToAnswerWorker is the child: one untimed cycle, then (unless
// warm-only) timed cycles until the window closes.
func fileToAnswerWorker(cfg config) error {
	in, err := loadRef(cfg.data)
	if err != nil {
		return err
	}
	// The reference copy stays resident for the whole run; the memory the
	// jobs add is the peak above this baseline.
	runtime.GC()
	debug.FreeOSMemory()
	baseMB := residentMB("self")
	rec := newRecorder(cfg.trace && !cfg.warmOnly)
	w := &jobRunner{in: in, rec: rec, layers: map[string][]float64{}}
	enc := json.NewEncoder(os.Stdout)

	w.cycle(0)
	if err := enc.Encode(workerEvent{Event: "ready"}); err != nil {
		return err
	}
	done := workerEvent{Event: "done"}
	if !cfg.warmOnly {
		w.jobMs = map[string][]float64{}
		w.traced = cfg.trace
		start := time.Now()
		window := time.Duration(cfg.seconds) * time.Second
		var peaks []float64
		for c := 1; time.Since(start) < window; c++ {
			resetPeak("self")
			t0 := time.Now()
			w.cycle(c)
			w.cycleMs = append(w.cycleMs, msSince(t0))
			peaks = append(peaks, peakRSSMB("self")-baseMB)
		}
		done.Window = time.Since(start).Seconds()
		done.JobMs, done.CycleMs = w.jobMs, w.cycleMs
		done.PeakMB = median(peaks)
		if cfg.trace {
			w.bzReference()
			done.Layers = w.layers
			done.Spans = rec.selfTimes()
			if err := rec.write(cfg.spans); err != nil {
				return err
			}
		}
	}
	done.Tally = w.tally
	return enc.Encode(done)
}

// jobRunner runs the three jobs and keeps their figures.
type jobRunner struct {
	in      *inputSet
	rec     *recorder
	traced  bool
	tally   tally
	jobMs   map[string][]float64
	cycleMs []float64
	layers  map[string][]float64
	op      int64
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func (w *jobRunner) sample(name string, v float64) { w.layers[name] = append(w.layers[name], v) }

// cycle runs pkmc, exact and pwc once; cycle 0 is the untimed set-up one.
func (w *jobRunner) cycle(c int) {
	root := w.rec.begin("cycle", int64(c), -1)
	defer w.rec.end(root)
	w.job("pkmc", root, w.pkmc)
	w.job("exact", root, w.exact)
	w.job("pwc", root, w.pwc)
}

// job times one job from file open to checked answer. Every error is the
// program's fault (the inputs are valid), so a failed job counts as a
// wrong answer and its time is not a sample.
func (w *jobRunner) job(name string, parent int, run func(op int64, span int) error) {
	// Every job starts from the same collected heap, as in a fresh
	// process, so the garbage of the one before does not land on it.
	runtime.GC()
	w.op++
	span := w.rec.begin("job."+name, w.op, parent)
	start := time.Now()
	err := run(w.op, span)
	ms := msSince(start)
	w.rec.end(span)
	if w.tally.record(name, err) && w.jobMs != nil {
		w.jobMs[name] = append(w.jobMs[name], ms)
	}
}

// timed runs f inside a span named name.
func (w *jobRunner) timed(name string, op int64, parent int, f func() error) (time.Duration, error) {
	s := w.rec.begin(name, op, parent)
	start := time.Now()
	err := f()
	d := time.Since(start)
	w.rec.end(s)
	return d, err
}

func (w *jobRunner) pkmc(op int64, span int) error {
	var g *dsd.Graph
	var err error
	if w.traced {
		g, err = w.parseUndirected(op, span)
	} else {
		g, err = dsd.LoadGraph(w.in.path("cl.txt"))
	}
	if err != nil {
		return err
	}
	tr := w.newTrace()
	var r dsd.Result
	if _, err := w.timed("dsd.SolveUDS", op, span, func() (err error) {
		r, err = dsd.SolveUDS(g, dsd.AlgoPKMC, dsd.Options{Workers: workers(), Trace: tr})
		return err
	}); err != nil {
		return err
	}
	if tr != nil {
		pk := tr.PhaseSeconds("core-decomposition")
		w.sample("core.pkmc_s", pk)
		w.sample("core.sweeps", float64(len(tr.Iterations)))
		w.sample("core.early_stop", float64(b2i(tr.EarlyStop)))
		if len(tr.Iterations) > 0 {
			w.sample("core.sweep_ms", 1000*pk/float64(len(tr.Iterations)))
		}
		w.sample("uds.density_eval_s", tr.PhaseSeconds("density-evaluation"))
		w.parallel(tr)
	}
	a := udsAnswer{Vertices: r.Vertices, Density: r.Density, KStar: r.KStar}
	_, err = w.timed("check", op, span, func() error { return checkPKMC(w.in.cl, a, w.in.meta.CLCore) })
	return err
}

// parseUndirected is the traced load of the text file: the parse and the
// CSR build timed apart, through the same calls dsd.LoadGraph makes.
func (w *jobRunner) parseUndirected(op int64, span int) (*dsd.Graph, error) {
	edges, n, err := w.parse("cl.txt", op, span, true)
	if err != nil {
		return nil, err
	}
	var g *dsd.Graph
	d, err := w.timed("graph.build", op, span, func() (err error) {
		g, err = dsd.NewGraphChecked(n, edges)
		return err
	})
	w.sample("graph.build_s", d.Seconds())
	return g, err
}

func (w *jobRunner) parse(file string, op int64, span int, sample bool) ([]graph.Edge, int, error) {
	f, err := os.Open(w.in.path(file))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var edges []graph.Edge
	var n int
	d, err := w.timed("graph.parse", op, span, func() (err error) {
		edges, n, _, err = graph.ReadEdgeList(bufio.NewReader(f))
		return err
	})
	if sample {
		w.sample("graph.parse_s", d.Seconds())
		w.sample("graph.parse_mb_s", w.in.meta.TextMB/d.Seconds())
	}
	return edges, n, err
}

func (w *jobRunner) exact(op int64, span int) error {
	var g *dsd.Graph
	d, err := w.timed("graph.read_binary", op, span, func() (err error) {
		g, err = dsd.LoadGraph(w.in.path("cl.dsdg"))
		return err
	})
	if err != nil {
		return err
	}
	tr := w.newTrace()
	var r dsd.Result
	if _, err := w.timed("dsd.SolveUDS", op, span, func() (err error) {
		r, err = dsd.SolveUDS(g, dsd.AlgoExactPruned, dsd.Options{Workers: workers(), Trace: tr})
		return err
	}); err != nil {
		return err
	}
	if tr != nil {
		w.sample("graph.read_binary_s", d.Seconds())
		w.sample("uds.approx_s", tr.PhaseSeconds("approx-lower-bound"))
		w.sample("core.local_s", tr.PhaseSeconds("core-decomposition"))
		w.sample("uds.prune_s", tr.PhaseSeconds("prune"))
		w.sample("uds.flow_search_s", tr.PhaseSeconds("flow-search"))
		w.sample("uds.flow_probes", float64(tr.Counters["flow_probes"]))
		w.sample("uds.flow_vertices", float64(tr.Counters["flow_vertices"]))
	}
	// The pkmc job is held to the reference k*-core's density, so that
	// density stands for pkmc's in the pkmc ≤ exact ≤ k* check.
	a := udsAnswer{Vertices: r.Vertices, Density: r.Density}
	_, err = w.timed("check", op, span, func() error {
		if err := checkUDS(w.in.cl, a); err != nil {
			return err
		}
		return checkOrder(w.in.meta.CLCore.Density, a.Density, w.in.meta.CLCore.K)
	})
	return err
}

func (w *jobRunner) pwc(op int64, span int) error {
	var d *dsd.Digraph
	var err error
	if w.traced {
		var arcs []graph.Edge
		var n int
		if arcs, n, err = w.parse("tw.txt", op, span, false); err == nil {
			_, err = w.timed("graph.build", op, span, func() (err error) {
				d, err = dsd.NewDigraphChecked(n, arcs)
				return err
			})
		}
	} else {
		d, err = dsd.LoadDigraph(w.in.path("tw.txt"))
	}
	if err != nil {
		return err
	}
	tr := w.newTrace()
	var r dsd.DirectedResult
	if _, err := w.timed("dsd.SolveDDS", op, span, func() (err error) {
		r, err = dsd.SolveDDS(d, dsd.AlgoPWC, dsd.Options{Workers: workers(), Trace: tr})
		return err
	}); err != nil {
		return err
	}
	if tr != nil {
		w.sample("dds.wstar_s", tr.PhaseSeconds("wstar-decomposition"))
		w.sample("dds.cnpair_s", tr.PhaseSeconds("cnpair-search"))
		w.sample("dds.extract_s", tr.PhaseSeconds("core-extraction"))
		w.sample("dds.arcs_after_warm_start", float64(tr.Counters["arcs_after_warm_start"]))
		w.sample("dds.levels", float64(tr.Counters["levels"]))
		w.parallel(tr)
	}
	_, err = w.timed("check", op, span, func() error {
		return checkDDS(w.in.tw, r.S, r.T, r.Density, w.in.meta.Planted)
	})
	return err
}

func (w *jobRunner) newTrace() *dsd.Trace {
	if !w.traced {
		return nil
	}
	return &dsd.Trace{}
}

// parallel samples the per-solve parallel-runtime counters (pkmc and pwc
// solves).
func (w *jobRunner) parallel(tr *dsd.Trace) {
	w.sample("parallel.regions", float64(tr.Parallel.Regions))
	w.sample("parallel.chunks", float64(tr.Parallel.Chunks))
	w.sample("parallel.worker_launches", float64(tr.Parallel.WorkerLaunches))
}

// bzReference times a serial core.BZ on the Chung–Lu graph: the reference
// PKMC is measured against. It runs only in the traced run, after the
// window.
func (w *jobRunner) bzReference() {
	f, err := os.Open(w.in.path("cl.txt"))
	if err != nil {
		return
	}
	edges, n, _, err := graph.ReadEdgeList(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return
	}
	g := graph.NewUndirected(n, edges)
	for i := 0; i < 3; i++ {
		var k int32
		d, _ := w.timed("core.BZ", -1, -1, func() error { k = core.KStar(core.BZ(g)); return nil })
		w.tally.record("bz-reference", kStarMatches(k, w.in.meta.CLCore.K))
		w.sample("core.bz_ref_s", d.Seconds())
	}
}

func kStarMatches(got, want int32) error {
	if got != want {
		return fmt.Errorf("k* = %d, reference k* = %d", got, want)
	}
	return nil
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self" or a
// pid).
func peakRSSMB(pid string) float64 { return procStatusMB(pid, "VmHWM") }

// procStatusMB reads one kB field of a process's /proc status in MB.
func procStatusMB(pid, field string) float64 {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	return parseStatusMB(f, field)
}

// residentMB reads VmRSS, the current resident set, of a process.
func residentMB(pid string) float64 { return procStatusMB(pid, "VmRSS") }

// resetPeak restarts a process's VmHWM at its current resident set.
func resetPeak(pid string) {
	os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

func parseStatusMB(r io.Reader, field string) float64 {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var kb float64
		if n, _ := fmt.Sscanf(sc.Text(), field+": %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
