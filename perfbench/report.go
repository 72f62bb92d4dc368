package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ Name, Unit string }

// endToEnd are the user-visible metrics every untraced run reports. One
// list serves all workloads, so the op slots carry a per-workload meaning
// (slotNames); README.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op1_ms", "ms"},
	{"op2_ms", "ms"},
	{"op3_ms", "ms"},
	{"op4_ms", "ms"},
}

// slotNames gives each slot its name in the workload it is measured on.
var slotNames = map[string]map[string]string{
	"file-to-answer": {
		"ops_per_s": "jobs_per_s", "op1_ms": "answer_ms.pkmc", "op2_ms": "answer_ms.exact",
		"op3_ms": "answer_ms.pwc", "op4_ms": "cycle_ms",
	},
	"serve-read": {
		"ops_per_s": "throughput_rps", "op1_ms": "latency_p50_ms", "op2_ms": "latency_p90_ms",
		"op3_ms": "solve_latency_p50_ms", "op4_ms": "graph_get_p50_ms",
	},
}

// layerDef is one per-layer metric with the end-to-end metric it should
// move. The live layer has no declared workload whose end-to-end figures
// it moves yet: its Moves names the figure a served live graph would show.
// A layer that does no work in a workload reports 0 there. Each
// figure is the median over its samples unless Base says otherwise.
type layerDef struct{ Name, Unit, Moves, Base string }

var perLayer = []layerDef{
	{"graph.parse_s", "s", "answer_ms.pkmc, answer_ms.pwc (file-to-answer)", ""},
	{"graph.build_s", "s", "answer_ms.pkmc, answer_ms.pwc (file-to-answer)", ""},
	{"graph.parse_mb_s", "MB/s", "answer_ms.pkmc (file-to-answer)", "median over parses of text MB / parse time"},
	{"graph.read_binary_s", "s", "answer_ms.exact (file-to-answer)", ""},
	{"graph.snapshot_ms", "ms", "none declared: uncached solve on a live graph", "median; in-process Snapshot after a version bump"},
	{"core.pkmc_s", "s", "answer_ms.pkmc (file-to-answer)", ""},
	{"core.sweeps", "count", "answer_ms.pkmc (file-to-answer)", ""},
	{"core.early_stop", "ratio", "answer_ms.pkmc (file-to-answer)", "share of pkmc solves whose h-index sweep stopped early"},
	{"core.sweep_ms", "ms", "answer_ms.pkmc (file-to-answer)", ""},
	{"core.local_s", "s", "answer_ms.exact (file-to-answer)", ""},
	{"core.bz_ref_s", "s", "none: serial BZ reference for PKMC", "median of 3 runs after the window"},
	{"uds.approx_s", "s", "answer_ms.exact (file-to-answer)", ""},
	{"uds.prune_s", "s", "answer_ms.exact (file-to-answer)", ""},
	{"uds.flow_search_s", "s", "answer_ms.exact (file-to-answer)", ""},
	{"uds.flow_probes", "count", "answer_ms.exact (file-to-answer)", ""},
	{"uds.flow_vertices", "count", "answer_ms.exact (file-to-answer)", ""},
	{"uds.density_eval_s", "s", "answer_ms.pkmc (file-to-answer)", ""},
	{"dds.wstar_s", "s", "answer_ms.pwc (file-to-answer)", ""},
	{"dds.cnpair_s", "s", "answer_ms.pwc (file-to-answer)", ""},
	{"dds.extract_s", "s", "answer_ms.pwc (file-to-answer)", ""},
	{"dds.arcs_after_warm_start", "count", "answer_ms.pwc (file-to-answer)", ""},
	{"dds.levels", "count", "answer_ms.pwc (file-to-answer)", ""},
	{"parallel.regions", "count", "answer_ms.pkmc, answer_ms.pwc (file-to-answer)", ""},
	{"parallel.chunks", "count", "answer_ms.pkmc, answer_ms.pwc (file-to-answer)", ""},
	{"parallel.worker_launches", "count", "answer_ms.pkmc, answer_ms.pwc (file-to-answer)", ""},
	{"server.handler_ms_p50", "ms", "latency_p50_ms (serve-read)", ""},
	{"server.transport_ms_p50", "ms", "latency_p50_ms, throughput_rps (serve-read)", ""},
	{"server.response_bytes", "bytes", "latency_p50_ms, throughput_rps (serve-read)", "mean over replies"},
	{"server.cache_hit_ratio", "ratio", "latency_p50_ms (serve-read): share of solve replies marked cached", "cached solve replies / server.cache_lookups"},
	{"server.cache_lookups", "count", "base of server.cache_hit_ratio: solve replies", "count of solve replies in the window"},
	{"live.apply_ms_p50", "ms", "none declared: mutation latency on a live graph", "median of ApplyResult.ApplyMs over the replay's batches"},
	{"live.touched", "count", "none declared: mutation latency on a live graph", "mean over batches"},
	{"live.apply_call_ms_p50", "ms", "none declared: mutation latency on a live graph", "median; in-process live.Graph.Apply"},
	{"live.post_apply_ms_p50", "ms", "none declared: mutation latency on a live graph", "median of the Apply call minus apply_ms"},
	{"live.densest_ms_p50", "ms", "none declared: /densest on a live graph", "median of in-process Densest, every fifth batch"},
	{"live.compactions", "count", "none declared: mutation tail latency on a live graph", "count over the replay's batches"},
	{"live.recomputes", "count", "none declared: mutation tail latency on a live graph", "count over the replay's batches"},
	{"trace.op1_ms", "ms", "op1_ms of the same run, traced", ""},
	{"trace.ops_per_s", "1/s", "ops_per_s of the same run, traced", ""},
	{"trace.overhead_pct", "%", "op1_ms: traced vs untraced, same stamp", "100 × (traced op1_ms / untraced op1_ms − 1), same stamp"},
}

// named is one of the workload's metrics under its own name, for the
// report.
type named struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// result is one run's outcome.
type result struct {
	Workload string             `json:"workload"`
	Traced   bool               `json:"traced"`
	Stamp    stamp              `json:"stamp"`
	Tally    tally              `json:"tally"`
	Slots    map[string]float64 `json:"slots"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	LayerN   map[string]int     `json:"layer_samples,omitempty"`
	Named    []named            `json:"named"`
	Notes    []string           `json:"notes,omitempty"`
	Inputs   inputMeta          `json:"inputs"`
	Spans    []spanTotal        `json:"-"`
	// Base is the untraced result of the same stamp, when one exists.
	Base *result `json:"-"`
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Slots: map[string]float64{},
		Layers: map[string]float64{}, LayerN: map[string]int{}}
}

// layer sets a per-layer figure to the median of its samples.
func (r *result) layer(name string, xs []float64) {
	if len(xs) > 0 {
		r.Layers[name], r.LayerN[name] = median(xs), len(xs)
	}
}

// layerValue sets a per-layer figure computed some other way (see its
// layerDef's Base) from n samples.
func (r *result) layerValue(name string, v float64, n int) {
	r.Layers[name], r.LayerN[name] = v, n
}

// slot sets one end-to-end slot and records it under the workload's name.
func (r *result) slot(key string, v float64, note string) {
	r.Slots[key] = v
	unit := ""
	for _, m := range endToEnd {
		if m.Name == key {
			unit = m.Unit
		}
	}
	name := slotName(r.Workload, key)
	r.Named = append(r.Named, named{Name: name, Value: v, Unit: unit, Note: key + "; " + note})
}

// slotName is a slot's name in a workload (the slot's own for setup_s and
// peak_rss_mb).
func slotName(workload, key string) string {
	if name := slotNames[workload][key]; name != "" {
		return name
	}
	return key
}

// stamp is the environment a result was measured in. Results whose stamps
// differ are never compared.
type stamp struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     int      `json:"seconds"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	Inputs      string   `json:"inputs"`
	ServerFlags []string `json:"server_flags,omitempty"`
	Commit      string   `json:"commit"`
}

func (s *stamp) fill(cfg config) {
	s.Workload, s.Seed, s.Seconds = cfg.workload, cfg.seed, cfg.seconds
	s.NProc, s.GOMAXPROCS, s.GoVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	s.Commit = commitOf(cfg.root)
}

func (s stamp) key() string {
	b, _ := json.Marshal(s)
	return string(b)
}

// commitOf names the source tree: the git commit when the tree is a
// checkout, else a digest of its Go sources and module files.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
		if err == nil {
			dirty, _ := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
			c := strings.TrimSpace(string(out))
			if len(bytes.TrimSpace(dirty)) > 0 {
				c += "+dirty"
			}
			return c
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func resultPath(cfg config, traced bool) string {
	return filepath.Join(cfg.work, "results", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b2i(traced)))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// save writes the result beside earlier ones; a traced run first loads the
// untraced result of the same stamp, if any, as its overhead base.
func (r *result) save(cfg config) error {
	if r.Traced {
		if b, err := os.ReadFile(resultPath(cfg, false)); err == nil {
			var base result
			if json.Unmarshal(b, &base) == nil && base.Stamp.key() == r.Stamp.key() {
				r.Base = &base
			}
		}
		r.layerValue("trace.op1_ms", r.Slots["op1_ms"], 1)
		r.layerValue("trace.ops_per_s", r.Slots["ops_per_s"], 1)
		if r.Base != nil && r.Base.Slots["op1_ms"] > 0 {
			r.layerValue("trace.overhead_pct", 100*(r.Slots["op1_ms"]/r.Base.Slots["op1_ms"]-1), 1)
		}
	}
	if err := os.MkdirAll(filepath.Dir(resultPath(cfg, r.Traced)), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(cfg, r.Traced), b, 0o644)
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of standard output: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func (r *result) line(traced bool) map[string]any {
	metrics := map[string]metricValue{}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = metricValue{finite(r.Layers[d.Name]), d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = metricValue{finite(r.Slots[d.Name]), d.Unit}
		}
	}
	return map[string]any{
		"correct":   r.Tally.correct(),
		"attempted": r.Tally.Attempted,
		"failed":    r.Tally.Failed,
		"metrics":   metrics,
	}
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// report prints the human-readable summary: the stamp, every metric by
// name with its unit, the answer checks, and for a traced run the layer
// table, the traced-vs-untraced comparison and the spans' self times.
func (r *result) report(w io.Writer, cfg config) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s (%s) seed=%d seconds=%d\n", r.Workload, mode, cfg.seed, cfg.seconds)
	s := r.Stamp
	fmt.Fprintf(w, "stamp: nproc=%d gomaxprocs=%d %s commit=%s\n", s.NProc, s.GOMAXPROCS, s.GoVersion, s.Commit)
	fmt.Fprintf(w, "stamp: inputs %s\n", s.Inputs)
	if len(s.ServerFlags) > 0 {
		fmt.Fprintf(w, "stamp: dsdserver %s\n", strings.Join(s.ServerFlags, " "))
	}
	fmt.Fprintln(w, "end-to-end:")
	for _, n := range r.Named {
		fmt.Fprintf(w, "  %-22s %14.4f %-5s  (%s)\n", n.Name, n.Value, n.Unit, n.Note)
	}
	t := r.Tally
	fmt.Fprintf(w, "  %-22s %14.4f %-5s  (%d failed of %d attempted)\n", "failed_frac", t.failedFrac(), "ratio", t.Failed, t.Attempted)
	fmt.Fprintf(w, "answers: %d wrong; correct=%t\n", t.Wrong, t.correct())
	for _, f := range t.Samples {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if !r.Traced {
		return
	}
	fmt.Fprintln(w, "per-layer (n = samples; 0 with n=0 = the layer does no work in this workload):")
	for _, d := range perLayer {
		base := "median"
		if d.Base != "" {
			base = d.Base
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%-6d -> %s [%s]\n", d.Name, r.Layers[d.Name], d.Unit, r.LayerN[d.Name], d.Moves, base)
	}
	if r.Base == nil {
		fmt.Fprintf(w, "tracing overhead: no untraced result with the same stamp in %s\n", filepath.Dir(resultPath(cfg, false)))
	} else {
		fmt.Fprintln(w, "tracing overhead (traced vs untraced, same stamp):")
		for _, d := range endToEnd {
			b, v := r.Base.Slots[d.Name], r.Slots[d.Name]
			pct := math.NaN()
			if b != 0 {
				pct = 100 * (v/b - 1)
			}
			fmt.Fprintf(w, "  %-22s untraced %12.4f  traced %12.4f %-4s  %+7.2f%% of the untraced value (base)\n",
				slotName(r.Workload, d.Name), b, v, d.Unit, pct)
		}
	}
	if len(r.Spans) > 0 {
		fmt.Fprintln(w, "spans by self time (self = wall minus child spans):")
		for i, sp := range r.Spans {
			if i == 12 {
				break
			}
			fmt.Fprintf(w, "  %-30s n=%-7d wall %10.3f s  self %10.3f s\n", sp.Name, sp.Count, sp.Wall.Seconds(), sp.Self.Seconds())
		}
	}
}
