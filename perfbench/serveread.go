package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// The serve-read workload: dsdserver with the Chung–Lu graph and the TW
// digraph resident and static, its result cache warmed before timing. Two
// keep-alive connections run a closed loop with no think time over a
// seeded mix of cached solves and graph reads, so the serving tier does
// all the work and the solvers none.

// readReq is one request template of the mix.
type readReq struct {
	name   string
	method string
	path   string
	body   []byte
	weight int
	kind   int // readSolveUDS, readSolveDDS or readGraph
	algo   string
	graph  string
}

const (
	readSolveUDS = iota
	readSolveDDS
	readGraph
)

// readMix is the request mix. There is no measured traffic to copy, so the
// shares are an assumption: each of the three request classes — cached
// undirected solves, cached directed solves, graph reads — gets a third,
// split evenly among its variants.
func readMix() []readReq {
	uds := func(algo string, omit bool) []byte {
		b, _ := json.Marshal(map[string]any{"graph": "cl", "algo": algo, "options": map[string]any{"omit_vertices": omit}})
		return b
	}
	return []readReq{
		{"uds.pkmc", http.MethodPost, "/solve/uds", uds("pkmc", false), 1, readSolveUDS, "pkmc", "cl"},
		{"uds.pkmc.omit", http.MethodPost, "/solve/uds", uds("pkmc", true), 1, readSolveUDS, "pkmc", "cl"},
		{"uds.exact", http.MethodPost, "/solve/uds", uds("exact-pruned", false), 1, readSolveUDS, "exact-pruned", "cl"},
		{"uds.exact.omit", http.MethodPost, "/solve/uds", uds("exact-pruned", true), 1, readSolveUDS, "exact-pruned", "cl"},
		{"dds.pwc", http.MethodPost, "/solve/dds", []byte(`{"graph":"tw","algo":"pwc"}`), 4, readSolveDDS, "pwc", "tw"},
		{"graph.cl", http.MethodGet, "/graphs/cl", nil, 2, readGraph, "", "cl"},
		{"graph.tw", http.MethodGet, "/graphs/tw", nil, 2, readGraph, "", "tw"},
	}
}

// readChecker verifies serve-read responses. Each distinct reply body
// (elapsed_ms aside) is decoded and checked once: a full answer is
// recomputed from the reference graph, an answer without vertices must
// repeat the verified full answer's density and size for its algorithm.
// A later byte-identical reply carries the same answer and gets the same
// verdict without being decoded again, which keeps the client's share of
// the two processors small.
type readChecker struct {
	in *inputSet
	mu sync.Mutex
	// verdict maps a reply's hash to its check result.
	verdict map[uint64]error
	// full is the verified full answer per algorithm.
	full map[string]solveReply
}

func newReadChecker(in *inputSet) *readChecker {
	return &readChecker{in: in, verdict: map[uint64]error{}, full: map[string]solveReply{}}
}

// elapsedField locates the "elapsed_ms" member, the one part of a solve
// reply that differs between identical answers: body[i:k] is the member,
// v its value (NaN if absent).
func elapsedField(body []byte) (i, k int, v float64) {
	key := []byte(`"elapsed_ms":`)
	i = bytes.Index(body, key)
	if i < 0 {
		return len(body), len(body), math.NaN()
	}
	j := i + len(key)
	k = j
	for k < len(body) && body[k] != ',' && body[k] != '}' {
		k++
	}
	v, err := strconv.ParseFloat(string(body[j:k]), 64)
	if err != nil {
		v = math.NaN()
	}
	return i, k, v
}

// check verifies one reply of template q and returns its elapsed_ms (NaN
// for graph reads) and whether it was served from the cache.
func (c *readChecker) check(q readReq, body []byte) (float64, bool, error) {
	i, k, elapsed := len(body), len(body), math.NaN()
	if q.kind != readGraph {
		i, k, elapsed = elapsedField(body)
	}
	h := fnv.New64a()
	h.Write([]byte(q.name))
	h.Write(body[:i])
	h.Write(body[k:])
	key := h.Sum64()
	cached := bytes.Contains(body, []byte(`"cached":true`))
	c.mu.Lock()
	err, seen := c.verdict[key]
	c.mu.Unlock()
	if !seen {
		err = c.decode(q, body)
		c.mu.Lock()
		c.verdict[key] = err
		c.mu.Unlock()
	}
	return elapsed, cached, err
}

// decode is the full check of a reply not seen before.
func (c *readChecker) decode(q readReq, body []byte) error {
	if q.kind == readGraph {
		var g struct {
			N int   `json:"n"`
			M int64 `json:"m"`
		}
		if err := json.Unmarshal(body, &g); err != nil {
			return err
		}
		n, m := c.in.meta.CLN, c.in.meta.CLM
		if q.graph == "tw" {
			n, m = c.in.meta.TWN, c.in.meta.TWM
		}
		if g.N != n || g.M != m {
			return fmt.Errorf("graph %s: n=%d m=%d, generated n=%d m=%d", q.graph, g.N, g.M, n, m)
		}
		return nil
	}
	var r solveReply
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	c.mu.Lock()
	full, ok := c.full[q.algo]
	c.mu.Unlock()
	if len(r.Vertices) == 0 && len(r.S) == 0 {
		switch {
		case !ok:
			return fmt.Errorf("%s: vertices omitted before any full answer was verified", q.name)
		case r.Density != full.Density || r.Size != full.Size || r.KStar != full.KStar ||
			r.SizeS != full.SizeS || r.SizeT != full.SizeT:
			return fmt.Errorf("%s: density %v size %d differs from the verified full answer's %v/%d",
				q.name, r.Density, r.Size, full.Density, full.Size)
		}
		return nil
	}
	if err := c.verifyFull(q, r); err != nil {
		return err
	}
	c.mu.Lock()
	c.full[q.algo] = r
	c.mu.Unlock()
	return nil
}

func (c *readChecker) verifyFull(q readReq, r solveReply) error {
	switch q.algo {
	case "pwc":
		return checkDDS(c.in.tw, r.S, r.T, r.Density, c.in.meta.Planted)
	case "pkmc":
		return checkPKMC(c.in.cl, udsAnswer{r.Vertices, r.Density, r.KStar}, c.in.meta.CLCore)
	default:
		if err := checkUDS(c.in.cl, udsAnswer{r.Vertices, r.Density, r.KStar}); err != nil {
			return err
		}
		// The k*-core is a feasible subgraph, so every exact answer
		// matches or beats its density (the pkmc answer, held to the same
		// reference); no subgraph is denser than k*.
		return checkOrder(c.in.meta.CLCore.Density, r.Density, c.in.meta.CLCore.K)
	}
}

// readSample is one timed request.
type readSample struct {
	kind    int
	rttMs   float64
	handler float64 // elapsed_ms of solve replies, NaN otherwise
	bytes   int
	cached  bool
	at      float64 // completion, seconds into the window
}

func runServeRead(cfg config) (*result, error) {
	dir := dataDir(cfg)
	defer os.RemoveAll(dir)
	in, err := generate(dir, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newResult(cfg.workload, cfg.trace)
	res.Inputs = in.meta
	res.Stamp.Inputs = fmt.Sprintf("cl(binary) n=%d m=%d; tw(binary) n=%d m=%d", in.meta.CLN, in.meta.CLM, in.meta.TWN, in.meta.TWM)
	flags := []string{"-load", "cl=" + in.path("cl.dsdg"), "-load", "tw=" + in.path("tw.dsdg") + ",directed"}
	res.Stamp.ServerFlags = []string{"-load", "cl=<cl.dsdg>", "-load", "tw=<tw.dsdg>,directed", "-drain", "2s"}

	mix := readMix()
	chk := newReadChecker(in)
	// Warm-up sends every template once, full answers first so the
	// omitted ones have something to match.
	warm := func(s *server) error {
		c := newClient(s.base)
		defer c.close()
		for _, q := range mix {
			r, err := c.call(q.method, q.path, q.body)
			if err == nil {
				_, _, err = chk.check(q, r.body)
			}
			if !res.Tally.record("warm."+q.name, err) {
				return fmt.Errorf("warm-up %s: %v", q.name, err)
			}
		}
		return nil
	}
	srv, setups, err := setUp(cfg, flags, warm)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	rec := newRecorder(cfg.trace)
	admin := newClient(srv.base)
	defer admin.close()
	before, err := admin.debugVars()
	if err != nil {
		return nil, err
	}
	// The load generator shares the two processors with the server;
	// collecting its garbage less often leaves the server more of them.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	const conns = 2
	samples := make([][]readSample, conns)
	tallies := make([]tally, conns)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds) * time.Second)
	peaks := make(chan []float64, 1)
	go func() { peaks <- srv.samplePeaks(end) }()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(srv.base)
			defer c.close()
			rng := rand.New(rand.NewSource(cfg.seed*31 + int64(i)))
			pick := weightedPicker(mix)
			out := make([]readSample, 0, 1<<16)
			for op := int64(i); time.Now().Before(end); op += conns {
				q := mix[pick(rng)]
				r, err := c.call(q.method, q.path, q.body)
				rec.add("http."+q.name, op, -1, r.start, r.start.Add(r.rtt))
				s := readSample{kind: q.kind, rttMs: float64(r.rtt.Nanoseconds()) / 1e6, handler: math.NaN(),
					bytes: len(r.body), at: r.start.Add(r.rtt).Sub(start).Seconds()}
				if err == nil {
					s.handler, s.cached, err = chk.check(q, r.body)
				}
				if tallies[i].record(q.name, err) {
					out = append(out, s)
				}
			}
			samples[i] = out
		}(i)
	}
	wg.Wait()
	after, err := admin.debugVars()
	if err != nil {
		return nil, err
	}
	peak := median(<-peaks)

	var all, solves, graphs series
	var handler, transport, bytes []float64
	var cached float64
	for i := range samples {
		res.Tally.merge(tallies[i])
		for _, s := range samples[i] {
			all.add(s.at, s.rttMs)
			bytes = append(bytes, float64(s.bytes))
			if s.kind == readGraph {
				graphs.add(s.at, s.rttMs)
				continue
			}
			solves.add(s.at, s.rttMs)
			if s.cached {
				cached++
			}
			handler = append(handler, s.handler)
			transport = append(transport, s.rttMs-s.handler)
		}
	}
	if all.len() == 0 {
		return nil, fmt.Errorf("no request completed in the timed window")
	}
	total := float64(cfg.seconds)
	w := statWindow.Seconds()
	rps, nw := all.byWindow(w, total, func(xs []float64) float64 { return float64(len(xs)) / w })
	per := fmt.Sprintf("median over %d windows of %v", nw, statWindow)
	res.slot("setup_s", median(setups), fmt.Sprintf("dsdserver launch to /readyz plus cache warm-up; median of %d launches", len(setups)))
	res.slot("peak_rss_mb", peak, fmt.Sprintf("VmHWM of dsdserver per %v of the window; median over windows", statWindow))
	res.slot("ops_per_s", rps, fmt.Sprintf("%d requests over %d connections; %s", all.len(), conns, per))
	op1, _ := all.byWindow(w, total, p50)
	res.slot("op1_ms", op1, fmt.Sprintf("p50 round trip of %d requests; %s", all.len(), per))
	op2, _ := all.byWindow(w, total, p90)
	res.slot("op2_ms", op2, fmt.Sprintf("p90 round trip; %s", per))
	op3, _ := solves.byWindow(w, total, p50)
	res.slot("op3_ms", op3, fmt.Sprintf("p50 round trip of %d cached solves; %s", solves.len(), per))
	op4, _ := graphs.byWindow(w, total, p50)
	res.slot("op4_ms", op4, fmt.Sprintf("p50 round trip of %d GET /graphs/{name}; %s", graphs.len(), per))
	tail, label := tailQuantile(all.v)
	res.Notes = append(res.Notes, "round trip ms over the whole window: "+spreadNote(all.v),
		fmt.Sprintf("latency_p99_ms over the whole window: %.4f (%s of %d)", tail, label, all.len()))

	res.layer("server.handler_ms_p50", handler)
	res.layer("server.transport_ms_p50", transport)
	res.layerValue("server.response_bytes", mean(bytes), len(bytes))
	cacheRatio(res, cached, float64(solves.len()), before, after)
	if cfg.trace {
		res.Spans = rec.selfTimes()
		if err := rec.write(spansPath(cfg)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// cacheRatio records the share of solve replies marked "cached", with its
// base, and notes the /debug/vars cache counters over the same window.
func cacheRatio(res *result, cached, solves float64, before, after map[string]json.RawMessage) {
	res.layerValue("server.cache_lookups", solves, 1)
	if solves > 0 {
		res.layerValue("server.cache_hit_ratio", cached/solves, int(solves))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("cache: %.0f of %.0f solve replies cached; /debug/vars: %.0f hits, %.0f misses",
		cached, solves, counterDelta(before, after, "cache_hits"), counterDelta(before, after, "cache_misses")))
}

func spansPath(cfg config) string {
	return filepath.Join(cfg.work, "results", fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
}

// weightedPicker returns a function drawing a template index by weight.
func weightedPicker(mix []readReq) func(*rand.Rand) int {
	var total int
	for _, q := range mix {
		total += q.weight
	}
	return func(rng *rand.Rand) int {
		x := rng.Intn(total)
		for i, q := range mix {
			if x < q.weight {
				return i
			}
			x -= q.weight
		}
		return len(mix) - 1
	}
}
