package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// Machinery of the serving workload: the dsdserver process and the HTTP
// client.

// server is one running dsdserver process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer launches dsdserver with the given flags on a free loopback
// port and waits for /readyz, i.e. until every -load graph is resident.
func startServer(cfg config, flags []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-drain", "2s"}, flags...)
	cmd := exec.Command(filepath.Join(cfg.bin, "dsdserver"), args...)
	cmd.Env = childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.OpenFile(filepath.Join(cfg.work, fmt.Sprintf("dsdserver-%s-%d.log", cfg.workload, cfg.seed)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("dsdserver exited before ready: %v (log in %s)", err, logf.Name())
		default:
		}
		if resp, err := c.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("dsdserver not ready after 120 s")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// statWindow is the window over which the serving workloads take their
// figures (latency quantiles, throughput, the server's peak resident set)
// before the median over windows.
const statWindow = 5 * time.Second

// samplePeaks reads the server's VmHWM every statWindow until end,
// restarting it after each read, and returns the per-window peaks.
func (s *server) samplePeaks(end time.Time) []float64 {
	pid := fmt.Sprint(s.cmd.Process.Pid)
	resetPeak(pid)
	var peaks []float64
	for {
		next := time.Now().Add(statWindow)
		if next.After(end) {
			next = end
		}
		time.Sleep(time.Until(next))
		peaks = append(peaks, peakRSSMB(pid))
		resetPeak(pid)
		if !next.Before(end) {
			return peaks
		}
	}
}

// stop asks for a graceful shutdown and waits for the process to end,
// killing it if the drain overruns.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// client is one keep-alive HTTP connection's worth of client: each client
// has its own transport, so two clients are two connections.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer // reply bodies, reused: a reply's body is valid until the next call
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// reply is one completed round trip. Its body is the client's buffer,
// valid until the client's next call.
type reply struct {
	status int
	body   []byte
	start  time.Time
	rtt    time.Duration
}

// do sends one request and reads the whole response; rtt runs from just
// before the send to the last byte of the body.
func (c *client) do(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{start: start, rtt: time.Since(start)}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: c.buf.Bytes(), start: start, rtt: time.Since(start)}, err
}

// call is do plus the op accounting: a transport error, timeout or any
// non-200 status is a failed op.
func (c *client) call(method, path string, body []byte) (reply, error) {
	r, err := c.do(method, path, body)
	if err != nil {
		return r, opError{err}
	}
	if r.status != http.StatusOK {
		return r, opError{fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, r.status, r.body)}
	}
	return r, nil
}

// debugVars reads the server's expvar counters (all under "dsdserver").
func (c *client) debugVars() (map[string]json.RawMessage, error) {
	r, err := c.call(http.MethodGet, "/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	var top struct {
		DSD map[string]json.RawMessage `json:"dsdserver"`
	}
	if err := json.Unmarshal(r.body, &top); err != nil {
		return nil, err
	}
	return top.DSD, nil
}

// counter reads one integer counter from a debugVars map (0 if absent).
func counter(vars map[string]json.RawMessage, name string) float64 {
	var v float64
	json.Unmarshal(vars[name], &v)
	return v
}

// counterDelta is a counter's change between two debugVars reads.
func counterDelta(before, after map[string]json.RawMessage, name string) float64 {
	return counter(after, name) - counter(before, name)
}

// setUp starts the server setupLaunches times, running warm on each, and
// keeps the last one. setup_s is launch to the end of warm.
func setUp(cfg config, flags []string, warm func(*server) error) (*server, []float64, error) {
	var setups []float64
	for i := 0; i < setupLaunches; i++ {
		start := time.Now()
		s, err := startServer(cfg, flags)
		if err != nil {
			return nil, nil, err
		}
		if err := warm(s); err != nil {
			s.stop()
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == setupLaunches-1 {
			return s, setups, nil
		}
		s.stop()
	}
	panic("unreachable")
}

// solveReply is the part of a /solve response the benchmark reads.
type solveReply struct {
	Algorithm string  `json:"algorithm"`
	Density   float64 `json:"density"`
	Size      int     `json:"size"`
	KStar     int32   `json:"k_star"`
	Vertices  []int32 `json:"vertices"`
	S         []int32 `json:"s"`
	T         []int32 `json:"t"`
	SizeS     int     `json:"size_s"`
	SizeT     int     `json:"size_t"`
}
