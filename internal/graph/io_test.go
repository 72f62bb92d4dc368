package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// readEdgeListRef is the straightforward text reader ReadEdgeList must
// agree with: a 1 MiB bufio.Scanner, TrimSpace, Fields and ParseInt on
// every line, and a map from raw to compact ids.
func readEdgeListRef(r io.Reader) (edges []Edge, n int, ids []int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	compact := make(map[int64]int32)
	lineNo := 0
	lookup := func(raw int64) int32 {
		if c, ok := compact[raw]; ok {
			return c
		}
		c := int32(len(ids))
		compact[raw] = c
		ids = append(ids, raw)
		return c
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, 0, nil, fmt.Errorf("graph: line %d: want at least two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("graph: line %d: bad vertex id %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("graph: line %d: bad vertex id %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, 0, nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		edges = append(edges, Edge{lookup(u), lookup(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return edges, len(ids), ids, nil
}

// checkMatchesRef fails t unless ReadEdgeList and readEdgeListRef agree on
// input: the same edges, n and ids, or the same error text.
func checkMatchesRef(t *testing.T, input string) {
	t.Helper()
	checkReaderMatchesRef(t, input, func(r io.Reader) io.Reader { return r })
}

// checkReaderMatchesRef is checkMatchesRef with input delivered through
// wrap(strings.NewReader(input)), for readers that split data or fail.
func checkReaderMatchesRef(t *testing.T, input string, wrap func(io.Reader) io.Reader) {
	t.Helper()
	edges, n, ids, err := ReadEdgeList(wrap(strings.NewReader(input)))
	wantEdges, wantN, wantIDs, wantErr := readEdgeListRef(wrap(strings.NewReader(input)))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("input %.60q: error %v, reference %v", input, err, wantErr)
	}
	if n != wantN || !reflect.DeepEqual(edges, wantEdges) || !reflect.DeepEqual(ids, wantIDs) {
		t.Fatalf("input %.60q: got n=%d edges=%v ids=%v, reference n=%d edges=%v ids=%v",
			input, n, edges, ids, wantN, wantEdges, wantIDs)
	}
}

// readerCases are inputs on both sides of every branch of the line
// parser; the fuzz target starts from them too.
var readerCases = []string{
	"0 1\n1 2\n",
	"1 2\r\n2 3\r\n",
	"1\t2\n\t 3 \t4 \t\n",
	"  5 6  \n7 8\t\n",
	"1 2\r3 4\r",
	"\v1\f2\n",
	"+7 8\n",
	"-0 3\n",
	"007 0008\n7 8\n",
	"-1 5\n",
	"5 -1\n",
	"123456789012345678 1\n",
	"1234567890123456789 1\n",
	"12345678901234567890 1\n",
	"9223372036854775807 0\n",
	"9223372036854775808 0\n",
	"000000000000000000001 2\n",
	"1 2 1.0 1234567\n2 3 5\n",
	"1 2x\n",
	"1x 2\n",
	"1 2\x00\n",
	"1\u00a02\n",
	"1\u00852\n",
	"1 2\u00a0junk\n",
	"\u00a01 2\n",
	"1 2\x85\n",
	"1\xa02\n",
	"1\xc2 2\n",
	"1 2\n3 4",
	"1 2\n\n   \n% c\n# c\n  %x\n3 4\n",
	"1\n",
	"1 \n",
	"x y\n",
	"",
	"\n",
	"% only a comment",
	"4611686018427387904 1000000000000\n2147483647 4611686018427387904\n",
	"70000 1\n1 70000\n200000 3\n",
}

func TestReadEdgeListMatchesReference(t *testing.T) {
	for _, in := range readerCases {
		checkMatchesRef(t, in)
	}
}

// longLine returns a valid edge line padded with a weight column to n
// bytes, newline excluded.
func longLine(n int) string { return "1 2 " + strings.Repeat("x", n-4) }

// longLineCases sit on both sides of the reference's 1 MiB Scanner limit,
// for newline-ended and final lines.
func longLineCases() []string {
	const limit = 1 << 20
	return []string{
		longLine(limit-1) + "\n3 4\n",
		longLine(limit) + "\n3 4\n",
		longLine(limit+5) + "\n3 4\n",
		"3 4\n" + longLine(limit-1),
		"3 4\n" + longLine(limit),
		"3 4\n" + longLine(3*limit),
		strings.Repeat("5 6\n", limit/3) + longLine(limit-1) + "\n",
	}
}

func TestReadEdgeListLongLines(t *testing.T) {
	for _, in := range longLineCases() {
		checkMatchesRef(t, in)
	}
	if _, _, _, err := ReadEdgeList(strings.NewReader(longLine(1<<20) + "\n")); err == nil {
		t.Fatal("1 MiB line accepted")
	}
}

// TestReadEdgeListReaderBehaviour delivers input in odd chunks and with
// read errors, including one that clears on the next read: the first error
// must end the parse, as it ends the reference's.
func TestReadEdgeListReaderBehaviour(t *testing.T) {
	wraps := map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data-err": iotest.DataErrReader,
		"timeout":  iotest.TimeoutReader,
		"fails": func(r io.Reader) io.Reader {
			return io.MultiReader(r, iotest.ErrReader(errors.New("disk on fire")))
		},
	}
	for name, wrap := range wraps {
		for _, in := range readerCases {
			checkReaderMatchesRef(t, in, wrap)
		}
		for _, in := range []string{"1 2\n% c", "1 2\n3 4", "1 2\n  \n", "1 2\n3 4\n"} {
			checkReaderMatchesRef(t, in, wrap)
		}
		if _, _, _, err := ReadEdgeList(wrap(strings.NewReader("1 2\n% c"))); name == "timeout" && err == nil {
			t.Fatal("a read error on the last line's comment was dropped")
		}
	}
}

// TestReadEdgeListIDTableBounded reads ids far apart and far beyond the
// input's size: the id table must not allocate for the largest of them.
func TestReadEdgeListIDTableBounded(t *testing.T) {
	const in = "4611686018427387904 1000000000000\n2147483647 4611686018427387904\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	edges, n, ids, err := ReadEdgeList(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a %d-byte file allocated %d bytes", len(in), got)
	}
	want := []int64{4611686018427387904, 1000000000000, 2147483647}
	if n != 3 || !reflect.DeepEqual(ids, want) {
		t.Fatalf("n=%d ids=%v, want %v", n, ids, want)
	}
	if !reflect.DeepEqual(edges, []Edge{{0, 1}, {2, 0}}) {
		t.Fatalf("edges = %v", edges)
	}
}

// TestReadEdgeListIDTableGrowth mixes ids below and above the dense
// table's cap as it grows, so ids first stored in the map are later
// covered by the table, and checks every lookup against the reference.
func TestReadEdgeListIDTableGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var b strings.Builder
	for i := 0; i < 60000; i++ {
		u := rng.Int63n(1 << 20)
		if i%7 == 0 {
			u = rng.Int63()
		}
		fmt.Fprintf(&b, "%d %d\n", u, rng.Int63n(int64(i)+1))
	}
	checkMatchesRef(t, b.String())
}

func TestReadEdgeListBasic(t *testing.T) {
	in := "% comment\n# another\n10 20\n20 30\n\n10 30\n"
	edges, n, ids, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(edges) != 3 {
		t.Fatalf("n=%d edges=%d", n, len(edges))
	}
	if ids[0] != 10 || ids[1] != 20 || ids[2] != 30 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestReadEdgeListExtraFieldsTolerated(t *testing.T) {
	// KONECT files carry weight/timestamp columns; they must be ignored.
	in := "1 2 1.0 1234567\n2 3 5\n"
	edges, n, _, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(edges) != 2 {
		t.Fatalf("n=%d edges=%d", n, len(edges))
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"1\n", "a b\n", "1 b\n", "-1 2\n"}
	for _, in := range cases {
		if _, _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: want error", in)
		}
	}
}

func TestUndirectedTextRoundTrip(t *testing.T) {
	g := NewUndirected(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadUndirected(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("M = %d, want %d", g2.M(), g.M())
	}
}

func TestDirectedTextRoundTrip(t *testing.T) {
	d := NewDirected(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 0}})
	var buf bytes.Buffer
	if err := d.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDirected(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.M() != d.M() {
		t.Fatalf("M = %d, want %d", d2.M(), d.M())
	}
	// Text ids are compacted, but this graph is already dense so the arcs
	// must match exactly.
	for u := int32(0); int(u) < d.N(); u++ {
		for _, v := range d.OutNeighbors(u) {
			if !d2.HasArc(u, v) {
				t.Fatalf("arc %d->%d lost", u, v)
			}
		}
	}
}

// TestWriteEdgeListBytes pins the text writers' exact output.
func TestWriteEdgeListBytes(t *testing.T) {
	g := NewUndirected(4, []Edge{{2, 0}, {0, 1}, {3, 1}, {1, 0}, {2, 2}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "% undirected n=4 m=3\n0 1\n0 2\n1 3\n"; buf.String() != want {
		t.Fatalf("undirected output %q, want %q", buf.String(), want)
	}
	d := NewDirected(12, []Edge{{11, 0}, {0, 11}, {3, 10}, {3, 2}, {5, 5}})
	buf.Reset()
	if err := d.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "% directed n=12 m=4\n0 11\n3 2\n3 10\n11 0\n"; buf.String() != want {
		t.Fatalf("directed output %q, want %q", buf.String(), want)
	}
}

func TestBinaryRoundTripUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var edges []Edge
	n := 100
	for i := 0; i < 400; i++ {
		edges = append(edges, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
	}
	g := NewUndirected(n, edges)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinaryUndirected(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)", g2.N(), g2.M(), g.N(), g.M())
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if g.Degree(v) != g2.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestBinaryRoundTripDirected(t *testing.T) {
	d := NewDirected(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 0}, {0, 3}})
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadBinaryDirected(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.M() != d.M() {
		t.Fatal("arc count mismatch")
	}
}

func TestBinaryKindMismatchRejected(t *testing.T) {
	g := NewUndirected(2, []Edge{{0, 1}})
	var buf bytes.Buffer
	g.WriteBinary(&buf)
	if _, err := ReadBinaryDirected(&buf); err == nil {
		t.Fatal("directed reader accepted undirected file")
	}
	d := NewDirected(2, []Edge{{0, 1}})
	buf.Reset()
	d.WriteBinary(&buf)
	if _, err := ReadBinaryUndirected(&buf); err == nil {
		t.Fatal("undirected reader accepted directed file")
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinaryUndirected(bytes.NewReader([]byte("NOPE12345678901234567"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	g := NewUndirected(3, []Edge{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	g.WriteBinary(&buf)
	raw := buf.Bytes()
	if _, err := ReadBinaryUndirected(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// failingWriter errors after N bytes — failure injection for the writers.
type failingWriter struct {
	n int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errShort
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errShort
	}
	f.n -= len(p)
	return len(p), nil
}

var errShort = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "injected write failure" }

func TestWritersPropagateErrors(t *testing.T) {
	g := NewUndirected(300, func() []Edge {
		var es []Edge
		for i := int32(0); i < 299; i++ {
			es = append(es, Edge{U: i, V: i + 1})
		}
		return es
	}())
	if err := g.WriteEdgeList(&failingWriter{n: 10}); err == nil {
		t.Fatal("text writer swallowed the error")
	}
	if err := g.WriteBinary(&failingWriter{n: 10}); err == nil {
		t.Fatal("binary writer swallowed the error")
	}
	d := NewDirected(300, func() []Edge {
		var es []Edge
		for i := int32(0); i < 299; i++ {
			es = append(es, Edge{U: i, V: i + 1})
		}
		return es
	}())
	if err := d.WriteEdgeList(&failingWriter{n: 10}); err == nil {
		t.Fatal("directed text writer swallowed the error")
	}
	if err := d.WriteBinary(&failingWriter{n: 10}); err == nil {
		t.Fatal("directed binary writer swallowed the error")
	}
}
