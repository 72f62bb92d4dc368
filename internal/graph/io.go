package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/faultinject"
)

// The text format is the KONECT / SNAP edge-list dialect: one "u v" pair of
// whitespace-separated non-negative decimal vertex ids per line, with any
// further columns (KONECT weights, timestamps) ignored; lines starting with
// '%' or '#' are comments. Vertex ids need not be dense — readers compact
// them into 0..n-1 in order of first appearance.
//
// ReadEdgeList reads lines in place from one reused 64 KiB buffer; a longer
// line is gathered apart, and one of 1 MiB or more (newline excluded) is an
// error. The common line shape — optional ASCII blanks, 1–18 digits,
// blanks, 1–18 digits, then the end of the line or an ASCII blank and
// anything — is parsed without allocating. Every other line (comments,
// blank lines, signs, 19+ digit ids, Unicode spaces, bad tokens) takes the
// general TrimSpace/Fields/ParseInt path, which decides what is accepted
// and words every error. Raw ids map to compact ids through a dense table
// indexed by raw id, capped at a length that grows with the bytes read so
// far; ids past the cap go to a map, so the table's memory follows the
// input's size, not its largest id.
//
// The binary format is a little-endian dump, in two versions:
//
//	v1: magic "DSDG" | u8 directed | u32 n | u64 m | m × (u32 u, u32 v)
//	v2: magic "DSD2" | u8 directed | u32 n | u64 m | m × (u32 u, u32 v) | u32 crc
//
// v2 appends a CRC32 (IEEE) footer computed over every preceding byte
// (magic included), so bit rot and truncation-at-a-record-boundary are
// detected instead of silently loading a wrong graph. Writers emit v2;
// readers accept both. Binary loads skip tokenizing and id compaction, and
// hand the builder edges in CSR order, whose neighbor lists arrive sorted.
//
// Binary input is treated as untrusted: header counts are validated before
// any count-proportional allocation (a forged multi-gigabyte m cannot
// reserve more than one read chunk up front), every edge endpoint is range
// checked, and graphs are assembled with the non-panicking checked
// builders.

const (
	binaryMagic   = "DSDG"
	binaryMagicV2 = "DSD2"
)

const (
	// maxBinaryVertices caps header n: vertex ids are int32.
	maxBinaryVertices = math.MaxInt32
	// edgeChunk is how many records are read per chunk. A truncated file
	// with a forged edge count can cost at most one chunk (512 KiB) of
	// speculative allocation before the stream runs dry.
	edgeChunk = 1 << 16
	// maxUncorroboratedVertices is the largest header n accepted without
	// edge data to back it up: 8M vertices, a 64 MiB CSR offsets array.
	// Beyond it, n must be proportionate to the edges actually present
	// (vertexSlackPerEdge per record), so a 17-byte file cannot demand a
	// multi-gigabyte vertex array. Genuinely edge-free giant graphs must
	// use the text format.
	maxUncorroboratedVertices = 1 << 23
	vertexSlackPerEdge        = 64
)

const (
	// maxLine bounds a text line: its bytes before the newline must number
	// fewer than this, as under a bufio.Scanner with a 1 MiB buffer.
	maxLine = 1 << 20
	// readChunk is the read buffer; longer lines are gathered apart.
	readChunk = 64 << 10
	// edgeBlock is how many parsed edges one block holds (512 KiB).
	edgeBlock = 1 << 16
)

// ReadEdgeList parses a text edge list, compacting arbitrary non-negative
// vertex ids into the dense range [0, n). It returns the arc/edge list, the
// number of distinct vertices, and the original ids (ids[i] is the original
// id of compact vertex i).
func ReadEdgeList(r io.Reader) (edges []Edge, n int, ids []int64, err error) {
	if err := faultinject.Hit(faultinject.SiteGraphIOText); err != nil {
		return nil, 0, nil, err
	}
	br := bufio.NewReaderSize(r, readChunk)
	t := idTable{sparse: make(map[int64]int32)}
	var read int64 // bytes consumed so far, which cap the dense id table
	var long []byte
	// Edges fill blocks of edgeBlock and are joined once at the end, which
	// copies each edge once instead of on every regrowth of one slice.
	var full [][]Edge
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			// A line longer than the buffer: gather it, up to maxLine.
			long = append(long[:0], line...)
			for rerr == bufio.ErrBufferFull && len(long) < maxLine {
				line, rerr = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
			if len(bytes.TrimSuffix(line, []byte{'\n'})) >= maxLine {
				return nil, 0, nil, fmt.Errorf("graph: reading edge list: %w", bufio.ErrTooLong)
			}
		}
		read += int64(len(line))
		if len(line) > 0 {
			u, v, ok := parseEdgeLine(line)
			if !ok {
				if u, v, ok, err = parseLineGeneral(string(line), lineNo); err != nil {
					return nil, 0, nil, err
				}
			}
			if ok {
				if len(edges) == edgeBlock {
					full = append(full, edges)
					edges = make([]Edge, 0, edgeBlock)
				}
				limit := read + denseSlack
				cu := t.lookup(u, limit)
				edges = append(edges, Edge{cu, t.lookup(v, limit)})
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, 0, nil, fmt.Errorf("graph: reading edge list: %w", rerr)
		}
	}
	if len(full) > 0 {
		edges = slices.Concat(append(full, edges)...)
	}
	return edges, len(t.ids), t.ids, nil
}

// parseEdgeLine parses the common line shape in place (see the format
// comment above); ok is false for any other line. Eighteen digits stay
// below 2^63, so no overflow check is needed.
func parseEdgeLine(b []byte) (u, v int64, ok bool) {
	i := skipBlanks(b, 0)
	u, i, ok = parseDigits(b, i)
	if !ok {
		return 0, 0, false
	}
	j := skipBlanks(b, i)
	if j == i {
		return 0, 0, false
	}
	v, j, ok = parseDigits(b, j)
	if !ok || (j < len(b) && !isBlank(b[j])) {
		return 0, 0, false
	}
	return u, v, true
}

// isBlank reports whether c is ASCII whitespace, the bytes both
// strings.TrimSpace and strings.Fields treat as separators without
// decoding a rune. '\n' only ever ends a line.
func isBlank(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

func skipBlanks(b []byte, i int) int {
	for i < len(b) && isBlank(b[i]) {
		i++
	}
	return i
}

// parseDigits reads the run of ASCII digits at b[i:]; ok requires 1–18 of
// them.
func parseDigits(b []byte, i int) (x int64, end int, ok bool) {
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		x = x*10 + int64(b[i]-'0')
	}
	return x, i, i > start && i-start <= 18
}

// parseLineGeneral is the path for every line parseEdgeLine declines. ok
// is false for blank and comment lines; it owns every error message.
func parseLineGeneral(raw string, lineNo int) (u, v int64, ok bool, err error) {
	line := strings.TrimSpace(raw)
	if line == "" || line[0] == '%' || line[0] == '#' {
		return 0, 0, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, false, fmt.Errorf("graph: line %d: want at least two fields, got %q", lineNo, line)
	}
	if u, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return 0, 0, false, fmt.Errorf("graph: line %d: bad vertex id %q: %w", lineNo, fields[0], err)
	}
	if v, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return 0, 0, false, fmt.Errorf("graph: line %d: bad vertex id %q: %w", lineNo, fields[1], err)
	}
	if u < 0 || v < 0 {
		return 0, 0, false, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
	}
	return u, v, true, nil
}

// denseSlack is how far past the bytes consumed so far the dense id table
// may reach: 64K entries (256 KiB), so small files with small ids never
// touch the map.
const denseSlack = 1 << 16

// idTable maps raw ids to compact ids in order of first appearance. Ids
// below len(dense) live in dense (compact id + 1, 0 for unseen); all other
// ids live in sparse. Growing dense moves the sparse ids it now covers, so
// that split holds throughout.
type idTable struct {
	dense  []int32
	sparse map[int64]int32
	ids    []int64
}

// lookup returns raw's compact id, assigning the next one to a new id.
// limit caps the length dense may grow to.
func (t *idTable) lookup(raw, limit int64) int32 {
	if raw < int64(len(t.dense)) {
		if c := t.dense[raw]; c != 0 {
			return c - 1
		}
	} else if c, ok := t.sparse[raw]; ok {
		return c
	} else if raw < limit {
		t.grow(min(max(2*int64(len(t.dense)), raw+1), limit))
	}
	c := int32(len(t.ids))
	t.ids = append(t.ids, raw)
	if raw < int64(len(t.dense)) {
		t.dense[raw] = c + 1
	} else {
		t.sparse[raw] = c
	}
	return c
}

// grow extends dense to size entries and moves the sparse ids it now
// covers into it.
func (t *idTable) grow(size int64) {
	d := make([]int32, size)
	copy(d, t.dense)
	t.dense = d
	for raw, c := range t.sparse {
		if raw < size {
			d[raw] = c + 1
			delete(t.sparse, raw)
		}
	}
}

// ReadUndirected parses a text edge list into an Undirected graph.
func ReadUndirected(r io.Reader) (*Undirected, error) {
	edges, n, _, err := ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return NewUndirectedChecked(n, edges)
}

// ReadDirected parses a text edge list (each line "u v" is the arc u->v)
// into a Directed graph.
func ReadDirected(r io.Reader) (*Directed, error) {
	edges, n, _, err := ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return NewDirectedChecked(n, edges)
}

// WriteEdgeList writes g in the text format with a leading comment header.
func (g *Undirected) WriteEdgeList(w io.Writer) error {
	tw := textWriter{w: w, buf: fmt.Appendf(nil, "%% undirected n=%d m=%d\n", g.N(), g.M())}
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if err := tw.line(u, v); err != nil {
					return err
				}
			}
		}
	}
	return tw.flush()
}

// WriteEdgeList writes d in the text format (one arc per line).
func (d *Directed) WriteEdgeList(w io.Writer) error {
	tw := textWriter{w: w, buf: fmt.Appendf(nil, "%% directed n=%d m=%d\n", d.N(), d.M())}
	for u := int32(0); int(u) < d.N(); u++ {
		for _, v := range d.OutNeighbors(u) {
			if err := tw.line(u, v); err != nil {
				return err
			}
		}
	}
	return tw.flush()
}

// textWriter appends "u v" lines to one reused buffer and hands it to w
// whenever it passes textChunk bytes.
type textWriter struct {
	w   io.Writer
	buf []byte
}

const textChunk = 64 << 10

func (t *textWriter) line(u, v int32) error {
	t.buf = strconv.AppendInt(t.buf, int64(u), 10)
	t.buf = append(t.buf, ' ')
	t.buf = strconv.AppendInt(t.buf, int64(v), 10)
	t.buf = append(t.buf, '\n')
	if len(t.buf) < textChunk {
		return nil
	}
	return t.flush()
}

func (t *textWriter) flush() error {
	_, err := t.w.Write(t.buf)
	t.buf = t.buf[:0]
	return err
}

func writeBinary(w io.Writer, directed bool, n int, edges func(emit func(u, v int32) error) error, m int64) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	// Everything before the footer flows through the hash; crc32 writes
	// never fail, so the MultiWriter's error is bw's.
	hw := io.MultiWriter(bw, crc)
	if _, err := io.WriteString(hw, binaryMagicV2); err != nil {
		return err
	}
	dirByte := []byte{0}
	if directed {
		dirByte[0] = 1
	}
	if _, err := hw.Write(dirByte); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(m))
	if _, err := hw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [8]byte
	err := edges(func(u, v int32) error {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(u))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(v))
		_, err := hw.Write(rec[:])
		return err
	})
	if err != nil {
		return err
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc.Sum32())
	if _, err := bw.Write(foot[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBinary writes g in the compact binary format.
func (g *Undirected) WriteBinary(w io.Writer) error {
	return writeBinary(w, false, g.N(), func(emit func(u, v int32) error) error {
		for u := int32(0); int(u) < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if u < v {
					if err := emit(u, v); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}, g.M())
}

// WriteBinary writes d in the compact binary format.
func (d *Directed) WriteBinary(w io.Writer) error {
	return writeBinary(w, true, d.N(), func(emit func(u, v int32) error) error {
		for u := int32(0); int(u) < d.N(); u++ {
			for _, v := range d.OutNeighbors(u) {
				if err := emit(u, v); err != nil {
					return err
				}
			}
		}
		return nil
	}, d.M())
}

// readFull reads len(buf) bytes, feeding crc when non-nil (a v2 stream).
func readFull(r *bufio.Reader, buf []byte, crc hash.Hash32) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	if crc != nil {
		crc.Write(buf)
	}
	return nil
}

// readBinaryHeader consumes and validates the magic and header. crc is
// non-nil for v2 files and already contains the magic bytes.
func readBinaryHeader(r *bufio.Reader) (directed bool, n int, m int64, crc hash.Hash32, err error) {
	if err := faultinject.Hit(faultinject.SiteGraphIOHeader); err != nil {
		return false, 0, 0, nil, err
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return false, 0, 0, nil, fmt.Errorf("graph: reading binary magic: %w", err)
	}
	switch string(magic) {
	case binaryMagic:
	case binaryMagicV2:
		crc = crc32.NewIEEE()
		crc.Write(magic)
	default:
		return false, 0, 0, nil, fmt.Errorf("graph: bad magic %q, want %q or %q", magic, binaryMagic, binaryMagicV2)
	}
	var hdr [13]byte
	if err := readFull(r, hdr[:], crc); err != nil {
		return false, 0, 0, nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	if hdr[0] > 1 {
		return false, 0, 0, nil, fmt.Errorf("graph: bad directed flag %d in header", hdr[0])
	}
	directed = hdr[0] != 0
	un := binary.LittleEndian.Uint32(hdr[1:5])
	m = int64(binary.LittleEndian.Uint64(hdr[5:13]))
	if un > maxBinaryVertices {
		return false, 0, 0, nil, fmt.Errorf("graph: header vertex count %d exceeds the int32 id space", un)
	}
	n = int(un)
	if m < 0 {
		return false, 0, 0, nil, fmt.Errorf("graph: negative edge count in header")
	}
	// A simple graph on n vertices holds at most n(n-1) arcs (half that
	// undirected, but the looser bound is enough to unmask forged counts
	// before any allocation happens).
	if maxM := int64(n) * int64(n-1); m > maxM {
		return false, 0, 0, nil, fmt.Errorf("graph: header edge count %d impossible for %d vertices", m, n)
	}
	return directed, n, m, crc, nil
}

// readBinaryEdges reads exactly m records in chunks. Allocation stays
// proportional to bytes actually delivered: one chunk of speculative
// capacity at most, with the edge slice growing by append as records
// arrive, so a forged m on a tiny file fails at the first short read.
func readBinaryEdges(r *bufio.Reader, n int, m int64, crc hash.Hash32) ([]Edge, error) {
	if err := faultinject.Hit(faultinject.SiteGraphIOEdges); err != nil {
		return nil, err
	}
	capHint := m
	if capHint > edgeChunk {
		capHint = edgeChunk
	}
	edges := make([]Edge, 0, capHint)
	buf := make([]byte, 0, min64(m, edgeChunk)*8)
	for read := int64(0); read < m; {
		cnt := min64(m-read, edgeChunk)
		buf = buf[:cnt*8]
		if err := readFull(r, buf, crc); err != nil {
			return nil, fmt.Errorf("graph: reading edges %d..%d of %d: %w", read, read+cnt, m, err)
		}
		for i := int64(0); i < cnt; i++ {
			u := int32(binary.LittleEndian.Uint32(buf[i*8 : i*8+4]))
			v := int32(binary.LittleEndian.Uint32(buf[i*8+4 : i*8+8]))
			if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: edge %d (%d,%d) outside vertex range [0,%d)", read+i, u, v, n)
			}
			edges = append(edges, Edge{u, v})
		}
		read += cnt
	}
	return edges, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// finishBinary verifies the v2 CRC footer (crc nil means a v1 file, which
// has none) and corroborates the header vertex count against the data that
// actually arrived.
func finishBinary(r *bufio.Reader, n int, nEdges int, crc hash.Hash32) error {
	if crc != nil {
		var foot [4]byte
		if _, err := io.ReadFull(r, foot[:]); err != nil {
			return fmt.Errorf("graph: reading CRC32 footer: %w", err)
		}
		if want, got := binary.LittleEndian.Uint32(foot[:]), crc.Sum32(); want != got {
			return fmt.Errorf("graph: CRC32 mismatch: footer %08x, content %08x", want, got)
		}
	}
	if int64(n) > maxUncorroboratedVertices && int64(n) > vertexSlackPerEdge*(int64(nEdges)+1) {
		return fmt.Errorf("graph: header vertex count %d not plausible for %d edges; use the text format for graphs this sparse", n, nEdges)
	}
	return nil
}

// ReadBinaryUndirected loads an Undirected graph written by WriteBinary
// (either format version). It rejects files whose header marks them
// directed, and treats the stream as untrusted: validated header, range
// checked endpoints, chunked allocation, CRC verification on v2.
func ReadBinaryUndirected(r io.Reader) (*Undirected, error) {
	br := bufio.NewReader(r)
	directed, n, m, crc, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	if directed {
		return nil, fmt.Errorf("graph: binary file is directed, want undirected")
	}
	edges, err := readBinaryEdges(br, n, m, crc)
	if err != nil {
		return nil, err
	}
	if err := finishBinary(br, n, len(edges), crc); err != nil {
		return nil, err
	}
	return NewUndirectedChecked(n, edges)
}

// ReadBinaryDirected loads a Directed graph written by WriteBinary (either
// format version). It rejects files whose header marks them undirected,
// with the same untrusted-input validation as ReadBinaryUndirected.
func ReadBinaryDirected(r io.Reader) (*Directed, error) {
	br := bufio.NewReader(r)
	directed, n, m, crc, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	if !directed {
		return nil, fmt.Errorf("graph: binary file is undirected, want directed")
	}
	edges, err := readBinaryEdges(br, n, m, crc)
	if err != nil {
		return nil, err
	}
	if err := finishBinary(br, n, len(edges), crc); err != nil {
		return nil, err
	}
	return NewDirectedChecked(n, edges)
}
