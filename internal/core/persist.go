package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc64"
	"io"
	"math"
	"os"

	"landmarkrd/internal/graph"
)

// Portfolio persistence: a versioned, checksummed binary format so an
// expensive column build (DiagMC on a poor expander, DiagExactCG anywhere)
// can be reused across processes and hot-reloaded into a running server.
// Only v3 is written. Layout (little endian):
//
//	magic       [8]byte  "LRDIDX3\n"
//	version     uint32   (3)
//	flags       uint32   (reserved, must be 0)
//	k           int64    number of landmarks
//	mode        int64
//	n           int64
//	fingerprint uint64   Graph.Fingerprint() of the build graph
//	landmarks   k × int64
//	cols        k × n × float64   column-major: all of column 0, then 1, …
//	crc         uint64   CRC-64/ECMA over every preceding byte
//
// The fingerprint pins the snapshot to the exact graph it was built from —
// loading against a different graph of the same size is rejected rather
// than silently producing wrong resistances — and the trailing CRC detects
// corruption and truncation anywhere in the stream.
//
// The retired single-landmark v2 format stays readable: ReadPortfolio
// recognizes its magic and upgrades the stream to a K=1 portfolio. Its
// layout is
//
//	magic "LRDIDX2\n", version uint32 (2), flags uint32 (0),
//	landmark int64, mode int64, n int64, fingerprint uint64,
//	diag n × float64, crc uint64.

var (
	portfolioMagic = [8]byte{'L', 'R', 'D', 'I', 'D', 'X', '3', '\n'}
	// indexMagicV2 is the magic of the read-only single-landmark format.
	indexMagicV2 = [8]byte{'L', 'R', 'D', 'I', 'D', 'X', '2', '\n'}
	// indexMagicV1 is the magic of the retired unchecksummed v1 format; it
	// is recognized only to produce a version error instead of a
	// corruption error.
	indexMagicV1 = [8]byte{'L', 'R', 'D', 'I', 'D', 'X', '1', '\n'}
)

// Snapshot format versions: the one written, and the read-only v2.
const (
	portfolioVersion uint32 = 3
	indexVersionV2   uint32 = 2
)

// Typed snapshot rejection errors. ReadPortfolio wraps them with detail;
// match with errors.Is.
var (
	// ErrSnapshotCorrupt marks a stream that is not an index snapshot or is
	// structurally broken (bad magic, truncation, nonsense header fields).
	ErrSnapshotCorrupt = errors.New("core: index snapshot corrupt")
	// ErrSnapshotVersion marks a snapshot written by an incompatible format
	// version (including the retired v1 format).
	ErrSnapshotVersion = errors.New("core: index snapshot version unsupported")
	// ErrSnapshotChecksum marks a snapshot whose trailing CRC does not match
	// its contents: bit rot or a partially written file.
	ErrSnapshotChecksum = errors.New("core: index snapshot checksum mismatch")
	// ErrSnapshotMismatch marks a well-formed snapshot that was built from a
	// different graph than the one it is being loaded against.
	ErrSnapshotMismatch = errors.New("core: index snapshot built from a different graph")
)

// crcTable is the CRC-64/ECMA table the snapshot trailer uses.
var crcTable = crc64.MakeTable(crc64.ECMA)

// WriteTo serializes the portfolio in the v3 snapshot format. It
// implements io.WriterTo.
func (p *Portfolio) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	sum := crc64.New(crcTable)
	// Everything except the trailer goes through the checksum.
	body := io.MultiWriter(bw, sum)
	var written int64
	write := func(v any) error {
		if err := binary.Write(body, binary.LittleEndian, v); err != nil {
			return err
		}
		written += int64(binary.Size(v))
		return nil
	}
	fail := func(err error) (int64, error) {
		return written, fmt.Errorf("core: writing portfolio: %w", err)
	}
	if err := write(portfolioMagic); err != nil {
		return fail(err)
	}
	if err := write(portfolioVersion); err != nil {
		return fail(err)
	}
	if err := write(uint32(0)); err != nil { // flags
		return fail(err)
	}
	n := p.G.N()
	for _, v := range []int64{int64(len(p.Landmarks)), int64(p.Mode), int64(n)} {
		if err := write(v); err != nil {
			return fail(err)
		}
	}
	if err := write(p.G.Fingerprint()); err != nil {
		return fail(err)
	}
	for _, v := range p.Landmarks {
		if err := write(int64(v)); err != nil {
			return fail(err)
		}
	}
	for _, col := range p.Cols {
		if err := write(col); err != nil {
			return fail(err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, sum.Sum64()); err != nil {
		return fail(err)
	}
	written += 8
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	return written, nil
}

// SavePortfolio writes the portfolio snapshot to a file.
func SavePortfolio(p *Portfolio, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	if _, err := p.WriteTo(f); err != nil {
		return err
	}
	return f.Close()
}

// checksumReader hashes every byte it hands out so the reader can verify
// the trailer CRC after consuming the body.
type checksumReader struct {
	r   io.Reader
	sum hash.Hash64
}

func (c *checksumReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.sum.Write(p[:n])
	}
	return n, err
}

// readChunk is the number of float64s readFloats decodes per read.
const readChunk = 4096

// readFloats reads n little-endian float64s. The result grows by doubling
// (capped at n) as data arrives, so a stream that claims more values than
// it holds costs at most twice the bytes it actually carries, never n
// floats up front.
func readFloats(r io.Reader, n int64) ([]float64, error) {
	out := make([]float64, 0, min(n, readChunk))
	var buf [8 * readChunk]byte
	for int64(len(out)) < n {
		m := int(min(n-int64(len(out)), readChunk))
		if _, err := io.ReadFull(r, buf[:8*m]); err != nil {
			return nil, err
		}
		if need := len(out) + m; need > cap(out) {
			grown := make([]float64, len(out), min(n, 2*int64(need)))
			copy(grown, out)
			out = grown
		}
		for i := 0; i < m; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
		}
	}
	return out, nil
}

// ReadPortfolio deserializes a portfolio snapshot and binds it to g,
// validating the stored dimensions, the graph fingerprint, and the
// trailing checksum. A v2 single-landmark snapshot is accepted and
// upgraded to a K=1 portfolio, so pre-portfolio snapshot files keep
// working. Rejections carry a typed cause: ErrSnapshotCorrupt,
// ErrSnapshotVersion, ErrSnapshotChecksum, or ErrSnapshotMismatch.
func ReadPortfolio(r io.Reader, g *graph.Graph) (*Portfolio, error) {
	cr := &checksumReader{r: bufio.NewReader(r), sum: crc64.New(crcTable)}
	var magic [8]byte
	if err := binary.Read(cr, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrSnapshotCorrupt, err)
	}
	switch magic {
	case indexMagicV1:
		return nil, fmt.Errorf("%w: v1 snapshot (rebuild the index to upgrade)", ErrSnapshotVersion)
	case indexMagicV2:
		return readBody(cr, g, indexVersionV2)
	case portfolioMagic:
		return readBody(cr, g, portfolioVersion)
	default:
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupt, magic[:])
	}
}

// readBody parses a v2 or v3 snapshot after the magic has been consumed.
// The two layouts differ only in the header: v3 stores k and a landmark
// list, v2 a single landmark ahead of the mode.
func readBody(cr *checksumReader, g *graph.Graph, version uint32) (*Portfolio, error) {
	var stored, flags uint32
	if err := binary.Read(cr, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrSnapshotCorrupt, err)
	}
	if stored != version {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrSnapshotVersion, stored, version)
	}
	if err := binary.Read(cr, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("%w: reading flags: %v", ErrSnapshotCorrupt, err)
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrSnapshotVersion, flags)
	}
	// v3: k, mode, n. v2: landmark, mode, n (k is 1).
	var first, mode, n int64
	for _, p := range []*int64{&first, &mode, &n} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: reading header: %v", ErrSnapshotCorrupt, err)
		}
	}
	if n != int64(g.N()) {
		return nil, fmt.Errorf("%w: snapshot built for n=%d, graph has n=%d", ErrSnapshotMismatch, n, g.N())
	}
	k := first
	if version == indexVersionV2 {
		k = 1
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: stored k=%d out of range [1, %d]", ErrSnapshotCorrupt, k, n)
	}
	var fp uint64
	if err := binary.Read(cr, binary.LittleEndian, &fp); err != nil {
		return nil, fmt.Errorf("%w: reading fingerprint: %v", ErrSnapshotCorrupt, err)
	}
	if fp != g.Fingerprint() {
		return nil, fmt.Errorf("%w: fingerprint %#x, graph has %#x", ErrSnapshotMismatch, fp, g.Fingerprint())
	}
	// Landmarks and columns grow as entries are read: the header's k is
	// untrusted until the checksum verifies, so it must not size anything.
	var landmarks []int
	if version == indexVersionV2 {
		landmarks = []int{int(first)}
	} else {
		seen := make(map[int64]bool)
		for j := int64(0); j < k; j++ {
			var v int64
			if err := binary.Read(cr, binary.LittleEndian, &v); err != nil {
				return nil, fmt.Errorf("%w: reading landmarks: %v", ErrSnapshotCorrupt, err)
			}
			if seen[v] {
				return nil, fmt.Errorf("%w: duplicate stored landmark %d", ErrSnapshotCorrupt, v)
			}
			seen[v] = true
			landmarks = append(landmarks, int(v))
		}
	}
	for _, v := range landmarks {
		if v < 0 || int64(v) >= n {
			return nil, fmt.Errorf("%w: stored landmark %d out of range [0, %d)", ErrSnapshotCorrupt, v, n)
		}
	}
	var cols [][]float64
	for j := range landmarks {
		col, err := readFloats(cr, n)
		if err != nil {
			return nil, fmt.Errorf("%w: reading column %d: %v", ErrSnapshotCorrupt, j, err)
		}
		cols = append(cols, col)
	}
	want := cr.sum.Sum64()
	var got uint64
	// The trailer itself is not checksummed: read it from the underlying
	// reader, not through cr.
	if err := binary.Read(cr.r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: reading checksum trailer: %v", ErrSnapshotCorrupt, err)
	}
	if got != want {
		return nil, fmt.Errorf("%w: stored %#x, computed %#x", ErrSnapshotChecksum, got, want)
	}
	return NewPortfolio(g, DiagMode(mode), landmarks, cols), nil
}

// LoadPortfolio reads a portfolio snapshot file (v3, or a v2 index file
// upgraded to K=1) and binds it to g.
func LoadPortfolio(path string, g *graph.Graph) (*Portfolio, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return ReadPortfolio(f, g)
}
