package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/randx"
)

// TestIndexRoundTrip writes a K=1 portfolio as a v3 snapshot and reads it
// back: the column, the header and every single-source answer must come
// back Float64bits-identical.
func TestIndexRoundTrip(t *testing.T) {
	g := testBA(t, 100, 95)
	v := g.MaxDegreeVertex()
	p, err := BuildPortfolio(g, PortfolioOptions{Landmarks: []int{v}, Mode: DiagExactCG}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPortfolio(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != 1 || got.Primary() != v || got.Mode != p.Mode {
		t.Errorf("header mismatch: K=%d landmarks=%v mode=%v", got.K(), got.Landmarks, got.Mode)
	}
	for i := range p.Cols[0] {
		if math.Float64bits(got.Cols[0][i]) != math.Float64bits(p.Cols[0][i]) {
			t.Fatalf("column[%d] changed: %v vs %v", i, got.Cols[0][i], p.Cols[0][i])
		}
	}
	// The loaded index must answer single-source queries identically.
	s := (v + 1) % g.N()
	a, err := p.Index(0).SingleSource(s, SingleSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Index(0).SingleSource(s, SingleSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("single-source diverged at %d", i)
		}
	}
}

func TestIndexSaveLoadFile(t *testing.T) {
	g := testBA(t, 60, 96)
	p, err := BuildPortfolio(g, PortfolioOptions{Landmarks: []int{0}, Mode: DiagMC, WalksPerVertex: 8}, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := SavePortfolio(p, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPortfolio(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != 1 || got.Primary() != 0 || got.Mode != DiagMC {
		t.Errorf("loaded header: K=%d landmarks=%v mode=%v", got.K(), got.Landmarks, got.Mode)
	}
	if _, err := LoadPortfolio(filepath.Join(t.TempDir(), "missing.bin"), g); err == nil {
		t.Error("missing file accepted")
	}
}

// v2Fixture is a single-landmark v2 snapshot written by the retired v2
// writer: an exact index of the corpus graph ba_120_2_weighted at its
// max-degree vertex.
const (
	v2Fixture      = "../../testdata/snapshots/ba_120_2_weighted.v2.snap"
	v2FixtureGraph = "../../testdata/corpus/ba_120_2_weighted.edges"
)

// TestIndexReadRejectsBadInput drives ReadPortfolio with damaged v2 and v3
// snapshots; every defect must surface as its typed ErrSnapshot* cause.
func TestIndexReadRejectsBadInput(t *testing.T) {
	g, _, err := graph.LoadEdgeList(v2FixtureGraph)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPortfolio(strings.NewReader("not an index!"), g); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("garbage: err = %v, want ErrSnapshotCorrupt", err)
	}
	v2, err := os.ReadFile(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPortfolio(g, PortfolioOptions{Landmarks: []int{0, 7}, Mode: DiagExactCG}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// landmarkAt is the byte offset of the (first) stored landmark.
	for _, c := range []struct {
		name       string
		snap       []byte
		landmarkAt int
	}{
		{"v2", v2, 16},
		{"v3", buf.Bytes(), 48},
	} {
		snap := c.snap
		mutate := func(f func(b []byte)) []byte {
			b := append([]byte(nil), snap...)
			f(b)
			return b
		}
		expect := func(what string, b []byte, gr *graph.Graph, want error) {
			t.Helper()
			if _, err := ReadPortfolio(bytes.NewReader(b), gr); !errors.Is(err, want) {
				t.Errorf("%s %s: err = %v, want %v", c.name, what, err, want)
			}
		}
		if _, err := ReadPortfolio(bytes.NewReader(snap), g); err != nil {
			t.Fatalf("%s: intact snapshot rejected: %v", c.name, err)
		}
		// Wrong graph size, and same size but a different graph: the
		// fingerprint must catch the latter.
		expect("size mismatch", snap, testBA(t, 50, 98), ErrSnapshotMismatch)
		if sameSize := testBA(t, g.N(), 99); sameSize.N() == g.N() {
			expect("fingerprint mismatch", snap, sameSize, ErrSnapshotMismatch)
		}
		// Truncation anywhere in the stream.
		for _, cut := range []int{4, 20, len(snap) / 2, len(snap) - 3} {
			expect("truncated", snap[:cut], g, ErrSnapshotCorrupt)
		}
		expect("bad magic", mutate(func(b []byte) { b[0] = 'X' }), g, ErrSnapshotCorrupt)
		// A flipped payload bit must fail the checksum.
		expect("bit flip", mutate(func(b []byte) { b[len(b)/2] ^= 0x40 }), g, ErrSnapshotChecksum)
		// The retired v1 magic, unknown versions and unknown flags are
		// version errors.
		expect("v1 magic", mutate(func(b []byte) { b[6] = '1' }), g, ErrSnapshotVersion)
		expect("future version", mutate(func(b []byte) { b[8] = 99 }), g, ErrSnapshotVersion)
		expect("flags", mutate(func(b []byte) { b[12] = 1 }), g, ErrSnapshotVersion)
		for _, lm := range []int64{-1, int64(g.N())} {
			expect("landmark out of range", mutate(func(b []byte) {
				binary.LittleEndian.PutUint64(b[c.landmarkAt:], uint64(lm))
			}), g, ErrSnapshotCorrupt)
		}
	}
	// v3 only: a duplicated landmark and a k outside [1, n].
	v3 := buf.Bytes()
	dup := append([]byte(nil), v3...)
	copy(dup[56:64], dup[48:56])
	if _, err := ReadPortfolio(bytes.NewReader(dup), g); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("duplicate landmark: err = %v, want ErrSnapshotCorrupt", err)
	}
	for _, k := range []int64{0, int64(g.N()) + 1} {
		bad := append([]byte(nil), v3...)
		binary.LittleEndian.PutUint64(bad[16:], uint64(k))
		if _, err := ReadPortfolio(bytes.NewReader(bad), g); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("k=%d: err = %v, want ErrSnapshotCorrupt", k, err)
		}
	}
}

// TestReadPortfolioHeaderAllocation feeds the reader a bare 48-byte v3
// header that claims k = n landmarks and carries the graph's real
// fingerprint, so it passes every header check before the stream ends.
// The reader must not size anything from the untrusted k: it may allocate
// its buffers, but not k landmarks, k column headers or a k-entry set.
func TestReadPortfolioHeaderAllocation(t *testing.T) {
	const n = 1 << 17
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var hdr bytes.Buffer
	hdr.Write(portfolioMagic[:])
	for _, v := range []any{portfolioVersion, uint32(0), int64(n), int64(DiagExactCG), int64(n), g.Fingerprint()} {
		binary.Write(&hdr, binary.LittleEndian, v)
	}
	raw := hdr.Bytes()
	if len(raw) != 48 {
		t.Fatalf("header is %d bytes, want 48", len(raw))
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadPortfolio(bytes.NewReader(raw), g); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("header-only stream: err = %v, want ErrSnapshotCorrupt", err)
		}
	}
	runtime.ReadMemStats(&after)
	// A k-sized allocation would be ≥ 8·n bytes = 1 MiB per read.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
		t.Errorf("header-only read allocated %d bytes, want ≤ 64 KiB", per)
	}
}
