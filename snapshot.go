package landmarkrd

import (
	"io"

	"landmarkrd/internal/core"
)

// Index snapshots: a PortfolioIndex serializes to a versioned, checksummed
// binary format (PortfolioIndex.WriteTo, an io.WriterTo, writing format
// v3: magic "LRDIDX3\n", K landmark columns, a graph fingerprint and a
// CRC-64 trailer) and loads back with ReadPortfolioFrom /
// LoadPortfolioIndex. The fingerprint binds a snapshot to the exact graph
// it was built from; a reloaded portfolio answers every query
// Float64bits-identically to the freshly built one. The retired
// single-landmark v2 format is read-only: the loaders upgrade a v2 file to
// a K=1 portfolio, so existing snapshot files keep working. rdserver uses
// snapshots for fast startup and SIGHUP hot-reload; rdbench and rdquery
// can write and reuse them via -snapshot.

// Typed snapshot rejection errors, matched with errors.Is against the error
// ReadPortfolioFrom / LoadPortfolioIndex return.
var (
	// ErrSnapshotCorrupt: not a snapshot, truncated, or structurally broken.
	ErrSnapshotCorrupt = core.ErrSnapshotCorrupt
	// ErrSnapshotVersion: written by an incompatible format version.
	ErrSnapshotVersion = core.ErrSnapshotVersion
	// ErrSnapshotChecksum: contents do not match the trailing CRC.
	ErrSnapshotChecksum = core.ErrSnapshotChecksum
	// ErrSnapshotMismatch: built from a different graph than the one given.
	ErrSnapshotMismatch = core.ErrSnapshotMismatch
)

// ReadPortfolioFrom deserializes a portfolio snapshot (v3, or v2 upgraded
// to K=1) from r and binds it to g, verifying the format version, the
// trailing checksum, and that the snapshot was built from exactly g (graph
// fingerprint). Failures match one of the ErrSnapshot* sentinels.
func ReadPortfolioFrom(r io.Reader, g *Graph) (*PortfolioIndex, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return core.ReadPortfolio(r, g)
}

// SavePortfolioIndex writes the portfolio snapshot (v3) to a file.
func SavePortfolioIndex(p *PortfolioIndex, path string) error {
	return core.SavePortfolio(p, path)
}

// LoadPortfolioIndex reads a portfolio snapshot file (v3, or v2 upgraded
// to K=1) and binds it to g, with the same verification as
// ReadPortfolioFrom.
func LoadPortfolioIndex(path string, g *Graph) (*PortfolioIndex, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return core.LoadPortfolio(path, g)
}
