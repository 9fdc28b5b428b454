package main

import (
	"fmt"
	"math/rand/v2"

	landmarkrd "landmarkrd"
)

// Substream ids. Every random draw of a run comes from the workload seed
// and one of these ids, so the same seed gives the same inputs.
const (
	streamUniverse = iota + 1
	streamWarm
	streamProbe
	streamWindow // client k draws from streamWindow+k
)

func newRNG(seed uint64, stream int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)))
}

type kind int

const (
	kindPair kind = iota
	kindBatch
)

func (k kind) String() string {
	return [...]string{"pair", "batch"}[k]
}

type pair struct{ S, T int }

// request is one generated request: a pair query or a batch.
type request struct {
	kind  kind
	p     pair   // kindPair
	batch []pair // kindBatch
	// target overrides the client's base URL (the traced run's direct
	// replays to a chosen replica).
	target string
}

// pairUniverse draws size distinct pairs s != t uniformly from n vertices.
// Zipf rank i picks universe[i], so rank 0 is the most popular pair.
func pairUniverse(r *rand.Rand, n, size int) ([]pair, error) {
	if limit := n * (n - 1) / 2; size > limit {
		return nil, fmt.Errorf("pair universe of %d exceeds the %d pairs of %d vertices", size, limit, n)
	}
	seen := make(map[pair]bool, size)
	out := make([]pair, 0, size)
	for len(out) < size {
		p := uniformPair(r, n)
		key := p
		if key.S > key.T {
			key.S, key.T = key.T, key.S
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	return out, nil
}

func uniformPair(r *rand.Rand, n int) pair {
	for {
		s, t := r.IntN(n), r.IntN(n)
		if s != t {
			return pair{s, t}
		}
	}
}

// zipfPairs draws Zipf(s)-popular pairs from a universe.
type zipfPairs struct {
	universe []pair
	z        *rand.Zipf
}

func newZipfPairs(r *rand.Rand, universe []pair, s float64) *zipfPairs {
	return &zipfPairs{universe: universe, z: rand.NewZipf(r, s, 1, uint64(len(universe)-1))}
}

func (zp *zipfPairs) next() pair { return zp.universe[zp.z.Uint64()] }

// update is one edge update of the traced run's in-process live layer.
type update struct {
	p   pair
	add bool // add the edge (true) or remove it
}

// updateGen emits edge updates that keep the graph connected: it adds an
// edge the graph lacks, or removes an edge it added itself earlier, so the
// generated graph is always a subgraph of the live one.
type updateGen struct {
	r     *rand.Rand
	g     *landmarkrd.Graph
	added []pair        // edges currently added, in add order
	live  map[pair]bool // the same edges, for lookups
}

func newUpdateGen(r *rand.Rand, g *landmarkrd.Graph) *updateGen {
	return &updateGen{r: r, g: g, live: map[pair]bool{}}
}

func (u *updateGen) next() update {
	if len(u.added) > 0 && u.r.IntN(2) == 0 {
		i := u.r.IntN(len(u.added))
		e := u.added[i]
		u.added = append(u.added[:i], u.added[i+1:]...)
		delete(u.live, e)
		return update{p: e, add: false}
	}
	for {
		p := uniformPair(u.r, u.g.N())
		if p.S > p.T {
			p.S, p.T = p.T, p.S
		}
		if u.live[p] || u.g.HasEdge(p.S, p.T) {
			continue
		}
		u.added = append(u.added, p)
		u.live[p] = true
		return update{p: p, add: true}
	}
}

// repeatShare is the share of requested pairs whose pair (in either
// orientation) appeared earlier in the same list.
func repeatShare(reqs []request) float64 {
	seen := map[pair]bool{}
	var total, repeats int
	note := func(p pair) {
		if p.S > p.T {
			p.S, p.T = p.T, p.S
		}
		total++
		if seen[p] {
			repeats++
		}
		seen[p] = true
	}
	for _, rq := range reqs {
		switch rq.kind {
		case kindPair:
			note(rq.p)
		case kindBatch:
			for _, p := range rq.batch {
				note(p)
			}
		}
	}
	return ratio(float64(repeats), float64(total))
}
