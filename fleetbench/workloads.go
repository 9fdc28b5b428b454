package main

import (
	"fmt"
	"time"

	landmarkrd "landmarkrd"
)

// workload is one benchmark scenario: a graph, the fleet's options and a
// request stream. Every workload runs rdproxy in front of two shard
// replicas. BENCHMARK.md records why each was chosen and how its sizes were
// derived.
type workload struct {
	name      string
	makeGraph func(seed uint64) (*landmarkrd.Graph, error)
	precond   string // rdserver -precond
	batchSize int    // pairs per /v1/batch; 0 sends single Zipf pairs

	universe int     // Zipf pair universe size
	zipfS    float64 // Zipf exponent of pair popularity

	tail  float64       // percentile reported as tail_ms
	slice time.Duration // windows are ranked by host steal in slices this long
	keep  float64       // the least-stolen share of slices the metrics pool
	warm  int           // warm-up pairs, or batches per client

	tol tolerance // the correctness gate's bounds on pair answers
}

// The fleet and load shape every workload shares: the portfolio size, the
// proxy's result-cache entries (fewer than pair-zipf-ba's distinct pairs
// per window, so it evicts) and the closed-loop clients (one per vCPU of
// the reference box).
const (
	portfolioK = 4
	proxyCache = 2048
	clients    = 2
)

// graphSeed generates every workload's graph. The graph is part of the
// workload's definition; the run seed varies the request streams, so the
// spread between runs measures the traffic, not a different graph.
const graphSeed = 2023

var workloads = []*workload{
	{
		name: "pair-zipf-ba",
		makeGraph: func(seed uint64) (*landmarkrd.Graph, error) {
			return landmarkrd.BarabasiAlbert(1000, 4, seed)
		},
		precond:  "jacobi",
		universe: 200000, zipfS: 1.1,
		tail: 99, slice: 500 * time.Millisecond, keep: 0.25, warm: 3000,
		// BiPush on this small-κ graph: relative errors up to 0.09 and a
		// p99 of 0.04 were seen (BENCHMARK.md).
		tol: tolerance{rel: 0.25, abs: 0.002, p99Rel: 0.1, bias: 0.01},
	},
	{
		name: "batch-grid",
		makeGraph: func(seed uint64) (*landmarkrd.Graph, error) {
			return landmarkrd.Grid(16, 16, 0.08, seed)
		},
		precond: "auto", batchSize: 16,
		tail: 90, slice: 2 * time.Second, keep: 2.0 / 3, warm: 2,
		// Random walks on a large-κ graph: relative errors up to 0.51 were
		// seen, so single answers get a wide band and the aggregate checks
		// carry the weight.
		tol: tolerance{rel: 1.0, abs: 0.02, p99Rel: 0.4, bias: 0.02},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// streams holds what a run sends that must be generated before the fleet
// starts; everything comes from the seed alone.
type streams struct {
	universe []pair // Zipf pair universe, most popular first
}

func newStreams(w *workload, g *landmarkrd.Graph, seed uint64) (*streams, error) {
	st := &streams{}
	if w.universe > 0 {
		u, err := pairUniverse(newRNG(seed, streamUniverse), g.N(), w.universe)
		if err != nil {
			return nil, err
		}
		st.universe = u
	}
	return st, nil
}

// warmup returns the untimed requests that fill caches and finish lazy
// set-up before a window: Zipf pairs from their own substream, or a few
// batches per client.
func (st *streams) warmup(w *workload, g *landmarkrd.Graph, seed uint64) []request {
	r := newRNG(seed, streamWarm)
	var out []request
	if w.batchSize > 0 {
		for i := 0; i < w.warm*clients; i++ {
			out = append(out, batchRequest(r, g.N(), w.batchSize))
		}
		return out
	}
	zp := newZipfPairs(r, st.universe, w.zipfS)
	for i := 0; i < w.warm; i++ {
		out = append(out, request{kind: kindPair, p: zp.next()})
	}
	return out
}

func batchRequest(r interface{ IntN(int) int }, n, size int) request {
	rq := request{kind: kindBatch, batch: make([]pair, size)}
	for i := range rq.batch {
		for {
			s, t := r.IntN(n), r.IntN(n)
			if s != t {
				rq.batch[i] = pair{s, t}
				break
			}
		}
	}
	return rq
}

// closedStream returns each client's request source for a timed window:
// batches of uniform pairs, or Zipf pairs, each client from its own
// substream. Every window of a run gets the same streams.
func (st *streams) closedStream(w *workload, g *landmarkrd.Graph, seed uint64) func(k int) request {
	next := make([]func() request, clients)
	for k := range next {
		r := newRNG(seed, streamWindow+k)
		if w.batchSize > 0 {
			next[k] = func() request { return batchRequest(r, g.N(), w.batchSize) }
			continue
		}
		zp := newZipfPairs(r, st.universe, w.zipfS)
		next[k] = func() request { return request{kind: kindPair, p: zp.next()} }
	}
	return func(k int) request { return next[k]() }
}
