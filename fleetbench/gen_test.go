package main

import (
	"math"
	"reflect"
	"testing"

	landmarkrd "landmarkrd"
)

func TestZipfPairsDeterministicAndSkewed(t *testing.T) {
	u, err := pairUniverse(newRNG(3, streamUniverse), 500, 20000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[pair]bool{}
	for _, p := range u {
		if p.S == p.T {
			t.Fatalf("self pair %v in the universe", p)
		}
		k := pair{min(p.S, p.T), max(p.S, p.T)}
		if seen[k] {
			t.Fatalf("pair %v drawn twice", p)
		}
		seen[k] = true
	}
	draw := func(seed uint64) []pair {
		zp := newZipfPairs(newRNG(seed, streamWarm), u, 1.1)
		out := make([]pair, 20000)
		for i := range out {
			out[i] = zp.next()
		}
		return out
	}
	a, b := draw(1), draw(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different Zipf draws")
	}
	count := map[pair]int{}
	for _, p := range a {
		count[p]++
	}
	// Zipf(1.1) with v=1: P(rank 0)/P(rank 1) = 2^1.1.
	if r := float64(count[u[0]]) / float64(count[u[1]]); math.Abs(r-math.Pow(2, 1.1)) > 0.35 {
		t.Errorf("rank 0 / rank 1 frequency %v, want about %v", r, math.Pow(2, 1.1))
	}
	reqs := make([]request, len(a))
	for i, p := range a {
		reqs[i] = request{kind: kindPair, p: p}
	}
	if s := repeatShare(reqs); s < 0.5 || s > 0.95 {
		t.Errorf("repeat share %v of a skewed stream is implausible", s)
	}
}

func TestClosedStreamDeterministicPerClient(t *testing.T) {
	g, err := landmarkrd.BarabasiAlbert(1000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		draw := func(seed uint64) [][]request {
			st, err := newStreams(w, g, seed)
			if err != nil {
				t.Fatal(err)
			}
			next := st.closedStream(w, g, seed)
			out := make([][]request, clients)
			for i := 0; i < 50; i++ {
				for k := range out {
					out[k] = append(out[k], next(k))
				}
			}
			return out
		}
		a, b, c := draw(4), draw(4), draw(5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different streams", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same streams", w.name)
		}
		if reflect.DeepEqual(a[0], a[1]) {
			t.Errorf("%s: two clients send the same stream", w.name)
		}
	}
}

func TestUpdateGenKeepsGraphConnected(t *testing.T) {
	g, err := landmarkrd.BarabasiAlbert(1000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	gen := func() []update {
		ug := newUpdateGen(newRNG(11, streamProbe), g)
		out := make([]update, 500)
		for i := range out {
			out[i] = ug.next()
		}
		return out
	}
	a := gen()
	if !reflect.DeepEqual(a, gen()) {
		t.Fatal("same seed gave different updates")
	}
	live := map[pair]bool{} // edges the stream has added and not removed
	adds := 0
	for i, u := range a {
		e := pair{min(u.p.S, u.p.T), max(u.p.S, u.p.T)}
		if u.add {
			adds++
			if g.HasEdge(e.S, e.T) || live[e] {
				t.Errorf("update %d adds existing edge %v", i, e)
			}
			live[e] = true
			continue
		}
		if !live[e] {
			t.Errorf("update %d removes %v, which the stream never added", i, e)
		}
		delete(live, e)
	}
	if adds == 0 || adds == len(a) {
		t.Errorf("%d adds in %d updates: the stream never mixes adds and removals", adds, len(a))
	}
}
