package main

import (
	"math"
	"testing"

	landmarkrd "landmarkrd"
)

func newTestChecker(t *testing.T) (*checker, *landmarkrd.Graph) {
	t.Helper()
	g, err := landmarkrd.Grid(6, 6, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lms, err := selectLandmarks(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newChecker(g, lms, tolerance{rel: 1.0, abs: 0.02, p99Rel: 0.4, bias: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func TestCheckerAcceptsOracleAnswers(t *testing.T) {
	c, g := newTestChecker(t)
	for s := 0; s < g.N(); s += 5 {
		for u := 1; u < g.N(); u += 7 {
			if s == u {
				continue
			}
			r, err := landmarkrd.Exact(g, s, u)
			if err != nil {
				t.Fatal(err)
			}
			c.pair(s, u, r*(1+0.01*float64((s+u)%3-1))) // small unbiased noise
		}
	}
	fp := g.Fingerprint()
	c.version(&fp)
	c.finish()
	if c.failures != 0 {
		t.Fatalf("%d failures on oracle answers: %v", c.failures, c.first)
	}
	if e := c.meanAbsErr(); e <= 0 || e > 0.05 {
		t.Errorf("mean abs error %v", e)
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	r01, _ := landmarkrd.Exact(mustGrid(t), 0, 1)
	for name, feed := range map[string]func(c *checker){
		"far off":    func(c *checker) { c.pair(0, 1, 3*r01) },
		"negative":   func(c *checker) { c.pair(0, 1, -r01) },
		"nan":        func(c *checker) { c.pair(0, 1, math.NaN()) },
		"version":    func(c *checker) { v := uint64(1); c.version(&v) },
		"no version": func(c *checker) { c.version(nil) },
		"biased": func(c *checker) {
			g := mustGrid(t)
			for s := 0; s < g.N(); s++ {
				r, _ := landmarkrd.Exact(g, s, (s+7)%g.N())
				c.pair(s, (s+7)%g.N(), 1.05*r)
			}
		},
		"single row": func(c *checker) {
			row, _ := c.orc.SingleSource(3)
			row[10] *= 1.001
			c.single(3, c.landmarks[0], row)
		},
		"single landmark": func(c *checker) {
			row, _ := c.orc.SingleSource(3)
			c.single(3, 3, row) // vertex 3 is not a landmark
		},
	} {
		c, _ := newTestChecker(t)
		feed(c)
		c.finish()
		if c.failures == 0 {
			t.Errorf("%s: the gate accepted a wrong answer", name)
		}
	}
}

func TestCheckerRouting(t *testing.T) {
	c, _ := newTestChecker(t)
	c.shards = map[string][]int{"a": c.landmarks[:2], "b": c.landmarks[2:]}
	s, u := 0, 35
	owners := c.costOwners(s, u)
	var good, bad string
	for name := range c.shards {
		if owners[name] {
			good = name
		} else {
			bad = name
		}
	}
	if good == "" {
		t.Fatal("no cost-law owner")
	}
	c.routing(&pairReply{S: s, T: u, Cache: "miss", Replica: good, Landmark: c.shards[good][0]})
	if c.failures != 0 {
		t.Fatalf("correct routing rejected: %v", c.first)
	}
	if bad != "" {
		c.routing(&pairReply{S: s, T: u, Cache: "miss", Replica: bad, Landmark: c.shards[bad][0]})
		if c.failures != 1 {
			t.Errorf("routing to %s, not the cost-law owner, was accepted", bad)
		}
	}
	c.routing(&pairReply{S: s, T: u, Cache: "miss", Replica: good, Landmark: -1})
	if c.failures == 0 {
		t.Error("a landmark outside the replica's shard was accepted")
	}
}

func mustGrid(t *testing.T) *landmarkrd.Graph {
	t.Helper()
	g, err := landmarkrd.Grid(6, 6, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckerTightToleranceRejectsWhatWideAccepts(t *testing.T) {
	c, _ := newTestChecker(t)
	r01, _ := c.orc.Resistance(0, 1)
	c.pair(0, 1, 1.5*r01)
	if c.failures != 0 {
		t.Fatalf("the wide band rejected an answer 50%% off: %v", c.first)
	}
	c.tol = workloadTol(t, "pair-zipf-ba")
	c.pair(0, 1, 1.5*r01)
	if c.failures != 1 {
		t.Errorf("pair-zipf-ba's band accepted an answer 50%% off")
	}
}

func TestCheckerCachedRepliesRepeatComputedValues(t *testing.T) {
	c, _ := newTestChecker(t)
	c.shards = map[string][]int{"a": c.landmarks}
	r01, _ := c.orc.Resistance(0, 1)
	r02, _ := c.orc.Resistance(0, 2)
	miss := func(s, u int, v float64) *pairReply {
		return &pairReply{S: s, T: u, Value: v, Cache: "miss", Replica: "a", Landmark: c.landmarks[0]}
	}
	// A shared reply may be read before its leader's miss; a hit may name
	// the pair the other way round.
	c.proxyReplies([]*pairReply{
		{S: 0, T: 1, Value: 1.01 * r01, Cache: "shared"},
		miss(0, 1, 1.01*r01),
		{S: 1, T: 0, Value: 1.01 * r01, Cache: "hit"},
	})
	if c.failures != 0 {
		t.Fatalf("cached repeats of a computed value rejected: %v", c.first)
	}
	c.proxyReplies([]*pairReply{{S: 0, T: 1, Value: 1.01 * r01, Cache: "hit"}})
	if c.failures != 0 {
		t.Fatalf("a hit repeating a miss of an earlier batch of replies rejected: %v", c.first)
	}
	for name, p := range map[string]*pairReply{
		"stale":        {S: 0, T: 1, Value: 1.02 * r01, Cache: "hit"},
		"other key":    {S: 0, T: 1, Value: r02, Cache: "hit"},
		"never missed": {S: 0, T: 2, Value: r02, Cache: "hit"},
		"no outcome":   {S: 0, T: 2, Value: r02},
	} {
		before := c.failures
		c.proxyReplies([]*pairReply{p})
		if c.failures == before {
			t.Errorf("%s: the gate accepted a cached reply %+v", name, *p)
		}
	}
	c.newFleet(c.shards)
	before := c.failures
	c.proxyReplies([]*pairReply{{S: 0, T: 1, Value: 1.01 * r01, Cache: "hit"}})
	if c.failures == before {
		t.Error("a fresh fleet's hit matched a value the previous fleet computed")
	}
	if n := len(c.computed); n != 1 {
		t.Errorf("%d computed answers recorded, want 1 (hits are not computed)", n)
	}
}

func workloadTol(t *testing.T, name string) tolerance {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.tol
}
