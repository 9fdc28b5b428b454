package main

import (
	"fmt"
	"math"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/oracle"
)

// tolerance bounds a workload's pair answers against the oracle. Answers
// come from BiPush, a Monte Carlo estimator whose error depends on the
// graph, so each workload sets its own bounds from the error it measured
// (workloads.go). Every computed answer must lie inside the band, and the
// computed answers together must be unbiased with a small 99th-percentile
// relative error.
type tolerance struct {
	rel, abs float64 // per answer: |answer − r| ≤ rel·r + abs
	p99Rel   float64 // 99th percentile of |answer − r| / r
	bias     float64 // |Σ(answer − r)| / Σ r
}

// Single-source rows come from exact CG columns and are checked tightly.
// tieRel is how close two cost-law scores must be for either owner to
// count as the cost-law choice: the oracle and the servers' CG columns
// agree to about 1e-9, so closer scores cannot be ordered from outside.
const (
	singleRelTol = 1e-6
	tieRel       = 1e-6
)

// checker is the correctness gate: every answer is compared with the dense
// oracle of the generated graph, every reply's routing fields with the
// deployment the benchmark derived in-process, and every cached answer
// with the answers the proxy computed.
type checker struct {
	orc       *oracle.Oracle
	fp        uint64
	tol       tolerance
	landmarks []int            // the fleet portfolio
	shards    map[string][]int // replica URL → its landmarks

	checked  int
	computed [][2]float64       // every computed answer and its oracle value
	served   map[pair][]float64 // the values the current fleet's proxy computed, per unordered pair
	failures int
	first    []string // the first few failures, for the log
}

func newChecker(g *landmarkrd.Graph, landmarks []int, tol tolerance) (*checker, error) {
	orc, err := oracle.New(g)
	if err != nil {
		return nil, err
	}
	return &checker{orc: orc, fp: g.Fingerprint(), tol: tol, landmarks: landmarks, served: map[pair][]float64{}}, nil
}

// newFleet points the routing checks at a freshly launched fleet and
// forgets what the previous fleet's cache could hold.
func (c *checker) newFleet(shards map[string][]int) {
	c.shards = shards
	c.served = map[pair][]float64{}
}

func (c *checker) fail(format string, args ...any) {
	c.failures++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// withinBand reports whether an estimate v of the exact resistance r lies
// inside the per-answer band.
func (t tolerance) withinBand(v, r float64) bool {
	return math.Abs(v-r) <= t.rel*r+t.abs
}

func validValue(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

func unordered(s, t int) pair { return pair{min(s, t), max(s, t)} }

// pair checks one computed answer, from a replica or the in-process
// engine, against the oracle.
func (c *checker) pair(s, t int, v float64) {
	if !validValue(v) {
		c.fail("r(%d,%d) = %v is not a finite non-negative number", s, t, v)
		return
	}
	r, err := c.orc.Resistance(s, t)
	if err != nil {
		c.fail("oracle r(%d,%d): %v", s, t, err)
		return
	}
	c.checked++
	c.computed = append(c.computed, [2]float64{v, r})
	if !c.tol.withinBand(v, r) {
		c.fail("r(%d,%d) = %.6g, oracle %.6g", s, t, v, r)
	}
}

// proxyReplies checks the pair entries of proxy replies: first every miss
// (a value a replica computed), then every cache hit and shared flight,
// which must repeat exactly a value the proxy computed for the same pair
// earlier in this fleet's life. The misses go first because a shared
// reply can finish before its leader's.
func (c *checker) proxyReplies(ps []*pairReply) {
	for _, p := range ps {
		if p.Cache != "miss" {
			continue
		}
		c.routing(p)
		c.pair(p.S, p.T, p.Value)
		key := unordered(p.S, p.T)
		c.served[key] = append(c.served[key], p.Value)
	}
	for _, p := range ps {
		switch p.Cache {
		case "miss":
		case "hit", "shared":
			c.checked++
			if !containsFloat(c.served[unordered(p.S, p.T)], p.Value) {
				c.fail("cached r(%d,%d) = %.9g is no value the proxy computed for the pair %v", p.S, p.T, p.Value, c.served[unordered(p.S, p.T)])
			}
		default:
			c.fail("pair (%d,%d) reply has cache outcome %q", p.S, p.T, p.Cache)
		}
	}
}

// version checks a proxy reply's graph_version against the generated
// graph's fingerprint.
func (c *checker) version(v *uint64) {
	if v == nil {
		c.fail("reply carries no graph_version")
		return
	}
	if *v != c.fp {
		c.fail("graph_version %#x, generated graph %#x", *v, c.fp)
	}
}

// costOwners returns the replicas whose cheapest owned landmark has the
// lowest cost-law score r(s,ℓ)+r(t,ℓ) for the pair, counting scores
// within tieRel of the best as ties.
func (c *checker) costOwners(s, t int) map[string]bool {
	best := map[string]float64{}
	for replica, lms := range c.shards {
		best[replica] = math.Inf(1)
		for _, l := range lms {
			rs, _ := c.orc.Resistance(s, l)
			rt, _ := c.orc.Resistance(t, l)
			best[replica] = math.Min(best[replica], rs+rt)
		}
	}
	low := math.Inf(1)
	for _, v := range best {
		low = math.Min(low, v)
	}
	out := map[string]bool{}
	for replica, v := range best {
		if v <= low*(1+tieRel) {
			out[replica] = true
		}
	}
	return out
}

// routing checks a cache-miss reply from the proxy: the replica that
// answered is a cost-law owner of the pair and the landmark it reports is
// one of its own.
func (c *checker) routing(p *pairReply) {
	lms, ok := c.shards[p.Replica]
	if !ok {
		c.fail("pair (%d,%d) answered by unknown replica %q", p.S, p.T, p.Replica)
		return
	}
	if !contains(lms, p.Landmark) {
		c.fail("pair (%d,%d): landmark %d is not in %s's shard %v", p.S, p.T, p.Landmark, p.Replica, lms)
	}
	if p.Failovers == 0 && !c.costOwners(p.S, p.T)[p.Replica] {
		c.fail("pair (%d,%d) answered by %s, not the cost-law owner", p.S, p.T, p.Replica)
	}
}

// single checks a single-source row against the oracle and the landmark
// that served it against the portfolio's cost law r(s,ℓ).
func (c *checker) single(s int, landmark int, values []float64) {
	want, err := c.orc.SingleSource(s)
	if err != nil {
		c.fail("oracle row %d: %v", s, err)
		return
	}
	if len(values) != len(want) {
		c.fail("single-source %d: %d values, want %d", s, len(values), len(want))
		return
	}
	for t, v := range values {
		if !validValue(v) || math.Abs(v-want[t]) > singleRelTol*math.Max(want[t], 1) {
			c.fail("single-source r(%d,%d) = %.9g, oracle %.9g", s, t, v, want[t])
			return
		}
	}
	low := math.Inf(1)
	for _, l := range c.landmarks {
		r, _ := c.orc.Resistance(s, l)
		low = math.Min(low, r)
	}
	if !contains(c.landmarks, landmark) {
		c.fail("single-source %d served by landmark %d outside the portfolio %v", s, landmark, c.landmarks)
		return
	}
	if r, _ := c.orc.Resistance(s, landmark); r > low*(1+tieRel)+1e-12 {
		c.fail("single-source %d served by landmark %d (r=%.6g), cheapest is r=%.6g", s, landmark, r, low)
	}
}

// meanAbsErr is the mean |answer − oracle| over computed answers. Cached
// repeats are left out (the gate holds them equal to a computed answer),
// so a popular pair counts once per computation, not once per request.
func (c *checker) meanAbsErr() float64 {
	total := 0.0
	for _, a := range c.computed {
		total += math.Abs(a[0] - a[1])
	}
	return ratio(total, float64(len(c.computed)))
}

// bias is the aggregate relative error Σ(answer − oracle)/Σ oracle over
// computed answers.
func (c *checker) bias() float64 {
	var diff, total float64
	for _, a := range c.computed {
		diff += a[0] - a[1]
		total += a[1]
	}
	return ratio(diff, total)
}

// relErrs returns |answer − oracle|/oracle of every computed answer.
func (c *checker) relErrs() []float64 {
	var out []float64
	for _, a := range c.computed {
		out = append(out, math.Abs(a[0]-a[1])/a[1])
	}
	return out
}

// finish applies the aggregate checks over all computed answers.
func (c *checker) finish() {
	if len(c.computed) == 0 {
		return
	}
	if b := c.bias(); math.Abs(b) > c.tol.bias {
		c.fail("answers are biased by %.2f%% against the oracle (limit %.1f%%)", 100*b, 100*c.tol.bias)
	}
	errs := c.relErrs()
	if p := highestPercentile(len(errs)); p >= 99 {
		if v, _ := percentile(errs, 99); v > c.tol.p99Rel {
			c.fail("99th-percentile relative error %.3f exceeds %.2f", v, c.tol.p99Rel)
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsFloat(xs []float64, x float64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
