package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// endToEnd computes the end-to-end metrics of an untraced run's windows,
// one per fresh fleet. Every workload reports the same names; p50_ms and
// tail_ms describe its one request kind (BENCHMARK.md).
func (rs *runState) endToEnd(wrs []*windowResult, setupS float64) (map[string]metric, error) {
	st, stolen, err := rs.mainStats(wrs)
	if err != nil {
		return nil, err
	}
	all, err := rs.partStats(wholeParts(wrs))
	if err != nil {
		return nil, err
	}
	var rss, reqs, steal []float64
	var attempted, failed int
	var fronts []counters
	for _, wr := range wrs {
		rss = append(rss, wr.rssMB)
		attempted += wr.attempted
		failed += wr.failed
		fronts = append(fronts, wr.front)
		reqs = append(reqs, repeatShare(wr.reqs))
		steal = append(steal, wr.steal.share(0, wr.elapsed()))
	}
	rs.info["all_slices.p50_ms"] = metric{all.p50, "ms"}
	rs.info["all_slices.tail_ms"] = metric{all.tail, "ms"}
	rs.info["all_slices.pairs_per_s"] = metric{all.perSec, "1/s"}
	rs.info["host.steal_share"] = metric{median(steal), "frac"}
	rs.info["host.steal_share_kept"] = metric{stolen, "frac"}
	rs.info["error_frac"] = metric{ratio(float64(failed), float64(attempted)), "frac"}
	rs.info["tail_percentile"] = metric{rs.w.tail, "pct"}
	rs.info["gen.repeat_share"] = metric{median(reqs), "frac"}
	rs.info["cache_hit_ratio"] = metric{cacheHitRatio(sum(fronts...)), "frac"}
	return map[string]metric{
		"setup_s":      {setupS, "s"},
		"p50_ms":       {st.p50, "ms"},
		"tail_ms":      {st.tail, "ms"},
		"pairs_per_s":  {st.perSec, "1/s"},
		"abs_err_mean": {rs.chk.meanAbsErr(), "ohm"},
		"rss_mb":       {median(rss), "MiB"},
	}, nil
}

// windowStats are latency and rate statistics of a set of requests.
type windowStats struct {
	p50, tail float64 // ms
	perSec    float64 // pairs answered per second
}

// part is the stretch [from, to) of a window, by send time.
type part struct {
	wr       *windowResult
	from, to time.Duration
}

// wholeParts covers each window from its start to its last reply.
func wholeParts(wrs []*windowResult) []part {
	var out []part
	for _, wr := range wrs {
		out = append(out, part{wr, 0, wr.elapsed()})
	}
	return out
}

// partStats returns the statistics of the requests sent in the parts,
// pooled.
func (rs *runState) partStats(parts []part) (windowStats, error) {
	var xs []float64
	var pairs int
	var dur time.Duration
	for _, p := range parts {
		lat, n := p.wr.latencies(p.from, p.to)
		xs = append(xs, lat...)
		pairs += n
		dur += p.to - p.from
	}
	p50, err := percentile(xs, 50)
	if err != nil {
		return windowStats{}, fmt.Errorf("p50_ms: %w", err)
	}
	tail, err := percentile(xs, rs.w.tail)
	if err != nil {
		return windowStats{}, fmt.Errorf("tail_ms (p%g): %w", rs.w.tail, err)
	}
	return windowStats{p50, tail, float64(pairs) / dur.Seconds()}, nil
}

// mainStats returns the statistics the end-to-end metrics report and the
// mean steal share of the stretches they were taken over.
//
// On a shared VM the hypervisor's steal, CPU time given to other guests
// while this one wanted it, sets the latency of sub-millisecond requests
// more than anything the program does: runs with 12% and 0.7% steal
// answered 1,440 and 2,010 pairs/s on pair-zipf-ba, and steal came and
// went from one second to the next. So the windows are cut into slices of
// w.slice, the slices are ranked by their steal share, and the statistics
// pool the requests sent in the least-stolen share w.keep of the slices
// (more when ties or the tail percentile's sample count need them). The
// ranking uses the host's counters, never the latencies, so a cost of the
// program itself (GC, eviction or health-loop bursts) lands in kept and
// dropped slices alike and moves the metrics; the figures over every slice
// are printed beside them.
func (rs *runState) mainStats(wrs []*windowResult) (windowStats, float64, error) {
	w := rs.w
	var parts []part
	var shares []float64
	var counts []int
	for _, wr := range wrs {
		n := max(int(wr.dur/w.slice), 1)
		for s := 0; s < n; s++ {
			p := part{wr, wr.dur * time.Duration(s) / time.Duration(n), wr.dur * time.Duration(s+1) / time.Duration(n)}
			xs, _ := wr.latencies(p.from, p.to)
			parts, counts = append(parts, p), append(counts, len(xs))
			shares = append(shares, wr.steal.share(p.from, p.to))
		}
	}
	kept := keepLeastStolen(shares, counts, w.keep, w.tail)
	var sel []part
	var stolen float64
	for _, k := range kept {
		sel = append(sel, parts[k])
		stolen += shares[k]
	}
	st, err := rs.partStats(sel)
	return st, stolen / float64(len(kept)), err
}

// keepLeastStolen returns the indices of the slices to pool, least stolen
// first: at least a share keep of them, every slice tied with the last one
// kept, and more until the pooled samples allow the tail percentile.
func keepLeastStolen(shares []float64, counts []int, keep, tail float64) []int {
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return shares[order[a]] < shares[order[b]] })
	want := int(math.Ceil(keep * float64(len(order))))
	samples := 0
	for n, k := range order {
		samples += counts[k]
		last := n+1 == len(order)
		if last || (n+1 >= want && shares[order[n+1]] != shares[k] && samplesBeyond(samples, tail) >= minBeyond) {
			return order[:n+1]
		}
	}
	return order
}

// cacheHitRatio is the result cache's hits over lookups in a process's
// counter deltas.
func cacheHitRatio(c counters) float64 {
	hits := c["engine.cache_hits"] + c["proxy.cache_hits"]
	all := hits + c["engine.cache_misses"] + c["proxy.cache_misses"] + c["engine.cache_shared"] + c["proxy.cache_shared"]
	return ratio(hits, all)
}
