package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/cluster"
	"landmarkrd/internal/rcache"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around a call into that layer. Spans of one request share its id; parent
// names the layer whose span contains this one.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write stores them when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(name string, id int, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, parent, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, id int, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, id, parent, start, end)
	return end.Sub(start)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durMS returns the durations of the spans named name, in ms.
func (t *tracer) durMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMS returns, for every request with name spans and child spans
// (spans whose parent is name), the time the name spans cover minus the
// time their children cover, in ms. Spans of one request and layer may be
// several (a batch split per replica); each layer's cover is taken from
// their first start to their last end.
func (t *tracer) selfMS(name string) []float64 {
	type cover struct{ start, end int64 }
	widen := func(m map[int]cover, s span) {
		c, ok := m[s.ID]
		if !ok {
			c = cover{s.Start, s.End}
		}
		c.start, c.end = min(c.start, s.Start), max(c.end, s.End)
		m[s.ID] = c
	}
	parents, kids := map[int]cover{}, map[int]cover{}
	for _, s := range t.spans {
		switch {
		case s.Name == name:
			widen(parents, s)
		case s.Parent == name:
			widen(kids, s)
		}
	}
	var out []float64
	for id, p := range parents {
		if c, ok := kids[id]; ok {
			out = append(out, float64((p.end-p.start)-(c.end-c.start))/1e6)
		}
	}
	return out
}

// layer span names.
const (
	spanProxy  = "rdproxy"
	spanServer = "rdserver"
	spanSolve  = "rdserver.solve"
	spanEngine = "engine.pair"
	spanSingle = "engine.singlesource"
	spanRoute  = "cluster.route"
	spanCache  = "rcache.hit"
	spanBuild  = "build.portfolio"
	spanApply  = "live.apply"
	spanRebase = "live.rebase"
)

// The in-process engine replay stops after maxEngineRun distinct pairs or
// maxEngineTime, whichever comes first.
const (
	maxEngineRun  = 1200
	maxEngineTime = 5 * time.Second
)

// layers is the traced run's report: the per-layer breakdown of the
// traced window w2. w1 is the untraced window on a fresh fleet with the
// same warm-up and streams, which the tracing overhead compares it with.
func (rs *runState) layers(w1, w2 *windowResult) (map[string]metric, error) {
	tr := rs.tracer
	ctx := context.Background()
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Tracing overhead: the same workload with and without spans.
	s1, _, err := rs.mainStats([]*windowResult{w1})
	if err != nil {
		return nil, err
	}
	s2, _, err := rs.mainStats([]*windowResult{w2})
	if err != nil {
		return nil, err
	}
	put("trace.overhead_p50_ms", s2.p50-s1.p50, "ms")
	put("trace.overhead_tail_ms", s2.tail-s1.tail, "ms")

	// One layer down over HTTP: the proxy's replies replayed straight at
	// the replicas that answered them.
	if err := rs.directReplay(w2); err != nil {
		return nil, err
	}
	proxySelf := tr.selfMS(spanProxy)
	hop := tr.selfMS(spanServer)
	solve := tr.durMS(spanSolve)
	tail := func(xs []float64) float64 { v, _ := percentile(xs, highestPercentile(len(xs))); return v }
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 50); return v }
	put("rdproxy.self_ms_p50", p50(proxySelf), "ms")
	put("rdproxy.self_ms_tail", tail(proxySelf), "ms")
	put("net.hop_ms_p50", p50(hop), "ms")
	put("rdserver.solve_ms_p50", p50(solve), "ms")
	put("rdserver.solve_ms_tail", tail(solve), "ms")

	// Fleet counters over the traced window.
	d, fr := w2.delta, w2.front
	put("rdproxy.failover_ratio", ratio(fr["proxy.shard_failovers"], fr["proxy.shard_routed"]), "frac")
	put("fleet.solves_per_pair", ratio(d["engine.queries"], float64(w2.pairs)), "count")
	put("rcache.hit_ratio", cacheHitRatio(fr), "frac")
	put("rcache.shared", fr["proxy.cache_shared"]+fr["engine.cache_shared"], "count")
	put("rcache.evictions", fr["proxy.cache_evictions"]+fr["engine.cache_evictions"], "count")
	put("rdserver.hit_ratio", ratio(d["engine.cache_hits"], d["engine.cache_hits"]+d["engine.cache_misses"]+d["engine.cache_shared"]), "frac")
	put("gen.repeat_share", repeatShare(w2.reqs), "frac")

	// In-process: the root package and internal layers on the same inputs.
	pf, err := rs.buildLayer(out)
	if err != nil {
		return nil, err
	}
	pairs := windowPairs(w2)
	if err := rs.engineLayer(ctx, pf, w2, out); err != nil {
		return nil, err
	}
	if err := rs.singleSourceLayer(ctx, pf, out); err != nil {
		return nil, err
	}
	if err := rs.routeLayer(pf, pairs, out); err != nil {
		return nil, err
	}
	rs.cacheLayer(ctx, pairs, out)
	if err := rs.liveLayer(ctx, pf, out); err != nil {
		return nil, err
	}

	dir := rs.cfg.spans
	if dir == "" {
		dir = rs.dir
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", rs.w.name, rs.cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "fleetbench: %d spans written to %s\n", len(tr.spans), path)
	return out, nil
}

// directReplay sends the traced window's cache-miss pairs (pair-zipf-ba)
// or batches (batch-grid, one sub-batch per owning replica) straight to
// the replica that answered them through the proxy, keeping at most as
// many requests in flight as the window did. Each direct request is a child span of the
// proxy span with the same id, and the replica-reported solve time a child
// of that.
func (rs *runState) directReplay(w2 *windowResult) error {
	tr := rs.tracer
	var reqs []request
	var owner []int // request → traced-window request id
	for i := range w2.res {
		r := &w2.res[i]
		id := r.id
		if !r.ok() {
			continue
		}
		switch r.req.kind {
		case kindPair:
			if r.pair.Cache == "miss" {
				reqs = append(reqs, request{kind: kindPair, p: r.req.p, target: r.pair.Replica})
				owner = append(owner, id)
			}
		case kindBatch:
			groups := map[string][]pair{}
			var order []string
			for j, p := range r.batch.Results {
				if p.Replica == "" {
					continue // a cache hit: no replica solved it
				}
				if _, ok := groups[p.Replica]; !ok {
					order = append(order, p.Replica)
				}
				groups[p.Replica] = append(groups[p.Replica], r.req.batch[j])
			}
			for _, rep := range order {
				reqs = append(reqs, request{kind: kindBatch, batch: groups[rep], target: rep})
				owner = append(owner, id)
			}
		}
	}
	c := newClient("", numConns())
	defer c.close()
	res := sendAll(c, reqs, clients, func(k int, sent, done time.Time, r *result) {
		if !r.ok() {
			return
		}
		tr.record(spanServer, owner[k], spanProxy, sent, done)
		elapsed := r.batch.elapsedMS()
		if r.pair != nil {
			elapsed = r.pair.ElapsedMS
		}
		tr.record(spanSolve, owner[k], spanServer, sent, sent.Add(msDuration(elapsed)))
	})
	for k := range res {
		r := &res[k]
		if !r.ok() {
			return fmt.Errorf("direct replay %s to %s failed: %v", r.req.kind, r.req.target, r.err)
		}
		if r.pair != nil {
			rs.chk.pair(r.req.p.S, r.req.p.T, r.pair.Value)
		}
		for j, p := range r.batchPairs() {
			rs.chk.pair(r.req.batch[j].S, r.req.batch[j].T, p.Value)
		}
	}
	return nil
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// windowPairs lists every pair the traced window asked for, in order.
func windowPairs(wr *windowResult) []pair {
	var out []pair
	for _, rq := range wr.reqs {
		switch rq.kind {
		case kindPair:
			out = append(out, rq.p)
		case kindBatch:
			out = append(out, rq.batch...)
		}
	}
	return out
}

// buildLayer builds the fleet portfolio in-process with the replicas'
// options (rdproxy builds the same portfolio with the default Jacobi
// preconditioner).
func (rs *runState) buildLayer(out map[string]metric) (*landmarkrd.PortfolioIndex, error) {
	mode, err := landmarkrd.ParsePrecondMode(rs.w.precond)
	if err != nil {
		return nil, err
	}
	m := &landmarkrd.Metrics{}
	cg := landmarkrd.SolverStats().CGIterations
	var pf *landmarkrd.PortfolioIndex
	d := rs.tracer.timed(spanBuild, 0, "", func() {
		pf, err = landmarkrd.BuildPortfolioIndex(rs.g, landmarkrd.PortfolioBuildOptions{
			K: portfolioK, Mode: landmarkrd.DiagExactCG, Seed: 1, Precond: mode, Metrics: m,
		})
	})
	if err != nil {
		return nil, err
	}
	st := m.Snapshot()
	out["build.portfolio_s"] = metric{d.Seconds(), "s"}
	out["build.column_s_mean"] = metric{ratio(float64(st.ColumnBuildTime.Sum), float64(st.ColumnBuildTime.Count)) / 1e9, "s"}
	out["build.precond_s"] = metric{float64(st.PrecondBuildTime.Sum) / 1e9, "s"}
	out["lap.cg_iters_setup"] = metric{float64(landmarkrd.SolverStats().CGIterations - cg), "count"}
	return pf, nil
}

// engineLayer answers the traced window's distinct pairs (cache misses, as
// the replicas saw them) one per PairsContext call, as rdserver does, on an
// in-process engine over the fleet portfolio.
func (rs *runState) engineLayer(ctx context.Context, pf *landmarkrd.PortfolioIndex, w2 *windowResult, out map[string]metric) error {
	m := &landmarkrd.Metrics{}
	eng, err := landmarkrd.NewBatchEngine(rs.g, landmarkrd.BiPush, landmarkrd.BatchOptions{
		Options: landmarkrd.Options{Seed: 1}, Portfolio: pf, MaxAttempts: 3, Metrics: m,
	})
	if err != nil {
		return err
	}
	seen := map[pair]bool{}
	n := 0
	start := time.Now()
	for id, p := range windowPairs(w2) {
		if n == maxEngineRun || time.Since(start) > maxEngineTime {
			break
		}
		key := pair{min(p.S, p.T), max(p.S, p.T)}
		if seen[key] {
			continue
		}
		seen[key] = true
		n++
		var res []landmarkrd.PairResult
		rs.tracer.timed(spanEngine, id, spanSolve, func() {
			res, err = eng.PairsContext(ctx, []landmarkrd.PairQuery{{S: p.S, T: p.T}})
		})
		if err != nil {
			return err
		}
		if res[0].Err != nil {
			return fmt.Errorf("engine r(%d,%d): %w", p.S, p.T, res[0].Err)
		}
		rs.chk.pair(p.S, p.T, res[0].Estimate.Value)
	}
	st := m.Snapshot()
	q := float64(st.Queries)
	xs := rs.tracer.durMS(spanEngine)
	p50, _ := percentile(xs, 50)
	tail, _ := percentile(xs, highestPercentile(len(xs)))
	out["engine.pair_ms_p50"] = metric{p50, "ms"}
	out["engine.pair_ms_tail"] = metric{tail, "ms"}
	out["engine.exact_fallbacks"] = metric{ratio(float64(st.ExactFallbacks), q), "1/query"}
	out["engine.router_fallbacks"] = metric{ratio(float64(st.RouterFallbacks), q), "1/query"}
	out["engine.estimator_builds"] = metric{ratio(float64(st.EstimatorBuilds), q), "1/query"}
	out["core.push_ops_per_pair"] = metric{ratio(float64(st.PushOps), q), "count"}
	out["core.walk_steps_per_pair"] = metric{ratio(float64(st.WalkSteps), q), "count"}
	out["core.walks_per_pair"] = metric{ratio(float64(st.Walks), q), "count"}
	rs.info["engine.pairs_replayed"] = metric{q, "count"}
	return nil
}

// probeSources and probeUpdates size the in-process single-source and
// live-update probes; the fleet's traffic has neither kind.
const (
	probeSources = 40
	probeUpdates = 255
)

// singleSourceLayer times PortfolioSingleSourceContext on probe sources
// and checks every row against the oracle.
func (rs *runState) singleSourceLayer(ctx context.Context, pf *landmarkrd.PortfolioIndex, out map[string]metric) error {
	r := newRNG(rs.cfg.seed, streamProbe)
	for id := 0; id < probeSources; id++ {
		s := r.IntN(rs.g.N())
		var vals []float64
		var lm int
		var err error
		rs.tracer.timed(spanSingle, id, "", func() {
			vals, lm, err = landmarkrd.PortfolioSingleSourceContext(ctx, pf, s)
		})
		if err != nil {
			return err
		}
		rs.chk.single(s, lm, vals)
	}
	v, err := percentile(rs.tracer.durMS(spanSingle), 50)
	out["engine.singlesource_ms_p50"] = metric{v, "ms"}
	return err
}

// routeLayer times the cluster router's owner ordering for every pair of
// the traced window, over the fleet's replica set and the portfolio's cost
// law.
func (rs *runState) routeLayer(pf *landmarkrd.PortfolioIndex, pairs []pair, out map[string]metric) error {
	router, err := cluster.NewRouter(rs.fleet.replicas, pf.K(), 0, pf.RouteCost)
	if err != nil {
		return err
	}
	fp := rs.g.Fingerprint()
	xs := make([]float64, len(pairs))
	for i, p := range pairs {
		start := time.Now()
		router.Route(fp, p.S, p.T)
		xs[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	v, err := percentile(xs, 50)
	out["cluster.route_us_p50"] = metric{v, "us"}
	return err
}

// cacheLayer replays the traced window's pairs twice through an in-process
// result cache of the fleet's size and times the hits with Cache.Do.
func (rs *runState) cacheLayer(ctx context.Context, pairs []pair, out map[string]metric) {
	c := rcache.New(proxyCache, &landmarkrd.Metrics{})
	fp := rs.g.Fingerprint()
	var hits []float64
	for pass := 0; pass < 2; pass++ {
		for _, p := range pairs {
			key := rcache.NewKey(fp, p.S, p.T)
			start := time.Now()
			_, outcome, _ := c.Do(ctx, key, func() (float64, bool, error) {
				r, err := rs.chk.orc.Resistance(p.S, p.T)
				return r, err == nil, err
			})
			if outcome == rcache.Hit {
				hits = append(hits, float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
	}
	v, _ := percentile(hits, 50)
	out["rcache.hit_us_p50"] = metric{v, "us"}
}

// liveLayer applies a probe stream of probeUpdates edge updates to an
// in-process LiveIndex over the fleet portfolio, then re-bases once while
// a reader holds the first epoch pinned. The pinned epoch must stay
// unretired until it is released, and retire then.
func (rs *runState) liveLayer(ctx context.Context, pf *landmarkrd.PortfolioIndex, out map[string]metric) error {
	ug := newUpdateGen(newRNG(rs.cfg.seed, streamProbe), rs.g)
	ups := make([]update, probeUpdates)
	for i := range ups {
		ups[i] = ug.next()
	}
	m := &landmarkrd.Metrics{}
	li, err := landmarkrd.NewLiveIndex(rs.g, landmarkrd.LiveOptions{
		Method: landmarkrd.BiPush, PortfolioK: pf.K(), Mode: pf.Mode,
		MaxPatches: -1, MaxPatchOverhead: -1, InitialPortfolio: pf, Metrics: m,
	})
	if err != nil {
		return err
	}
	var iters int64
	for i, u := range ups {
		op := landmarkrd.UpdateRemoveEdge
		if u.add {
			op = landmarkrd.UpdateAddEdge
		}
		cg := landmarkrd.SolverStats().CGIterations
		rs.tracer.timed(spanApply, i, "", func() {
			_, err = li.ApplyUpdate(ctx, landmarkrd.GraphUpdate{Op: op, S: u.p.S, T: u.p.T, Weight: 1})
		})
		if err != nil {
			return fmt.Errorf("in-process update %d: %w", i, err)
		}
		iters += landmarkrd.SolverStats().CGIterations - cg
	}
	pinned := li.Pin()
	d := rs.tracer.timed(spanRebase, 0, "", func() { _, err = li.Rebase(ctx) })
	if err != nil {
		pinned.Release()
		return err
	}
	st := m.Snapshot()
	held := st.EpochPublishes - st.EpochRetires
	pinned.Release()
	st = m.Snapshot()
	if held < 1 {
		rs.chk.fail("a pinned epoch retired during a re-base (%d publishes, %d retires)", st.EpochPublishes, st.EpochRetires)
	}
	out["live.rebases"] = metric{float64(st.Rebases), "count"}
	out["live.epoch_publishes"] = metric{float64(st.EpochPublishes), "count"}
	out["live.epochs_unretired"] = metric{float64(st.EpochPublishes - st.EpochRetires), "count"}
	xs := rs.tracer.durMS(spanApply)
	p50, _ := percentile(xs, 50)
	tail, _ := percentile(xs, highestPercentile(len(xs)))
	out["live.apply_ms_p50"] = metric{p50, "ms"}
	out["live.apply_ms_tail"] = metric{tail, "ms"}
	out["live.rebase_s"] = metric{d.Seconds(), "s"}
	out["lap.cg_iters_per_update"] = metric{ratio(float64(iters), float64(len(ups))), "count"}
	return nil
}
