// Command fleetbench is landmarkrd's end-to-end benchmark. For one workload
// it generates the graph and request streams from a seed, launches an
// rdproxy + 2 rdserver fleet on loopback from binaries built from the tree
// under test, drives the stream from this one process, checks every answer
// against the dense oracle, and prints each metric by name and unit, ending
// with one JSON line.
//
//	bash fleetbench/run.sh --workload pair-zipf-ba --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer breakdown (trace.go). BENCHMARK.md describes the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	landmarkrd "landmarkrd"
)

// setups is how many fresh fleets an untraced run launches, each serving
// an equal share of the timed window; setup_s is the median of their
// set-up times.
const setups = 3

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string
	work     string
	spans    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of a timed window")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer breakdown")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the rdserver and rdproxy binaries")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for graphs and fleet logs")
	flag.StringVar(&cfg.spans, "spans", "", "directory for the traced run's span files (default: the scratch directory)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.bin == "" || cfg.work == "" || cfg.workload == "" || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "fleetbench: need -workload, -bin, -work and -seconds >= 1")
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()

	rep, err := run(cfg)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runState is what one run shares between its phases.
type runState struct {
	cfg    config
	w      *workload
	g      *landmarkrd.Graph
	dir    string
	dep    deployment
	chk    *checker
	st     *streams
	fleet  *fleet            // the fleet serving the current window
	win    time.Duration     // the timed window, --seconds long
	info   map[string]metric // diagnostics printed but not in the JSON line
	tracer *tracer           // traced runs only
}

func run(cfg config) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	dir := filepath.Join(cfg.work, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rs := &runState{cfg: cfg, w: w, dir: dir, win: time.Duration(cfg.seconds) * time.Second, info: map[string]metric{}}
	if cfg.trace {
		rs.tracer = newTracer()
	}
	if err := rs.prepare(); err != nil {
		return nil, err
	}
	rep := &report{}
	if !cfg.trace {
		// Each fresh fleet serves an equal share of the window, so one
		// fleet's placement on the host does not set the metrics.
		var setupS []float64
		var wrs []*windowResult
		for i := 0; i < setups; i++ {
			d, err := rs.launch(fmt.Sprintf("fleet%d", i))
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, d.Seconds())
			wr, err := rs.serve(false, rs.win/setups)
			rs.fleet.stop()
			if err != nil {
				return nil, err
			}
			rep.Attempted += wr.attempted
			rep.Failed += wr.failed
			wrs = append(wrs, wr)
		}
		if rep.Metrics, err = rs.endToEnd(wrs, median(setupS)); err != nil {
			return nil, err
		}
	} else {
		// The untraced and the traced window each run on a fresh fleet
		// after the same warm-up, with the same request streams, so their
		// difference is the cost of tracing and not a warmer cache.
		var wrs [2]*windowResult
		for i, traced := range []bool{false, true} {
			if _, err := rs.launch(fmt.Sprintf("fleet%d", i)); err != nil {
				return nil, err
			}
			if wrs[i], err = rs.serve(traced, rs.win); err != nil {
				rs.fleet.stop()
				return nil, err
			}
			rep.Attempted += wrs[i].attempted
			rep.Failed += wrs[i].failed
			if !traced {
				rs.fleet.stop()
			}
		}
		rep.Metrics, err = rs.layers(wrs[0], wrs[1])
		rs.fleet.stop()
		if err != nil {
			return nil, err
		}
	}
	rs.chk.finish()
	for _, f := range rs.chk.first {
		fmt.Fprintln(os.Stderr, "fleetbench: check failed:", f)
	}
	rs.info["answers.checked"] = metric{float64(rs.chk.checked), "count"}
	rs.info["answers.bias"] = metric{rs.chk.bias(), "frac"}
	errs := rs.chk.relErrs()
	if v, err := percentile(errs, 99); err == nil {
		rs.info["answers.rel_err_p99"] = metric{v, "frac"}
	}
	rs.info["answers.rel_err_max"] = metric{slices.Max(append(errs, 0)), "frac"}
	for name, m := range rs.info {
		fmt.Printf("# %-26s %14.6g %s\n", name, m.Value, m.Unit)
	}
	rep.Correct = rs.chk.failures == 0 && rep.Failed == 0
	if rs.chk.failures > 0 {
		fmt.Fprintf(os.Stderr, "fleetbench: %d check failures over %d checked answers\n", rs.chk.failures, rs.chk.checked)
	}
	return rep, nil
}

// prepare generates the graph and streams and writes the graph file the
// fleet loads.
func (rs *runState) prepare() error {
	g, err := rs.w.makeGraph(graphSeed)
	if err != nil {
		return fmt.Errorf("generating graph: %w", err)
	}
	path := filepath.Join(rs.dir, "graph.txt")
	if err := g.SaveEdgeList(path); err != nil {
		return err
	}
	// Loading renumbers vertices in order of first appearance, so the
	// graph the fleet serves is the file's graph, not g itself: check and
	// route against that one.
	loaded, _, err := landmarkrd.LoadEdgeList(path)
	if err != nil {
		return err
	}
	rs.g = loaded
	lms, err := selectLandmarks(loaded)
	if err != nil {
		return err
	}
	rs.dep = deployment{bin: rs.cfg.bin, dir: rs.dir, graphPath: path, landmarks: lms}
	if rs.chk, err = newChecker(loaded, lms, rs.w.tol); err != nil {
		return err
	}
	rs.st, err = newStreams(rs.w, loaded, rs.cfg.seed)
	return err
}

// launch starts a fresh fleet, makes it the run's current one and returns
// its set-up time.
func (rs *runState) launch(tag string) (time.Duration, error) {
	f, d, err := launch(context.Background(), rs.w, rs.dep, tag)
	if err != nil {
		return 0, err
	}
	rs.fleet = f
	rs.chk.newFleet(f.shards)
	return d, nil
}

// serve warms the current fleet and runs one timed window of length dur
// on it.
func (rs *runState) serve(traced bool, dur time.Duration) (*windowResult, error) {
	if err := rs.warm(); err != nil {
		return nil, err
	}
	return rs.window(traced, dur)
}

// warm sends the untimed warm-up stream. Every reply must succeed, and its
// answers pass the same gate as the window's: the window's cache hits may
// repeat them.
func (rs *runState) warm() error {
	c := newClient(rs.fleet.front, numConns())
	defer c.close()
	res := sendAll(c, rs.st.warmup(rs.w, rs.g, rs.cfg.seed), numConns(), nil)
	for i := range res {
		if r := &res[i]; !r.ok() {
			return fmt.Errorf("warm-up %s request failed: %v", r.req.kind, r.err)
		}
	}
	rs.checkReplies(res)
	return nil
}

// windowResult is one timed window's outcome.
type windowResult struct {
	w         *workload
	reqs      []request
	res       []result
	dur       time.Duration
	delta     counters // the window's counter deltas, summed over the fleet
	front     counters // the proxy's deltas alone
	rssMB     float64
	steal     stealTimeline // the host's steal while the window ran
	attempted int
	failed    int
	pairs     int // pairs answered
}

// window runs a timed window on the current fleet and checks its answers.
// A traced window records a proxy span around every request.
func (rs *runState) window(traced bool, dur time.Duration) (*windowResult, error) {
	f, w := rs.fleet, rs.w
	urls := append([]string{f.front}, f.replicas...)
	before, err := varsSum(urls)
	if err != nil {
		return nil, err
	}
	frontBefore, err := vars(f.front)
	if err != nil {
		return nil, err
	}
	c := newClient(f.front, numConns())
	defer c.close()
	var onDone doneFunc
	if traced {
		onDone = func(id int, sent, done time.Time, _ *result) {
			rs.tracer.record(spanProxy, id, "", sent, done)
		}
	}
	wr := &windowResult{w: w, dur: dur}
	meter := startStealMeter()
	wr.res = closedLoop(c, clients, dur, rs.st.closedStream(w, rs.g, rs.cfg.seed), onDone)
	wr.steal = meter.stop()
	for i := range wr.res {
		wr.reqs = append(wr.reqs, *wr.res[i].req)
	}
	after, err := varsSum(urls)
	if err != nil {
		return nil, err
	}
	frontAfter, err := vars(f.front)
	if err != nil {
		return nil, err
	}
	wr.delta = delta(before, after)
	wr.front = delta(frontBefore, frontAfter)
	if wr.rssMB, err = f.peakRSSMB(); err != nil {
		return nil, err
	}
	wr.attempted, wr.failed, wr.pairs = rs.checkReplies(wr.res)
	return wr, nil
}

// checkReplies runs the correctness gate over proxy replies and returns
// how many requests were attempted and failed and how many pairs were
// answered.
func (rs *runState) checkReplies(res []result) (attempted, failed, pairs int) {
	chk := rs.chk
	var answers []*pairReply
	for i := range res {
		r := &res[i]
		attempted++
		if !r.ok() {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "fleetbench: %s request failed: status %d: %v\n", r.req.kind, r.status, r.err)
			}
			continue
		}
		switch r.req.kind {
		case kindPair:
			p := r.pair
			chk.version(p.GraphVersion)
			if p.S != r.req.p.S || p.T != r.req.p.T {
				chk.fail("reply for (%d,%d) names (%d,%d)", r.req.p.S, r.req.p.T, p.S, p.T)
				continue
			}
			pairs++
			answers = append(answers, p)
		case kindBatch:
			b := r.batch
			chk.version(b.GraphVersion)
			if len(b.Results) != len(r.req.batch) {
				chk.fail("batch of %d pairs answered with %d results", len(r.req.batch), len(b.Results))
				continue
			}
			for j := range b.Results {
				p, q := &b.Results[j], r.req.batch[j]
				if p.S != q.S || p.T != q.T {
					chk.fail("batch entry %d for (%d,%d) names (%d,%d)", j, q.S, q.T, p.S, p.T)
					continue
				}
				pairs++
				answers = append(answers, p)
			}
		}
	}
	chk.proxyReplies(answers)
	return attempted, failed, pairs
}

// latencies returns the latencies of the window's successful main
// requests sent in [from, to), in ms, and how many pairs those requests
// answered.
func (wr *windowResult) latencies(from, to time.Duration) (xs []float64, pairs int) {
	for i := range wr.res {
		r := &wr.res[i]
		if r.sent < from || r.sent >= to || !r.ok() {
			continue
		}
		pairs += r.pairs()
		xs = append(xs, latencyMS(r))
	}
	return xs, pairs
}

// elapsed is the window's length as measured: from its start to its last
// reply.
func (wr *windowResult) elapsed() time.Duration {
	var end time.Duration
	for i := range wr.res {
		if wr.res[i].done > end {
			end = wr.res[i].done
		}
	}
	return end
}
