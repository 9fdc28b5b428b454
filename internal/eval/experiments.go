package eval

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"landmarkrd/internal/baseline"
	"landmarkrd/internal/chol"
	"landmarkrd/internal/core"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/lanczos"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/sketch"
	"landmarkrd/internal/walk"
)

// ExpConfig carries the shared experiment parameters.
type ExpConfig struct {
	Scale   Scale
	Seed    uint64
	Queries int
	Out     io.Writer
	// CSVDir, when set, additionally writes every emitted table as a CSV
	// file (named from a slug of the table title) into that directory.
	CSVDir string
	// Workers shards landmark-index builds across a worker pool
	// (default GOMAXPROCS; 1 forces sequential builds). Results are
	// byte-identical for a fixed seed regardless of the worker count.
	Workers int
}

// emit writes a table to the text output and, when configured, as CSV.
func (c ExpConfig) emit(t *Table) error {
	if err := t.Write(c.Out); err != nil {
		return err
	}
	if c.CSVDir == "" {
		return nil
	}
	name := slugify(t.Title) + ".csv"
	f, err := os.Create(filepath.Join(c.CSVDir, name))
	if err != nil {
		return fmt.Errorf("eval: csv output: %w", err)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// slugify converts a table title into a safe file name.
func slugify(s string) string {
	var b strings.Builder
	lastDash := false
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + 32)
			lastDash = false
		default:
			if !lastDash && b.Len() > 0 {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	out := b.String()
	out = strings.TrimRight(out, "-")
	if len(out) > 80 {
		out = out[:80]
	}
	if out == "" {
		out = "table"
	}
	return out
}

func (c ExpConfig) withDefaults() ExpConfig {
	if c.Queries <= 0 {
		c.Queries = 20
	}
	if c.Seed == 0 {
		c.Seed = 2023
	}
	return c
}

// ExperimentIDs lists the runnable experiment ids in order.
func ExperimentIDs() []string {
	return []string{"stats", "e1a", "e1b", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"}
}

// RunExperiment dispatches one experiment by id.
func RunExperiment(id string, cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	switch id {
	case "stats":
		return ExpStats(cfg)
	case "e1a":
		return ExpQuerySweep(cfg, []string{"ba", "ba-dense", "rmat", "er"}, "E1a: time vs abs err (small kappa)")
	case "e1b":
		return ExpQuerySweep(cfg, []string{"ws", "road"}, "E1b: time vs abs err (large kappa)")
	case "e2":
		return ExpWeighted(cfg)
	case "e3":
		return ExpScalability(cfg)
	case "e4":
		return ExpMemory(cfg)
	case "e5":
		return ExpLandmark(cfg)
	case "e6":
		return ExpStability(cfg)
	case "e7":
		return ExpSingleSource(cfg)
	case "e8":
		return ExpIdentities(cfg)
	case "e9":
		return ExpLanczos(cfg)
	case "e10":
		return ExpPortfolio(cfg)
	default:
		return fmt.Errorf("eval: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
}

// ExpStats prints the Table-2 analogue for the full registry.
func ExpStats(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	var rows []DatasetStats
	for _, d := range Registry() {
		g, err := d.Generate(cfg.Scale, cfg.Seed)
		if err != nil {
			return fmt.Errorf("eval: generate %s: %w", d.Name, err)
		}
		st, err := ComputeStats(d, g, cfg.Seed)
		if err != nil {
			return fmt.Errorf("eval: stats %s: %w", d.Name, err)
		}
		rows = append(rows, st)
	}
	return cfg.emit(StatsTable(rows))
}

// settingsFor builds the full competitor grid for one graph: the three
// landmark algorithms (the paper's contribution), the global and local
// baselines, the sketch, and the Lanczos comparators. kappa tunes the
// per-algorithm knobs the way the papers scale them with condition number.
func settingsFor(g *graph.Graph, kappa float64, seed uint64) ([]AlgoSetting, error) {
	rng := randx.New(seed)
	v, err := core.SelectLandmark(g, core.MaxDegree, rng)
	if err != nil {
		return nil, err
	}
	resolve := func(s, t int) int {
		if v != s && v != t {
			return v
		}
		for _, u := range g.TopKByDegree(3) {
			if u != s && u != t {
				return u
			}
		}
		return -1
	}
	var settings []AlgoSetting

	// --- landmark AbWalk ---
	for _, walks := range []int{100, 400, 1600} {
		walks := walks
		est := map[int]*core.AbWalkEstimator{}
		settings = append(settings, AlgoSetting{
			Algo: "abwalk", Setting: fmt.Sprintf("walks=%d", walks),
			Run: func(s, t int) (float64, error) {
				lm := resolve(s, t)
				e := est[lm]
				if e == nil {
					var err error
					e, err = core.NewAbWalkEstimator(g, lm, core.AbWalkOptions{Walks: walks}, rng.Split())
					if err != nil {
						return 0, err
					}
					est[lm] = e
				}
				r, err := e.Pair(s, t)
				return r.Value, err
			},
		})
	}

	// --- landmark Push ---
	for _, eps := range []float64{1e-3, 1e-4, 1e-5, 1e-6} {
		eps := eps
		est := map[int]*core.PushEstimator{}
		settings = append(settings, AlgoSetting{
			Algo: "push", Setting: fmt.Sprintf("theta=%.0e", eps),
			Run: func(s, t int) (float64, error) {
				lm := resolve(s, t)
				e := est[lm]
				if e == nil {
					var err error
					e, err = core.NewPushEstimator(g, lm, core.PushOptions{Theta: eps, MaxOps: 1 << 26})
					if err != nil {
						return 0, err
					}
					est[lm] = e
				}
				r, err := e.Pair(s, t)
				return r.Value, err
			},
		})
	}

	// --- landmark BiPush ---
	for _, walks := range []int{64, 256, 1024} {
		walks := walks
		est := map[int]*core.BiPushEstimator{}
		settings = append(settings, AlgoSetting{
			Algo: "bipush", Setting: fmt.Sprintf("walks=%d", walks),
			Run: func(s, t int) (float64, error) {
				lm := resolve(s, t)
				e := est[lm]
				if e == nil {
					var err error
					e, err = core.NewBiPushEstimator(g, lm,
						core.BiPushOptions{PushTheta: 1e-2, Walks: walks, MaxOps: 1 << 28}, rng.Split())
					if err != nil {
						return 0, err
					}
					est[lm] = e
				}
				r, err := e.Pair(s, t)
				return r.Value, err
			},
		})
	}

	// --- global Power Method (baseline) ---
	full := baseline.GroundTruthSteps(kappa, 1e-4)
	for _, frac := range []int{16, 4, 1} {
		steps := full / frac
		if steps < 8 {
			steps = 8
		}
		settings = append(settings, AlgoSetting{
			Algo: "pm", Setting: fmt.Sprintf("steps=%d", steps),
			Run: func(s, t int) (float64, error) {
				r, err := baseline.PowerMethod(g, s, t, baseline.PowerMethodOptions{Steps: steps})
				return r.Value, err
			},
		})
	}

	// --- Chebyshev-accelerated global solve (baseline) ---
	lmin := 2 / kappa * 0.9
	for _, frac := range []int{8, 2} {
		it := int(math.Max(8, 4*math.Sqrt(kappa)))/frac*2 + 4
		settings = append(settings, AlgoSetting{
			Algo: "cheb", Setting: fmt.Sprintf("iters=%d", it),
			Run: func(s, t int) (float64, error) {
				r, err := baseline.ChebyshevRD(g, s, t, baseline.ChebyshevOptions{Iterations: it, LambdaMin: lmin})
				return r.Value, err
			},
		})
	}

	// --- local lazy-walk (TP-style baseline) ---
	lwLen := int(math.Min(2000, math.Max(32, 2*kappa)))
	for _, walks := range []int{200, 800} {
		walks := walks
		settings = append(settings, AlgoSetting{
			Algo: "tp", Setting: fmt.Sprintf("l=%d,walks=%d", lwLen, walks),
			Run: func(s, t int) (float64, error) {
				r, err := baseline.LazyWalkRD(g, s, t, baseline.LazyWalkOptions{Length: lwLen, Walks: walks}, rng.Split())
				return r.Value, err
			},
		})
	}

	// --- GEER-style adaptive lazy-walk (baseline) ---
	// Cap total steps (MaxWalks·2·lwLen) at ~2^23 so long series on
	// badly conditioned graphs stay tractable in the sweep.
	geerMaxWalks := (1 << 22) / lwLen
	if geerMaxWalks < 4096 {
		geerMaxWalks = 4096
	}
	for _, eps := range []float64{0.1, 0.02} {
		eps := eps
		settings = append(settings, AlgoSetting{
			Algo: "geer", Setting: fmt.Sprintf("eps=%.2f", eps),
			Run: func(s, t int) (float64, error) {
				r, err := baseline.AdaptiveLazyWalk(g, s, t,
					baseline.AdaptiveOptions{Epsilon: eps, Length: lwLen, MaxWalks: geerMaxWalks}, rng.Split())
				return r.Value, err
			},
		})
	}

	// --- commute-time MC (baseline) ---
	for _, walks := range []int{8, 32} {
		walks := walks
		settings = append(settings, AlgoSetting{
			Algo: "commute", Setting: fmt.Sprintf("walks=%d", walks),
			Run: func(s, t int) (float64, error) {
				r, err := baseline.CommuteMC(g, s, t, baseline.CommuteMCOptions{Walks: walks}, rng.Split())
				return r.Value, err
			},
		})
	}

	// --- approximate-Cholesky-preconditioned solver (LapSolver-style;
	// factorization amortized over queries, exact answers) ---
	{
		solver, err := chol.NewSolver(g, v, 1e-8, chol.Options{Seed: seed + 21})
		if err != nil {
			return nil, fmt.Errorf("eval: lapsolver build: %w", err)
		}
		settings = append(settings, AlgoSetting{
			Algo: "lapsolver", Setting: "tol=1e-8",
			Run: solver.Resistance,
		})
	}

	// --- SS sketch (FastRD-style; build amortized, query O(k)) ---
	for _, eps := range []float64{0.5, 0.25} {
		sk, err := sketch.Build(g, sketch.Options{Epsilon: eps, Tol: 1e-8}, rng.Split())
		if err != nil {
			return nil, fmt.Errorf("eval: sketch build: %w", err)
		}
		settings = append(settings, AlgoSetting{
			Algo: "sketch", Setting: fmt.Sprintf("eps=%.2f,k=%d", eps, sk.K()),
			Run: sk.Resistance,
		})
	}

	// --- Lanczos comparators ---
	kBase := int(math.Max(8, math.Min(200, math.Sqrt(kappa)*4)))
	for _, mult := range []int{1, 2, 4} {
		k := kBase * mult
		settings = append(settings, AlgoSetting{
			Algo: "lz", Setting: fmt.Sprintf("k=%d", k),
			Run: func(s, t int) (float64, error) {
				r, err := lanczos.Iteration(g, s, t, k)
				return r.Value, err
			},
		})
	}
	for _, eps := range []float64{1e-3, 1e-4, 1e-5} {
		eps := eps
		k := kBase * 2
		settings = append(settings, AlgoSetting{
			Algo: "lzpush", Setting: fmt.Sprintf("k=%d,eps=%.0e", k, eps),
			Run: func(s, t int) (float64, error) {
				r, err := lanczos.Push(g, s, t, lanczos.PushOptions{K: k, Epsilon: eps})
				return r.Value, err
			},
		})
	}
	return settings, nil
}

// ExpQuerySweep is E1a/E1b: the full competitor grid over the named
// datasets, reporting time-vs-error curves.
func ExpQuerySweep(cfg ExpConfig, names []string, title string) error {
	cfg = cfg.withDefaults()
	for _, name := range names {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g, err := d.Generate(cfg.Scale, cfg.Seed)
		if err != nil {
			return err
		}
		st, err := ComputeStats(d, g, cfg.Seed)
		if err != nil {
			return err
		}
		queries, err := MakeQueries(g, cfg.Queries, UniformPairs, randx.New(cfg.Seed+77))
		if err != nil {
			return err
		}
		settings, err := settingsFor(g, st.Kappa, cfg.Seed+13)
		if err != nil {
			return err
		}
		points, err := RunSweep(settings, queries)
		if err != nil {
			return err
		}
		t := CurveTable(fmt.Sprintf("%s — %s (n=%d m=%d kappa=%.1f)", title, name, st.N, st.M, st.Kappa), points)
		if err := cfg.emit(t); err != nil {
			return err
		}
		winners := WinnersTable(fmt.Sprintf("%s — %s: fastest method per error level", title, name),
			points, []float64{1e-1, 1e-2, 1e-3, 1e-4})
		if err := cfg.emit(winners); err != nil {
			return err
		}
	}
	return nil
}

// ExpWeighted is E2: the same sweep on triangle-weighted graphs.
func ExpWeighted(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	for _, name := range []string{"ba", "road"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g0, err := d.Generate(cfg.Scale, cfg.Seed)
		if err != nil {
			return err
		}
		g, err := graph.TriangleWeighted(g0)
		if err != nil {
			return err
		}
		st, err := ComputeStats(d, g, cfg.Seed)
		if err != nil {
			return err
		}
		queries, err := MakeQueries(g, cfg.Queries, UniformPairs, randx.New(cfg.Seed+78))
		if err != nil {
			return err
		}
		settings, err := settingsFor(g, st.Kappa, cfg.Seed+14)
		if err != nil {
			return err
		}
		points, err := RunSweep(settings, queries)
		if err != nil {
			return err
		}
		t := CurveTable(fmt.Sprintf("E2: weighted %s (n=%d m=%d kappa=%.1f)", name, st.N, st.M, st.Kappa), points)
		if err := cfg.emit(t); err != nil {
			return err
		}
	}
	return nil
}

// ExpScalability is E3: runtime growth with n at a fixed accuracy knob, for
// one global (PM), one nearly-linear (Lz), and the three landmark locals.
func ExpScalability(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	sizes := []int{500, 1000, 2000}
	if cfg.Scale >= Small {
		sizes = append(sizes, 4000, 8000)
	}
	if cfg.Scale >= Medium {
		sizes = append(sizes, 16000, 32000, 64000)
	}
	if cfg.Scale >= Large {
		sizes = append(sizes, 128000, 256000)
	}
	for _, kind := range []string{"er", "ba"} {
		t := NewTable(fmt.Sprintf("E3: scalability on %s (m = n log n)", kind),
			"n", "m", "pm", "lz", "abwalk", "push", "bipush")
		for _, n := range sizes {
			var g *graph.Graph
			var err error
			rng := randx.New(cfg.Seed + uint64(n))
			if kind == "er" {
				g, err = graph.ErdosRenyiGNM(n, int64(float64(n)*math.Log(float64(n))), rng)
			} else {
				g, err = graph.BarabasiAlbert(n, int(math.Max(2, math.Log(float64(n))/2)), rng)
			}
			if err != nil {
				return err
			}
			queries, err := MakeQueries(g, minInt(cfg.Queries, 10), UniformPairs, randx.New(cfg.Seed+99))
			if err != nil {
				return err
			}
			v, err := core.SelectLandmark(g, core.MaxDegree, rng)
			if err != nil {
				return err
			}
			timeOf := func(run PairFunc) time.Duration {
				start := time.Now()
				for _, q := range queries {
					if q.S == v || q.T == v {
						continue
					}
					if _, err := run(q.S, q.T); err != nil {
						return -1
					}
				}
				return time.Since(start) / time.Duration(len(queries))
			}
			ab, err := core.NewAbWalkEstimator(g, v, core.AbWalkOptions{Walks: 400}, rng.Split())
			if err != nil {
				return err
			}
			pu, err := core.NewPushEstimator(g, v, core.PushOptions{Theta: 1e-5, MaxOps: 1 << 28})
			if err != nil {
				return err
			}
			bp, err := core.NewBiPushEstimator(g, v, core.BiPushOptions{PushTheta: 1e-2, Walks: 256, MaxOps: 1 << 28}, rng.Split())
			if err != nil {
				return err
			}
			tPM := timeOf(func(s, t int) (float64, error) {
				r, err := baseline.PowerMethod(g, s, t, baseline.PowerMethodOptions{Steps: 64})
				return r.Value, err
			})
			tLz := timeOf(func(s, t int) (float64, error) {
				r, err := lanczos.Iteration(g, s, t, 20)
				return r.Value, err
			})
			tAb := timeOf(func(s, t int) (float64, error) { r, err := ab.Pair(s, t); return r.Value, err })
			tPu := timeOf(func(s, t int) (float64, error) { r, err := pu.Pair(s, t); return r.Value, err })
			tBp := timeOf(func(s, t int) (float64, error) { r, err := bp.Pair(s, t); return r.Value, err })
			t.AddRow(n, g.M(), tPM, tLz, tAb, tPu, tBp)
		}
		if err := cfg.emit(t); err != nil {
			return err
		}
	}
	return nil
}

// ExpMemory is E4: allocated bytes per query for each algorithm at low and
// high precision.
func ExpMemory(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	for _, name := range []string{"ba", "road"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g, err := d.Generate(cfg.Scale, cfg.Seed)
		if err != nil {
			return err
		}
		rng := randx.New(cfg.Seed + 5)
		v, err := core.SelectLandmark(g, core.MaxDegree, rng)
		if err != nil {
			return err
		}
		queries, err := MakeQueries(g, 3, UniformPairs, randx.New(cfg.Seed+101))
		if err != nil {
			return err
		}
		q := queries[0]
		if q.S == v || q.T == v {
			q = queries[1]
		}
		t := NewTable(fmt.Sprintf("E4: allocation per query on %s (n=%d)", name, g.N()),
			"algo", "precision", "alloc-bytes")
		type probe struct {
			algo, precision string
			fn              func()
		}
		ab, _ := core.NewAbWalkEstimator(g, v, core.AbWalkOptions{Walks: 200}, rng.Split())
		abHi, _ := core.NewAbWalkEstimator(g, v, core.AbWalkOptions{Walks: 2000}, rng.Split())
		pu, _ := core.NewPushEstimator(g, v, core.PushOptions{Theta: 1e-4, MaxOps: 1 << 28})
		puHi, _ := core.NewPushEstimator(g, v, core.PushOptions{Theta: 1e-6, MaxOps: 1 << 28})
		probes := []probe{
			{"pm", "low", func() { _, _ = baseline.PowerMethod(g, q.S, q.T, baseline.PowerMethodOptions{Steps: 32}) }},
			{"pm", "high", func() { _, _ = baseline.PowerMethod(g, q.S, q.T, baseline.PowerMethodOptions{Steps: 256}) }},
			{"lz", "low", func() { _, _ = lanczos.Iteration(g, q.S, q.T, 10) }},
			{"lz", "high", func() { _, _ = lanczos.Iteration(g, q.S, q.T, 80) }},
			{"abwalk", "low", func() { _, _ = ab.Pair(q.S, q.T) }},
			{"abwalk", "high", func() { _, _ = abHi.Pair(q.S, q.T) }},
			{"push", "low", func() { _, _ = pu.Pair(q.S, q.T) }},
			{"push", "high", func() { _, _ = puHi.Pair(q.S, q.T) }},
		}
		for _, p := range probes {
			bytes := MeasureAllocBytes(p.fn)
			t.AddRow(p.algo, p.precision, int64(bytes))
		}
		if err := cfg.emit(t); err != nil {
			return err
		}
	}
	return nil
}

// ExpLandmark is E5: the landmark-selection ablation — the experiment that
// matters most for the paper's thesis. For each strategy it reports the
// chosen vertex's degree, the mean sampled hitting time from random
// sources, and the accuracy/time of BiPush using that landmark.
func ExpLandmark(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	for _, name := range []string{"ba", "er", "ws", "road"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g, err := d.Generate(cfg.Scale, cfg.Seed)
		if err != nil {
			return err
		}
		queries, err := MakeQueries(g, cfg.Queries, UniformPairs, randx.New(cfg.Seed+103))
		if err != nil {
			return err
		}
		t := NewTable(fmt.Sprintf("E5: landmark strategies on %s (n=%d)", name, g.N()),
			"strategy", "landmark", "degree", "mean-hit(exact)", "bipush-mean-err", "bipush-mean-time")
		for _, strat := range core.AllStrategies() {
			rng := randx.New(cfg.Seed + 300 + uint64(strat))
			v, err := core.SelectLandmark(g, strat, rng)
			if err != nil {
				return err
			}
			// Exact mean hitting time h(·, v): one grounded solve.
			hit, err := lap.MeanHittingTimeTo(g, v, 1e-8)
			if err != nil {
				return err
			}
			bp, err := core.NewBiPushEstimator(g, v, core.BiPushOptions{PushTheta: 1e-2, Walks: 256, MaxOps: 1 << 28}, rng.Split())
			if err != nil {
				return err
			}
			pt, err := RunSetting(AlgoSetting{
				Algo: "bipush", Setting: strat.String(),
				Run: func(s, u int) (float64, error) {
					if s == v || u == v {
						return lap.ResistanceCG(g, s, u) // landmark collision: defer to exact
					}
					r, err := bp.Pair(s, u)
					return r.Value, err
				},
			}, queries)
			if err != nil {
				return err
			}
			t.AddRow(strat.String(), v, g.Degree(v), hit, pt.MeanAbsErr, pt.MeanTime)
		}
		if err := cfg.emit(t); err != nil {
			return err
		}
	}
	return nil
}

// ExpStability is E6: error as a function of each algorithm's own knob.
func ExpStability(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	for _, name := range []string{"ba", "road"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g, err := d.Generate(cfg.Scale, cfg.Seed)
		if err != nil {
			return err
		}
		rng := randx.New(cfg.Seed + 7)
		v, err := core.SelectLandmark(g, core.MaxDegree, rng)
		if err != nil {
			return err
		}
		queries, err := MakeQueries(g, cfg.Queries, UniformPairs, randx.New(cfg.Seed+105))
		if err != nil {
			return err
		}
		// Drop queries touching the landmark.
		kept := queries[:0]
		for _, q := range queries {
			if q.S != v && q.T != v {
				kept = append(kept, q)
			}
		}
		queries = kept
		var settings []AlgoSetting
		for _, walks := range []int{50, 100, 200, 400, 800, 1600, 3200} {
			walks := walks
			e, err := core.NewAbWalkEstimator(g, v, core.AbWalkOptions{Walks: walks}, rng.Split())
			if err != nil {
				return err
			}
			settings = append(settings, AlgoSetting{
				Algo: "abwalk", Setting: fmt.Sprintf("walks=%d", walks),
				Run: func(s, t int) (float64, error) { r, err := e.Pair(s, t); return r.Value, err },
			})
		}
		for _, eps := range []float64{1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6} {
			e, err := core.NewPushEstimator(g, v, core.PushOptions{Theta: eps, MaxOps: 1 << 26})
			if err != nil {
				return err
			}
			settings = append(settings, AlgoSetting{
				Algo: "push", Setting: fmt.Sprintf("theta=%.0e", eps),
				Run: func(s, t int) (float64, error) { r, err := e.Pair(s, t); return r.Value, err },
			})
		}
		for _, walks := range []int{32, 64, 128, 256, 512, 1024, 2048} {
			e, err := core.NewBiPushEstimator(g, v, core.BiPushOptions{PushTheta: 1e-2, Walks: walks, MaxOps: 1 << 28}, rng.Split())
			if err != nil {
				return err
			}
			settings = append(settings, AlgoSetting{
				Algo: "bipush", Setting: fmt.Sprintf("walks=%d", walks),
				Run: func(s, t int) (float64, error) { r, err := e.Pair(s, t); return r.Value, err },
			})
		}
		points, err := RunSweep(settings, queries)
		if err != nil {
			return err
		}
		t := CurveTable(fmt.Sprintf("E6: knob stability on %s (landmark=%d)", name, v), points)
		if err := cfg.emit(t); err != nil {
			return err
		}
	}
	return nil
}

// ExpSingleSource is E7: index build modes and single-source query accuracy.
func ExpSingleSource(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	for _, name := range []string{"ba", "ws"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		// Index experiments use one scale down: DiagExactCG is O(n) solves.
		scale := cfg.Scale
		if scale > Small {
			scale = Small
		}
		g, err := d.Generate(scale, cfg.Seed)
		if err != nil {
			return err
		}
		rng := randx.New(cfg.Seed + 9)
		v, err := core.SelectLandmark(g, core.MaxDegree, rng)
		if err != nil {
			return err
		}
		src := rng.Intn(g.N())
		for src == v {
			src = rng.Intn(g.N())
		}
		truth, err := exactSingleSource(g, src)
		if err != nil {
			return err
		}
		t := NewTable(fmt.Sprintf("E7: single-source via landmark index on %s (n=%d, src=%d)", name, g.N(), src),
			"diag-mode", "build-time", "index-bytes", "query-time", "mean-abs-err", "max-abs-err")
		for _, mode := range []core.DiagMode{core.DiagExactCG, core.DiagMC, core.DiagSketch} {
			start := time.Now()
			p, err := core.BuildPortfolio(g, core.PortfolioOptions{
				Landmarks: []int{v}, Mode: mode, WalksPerVertex: 96, SketchEpsilon: 0.25, Workers: cfg.Workers,
			}, rng.Split())
			if err != nil {
				return err
			}
			build := time.Since(start)
			start = time.Now()
			got, _, err := p.SingleSource(src, core.SingleSourceOptions{Tol: 1e-9})
			if err != nil {
				return err
			}
			qt := time.Since(start)
			var meanErr, maxErr float64
			for u := range got {
				e := math.Abs(got[u] - truth[u])
				meanErr += e
				if e > maxErr {
					maxErr = e
				}
			}
			meanErr /= float64(len(got))
			t.AddRow(mode.String(), build, p.MemoryBytes(), qt, meanErr, maxErr)
		}
		if err := cfg.emit(t); err != nil {
			return err
		}
	}
	return nil
}

func exactSingleSource(g *graph.Graph, src int) ([]float64, error) {
	// One grounded solve per landmark identity with an exact diag from the
	// dense path would be O(n³); instead ground at src itself:
	// r(src,t) = L_src⁻¹[t,t], so the DiagExactCG column of landmark src IS
	// the exact single-source vector.
	p, err := core.BuildPortfolio(g, core.PortfolioOptions{Landmarks: []int{src}}, nil)
	if err != nil {
		return nil, err
	}
	return p.Cols[0], nil
}

// ExpIdentities is E8: global accuracy sanity checks — closed forms and the
// Foster theorem via both UST sampling and the sketch.
func ExpIdentities(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	t := NewTable("E8: identity checks", "check", "graph", "expected", "measured", "abs-err")
	rng := randx.New(cfg.Seed + 11)

	// Closed forms.
	pg, err := graph.Path(64)
	if err != nil {
		return err
	}
	r, err := lap.ResistanceCG(pg, 3, 40)
	if err != nil {
		return err
	}
	t.AddRow("path r(3,40)=37", "path64", 37.0, r, math.Abs(r-37))

	cg, err := graph.Cycle(60)
	if err != nil {
		return err
	}
	r, err = lap.ResistanceCG(cg, 0, 15)
	if err != nil {
		return err
	}
	want := 15.0 * 45.0 / 60.0
	t.AddRow("cycle r(0,15)=k(n-k)/n", "cycle60", want, r, math.Abs(r-want))

	kg, err := graph.Complete(40)
	if err != nil {
		return err
	}
	r, err = lap.ResistanceCG(kg, 1, 2)
	if err != nil {
		return err
	}
	t.AddRow("complete r=2/n", "K40", 2.0/40, r, math.Abs(r-2.0/40))

	// Foster's theorem Σ_e w_e·r(e) = n−1, measured via the sketch.
	ba, err := graph.BarabasiAlbert(800, 3, rng)
	if err != nil {
		return err
	}
	sk, err := sketch.Build(ba, sketch.Options{Epsilon: 0.2}, rng)
	if err != nil {
		return err
	}
	var foster float64
	var ferr error
	ba.ForEachEdge(func(u, v int32, w float64) {
		if ferr != nil {
			return
		}
		re, err := sk.Resistance(int(u), int(v))
		if err != nil {
			ferr = err
			return
		}
		foster += w * re
	})
	if ferr != nil {
		return ferr
	}
	t.AddRow("Foster sum=n-1 (sketch)", "ba800", float64(ba.N()-1), foster, math.Abs(foster-float64(ba.N()-1)))

	// Foster via UST edge marginals: E[#tree edges] = n−1 exactly; the
	// per-edge marginal equals w_e·r(e).
	sampler := walk.NewSampler(ba)
	marg, err := walk.EdgeMarginals(sampler, 0, 40, rng)
	if err != nil {
		return err
	}
	var fosterUST float64
	for _, p := range marg {
		fosterUST += p
	}
	t.AddRow("Foster sum=n-1 (UST)", "ba800", float64(ba.N()-1), fosterUST, math.Abs(fosterUST-float64(ba.N()-1)))

	return cfg.emit(t)
}

// ExpLanczos is E9: the Lanczos comparators against PM and the landmark
// methods at matched error, on one small-κ and one large-κ dataset.
func ExpLanczos(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	return ExpQuerySweep(cfg, []string{"er", "road"}, "E9: Lanczos comparators")
}

// ExpPortfolio is E10: the portfolio-routing experiment. On the
// large-condition-number graphs (grid, small-world, path) it compares a
// single-landmark Push estimator against K-landmark portfolios at the SAME
// accuracy band: every query runs through PairWithTarget with one fixed
// eps, so the push threshold is derived from the a-priori bound
// theta = eps / (2(h(s,l)+h(t,l))) and the deterministic error is at most
// eps for every K. The only variable is which landmark the cost-law router
// sends each query to — push work scales with the hitting time to the
// landmark, so spreading K landmarks and routing to the cheapest one cuts
// mean query time on path-like graphs. Every K answers the same fixed
// query set; eps is set to 1% of the mean true resistance of that set.
func ExpPortfolio(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	ks := []int{1, 2, 4}
	type namedGraph struct {
		name string
		gen  func() (*graph.Graph, error)
	}
	gens := []namedGraph{
		{"road", func() (*graph.Graph, error) {
			d, err := DatasetByName("road")
			if err != nil {
				return nil, err
			}
			return d.Generate(cfg.Scale, cfg.Seed)
		}},
		{"ws", func() (*graph.Graph, error) {
			d, err := DatasetByName("ws")
			if err != nil {
				return nil, err
			}
			return d.Generate(cfg.Scale, cfg.Seed)
		}},
		// A long anisotropic grid: resistance grows linearly along the
		// length (quasi-1D), the regime where landmark placement matters.
		{"grid-long", func() (*graph.Graph, error) {
			return graph.Grid2D(maxInt(2, cfg.Scale.n()/4), 4, 0, nil)
		}},
		{"path", func() (*graph.Graph, error) { return graph.Path(cfg.Scale.n()) }},
	}
	for _, ng := range gens {
		g, err := ng.gen()
		if err != nil {
			return err
		}
		rng := randx.New(cfg.Seed + 13)

		// Build every portfolio first so the shared query set can exclude
		// pairs touching any chosen landmark (those would route to the
		// free column-copy path and skew the timing comparison).
		pfs := make([]*core.Portfolio, len(ks))
		builds := make([]time.Duration, len(ks))
		isLandmark := make(map[int]bool)
		for i, k := range ks {
			start := time.Now()
			p, err := core.BuildPortfolio(g, core.PortfolioOptions{
				K: k, Mode: core.DiagSketch, SketchEpsilon: 0.25, Workers: cfg.Workers,
			}, rng.Split())
			if err != nil {
				return err
			}
			builds[i] = time.Since(start)
			pfs[i] = p
			for _, v := range p.Landmarks {
				isLandmark[v] = true
			}
		}
		queries, err := MakeQueries(g, cfg.Queries, UniformPairs, randx.New(cfg.Seed+107))
		if err != nil {
			return err
		}
		kept := queries[:0]
		for _, q := range queries {
			if !isLandmark[q.S] && !isLandmark[q.T] {
				kept = append(kept, q)
			}
		}
		queries = kept
		truth := make([]float64, len(queries))
		var meanTruth float64
		for i, q := range queries {
			truth[i], err = lap.ResistanceCG(g, q.S, q.T)
			if err != nil {
				return err
			}
			meanTruth += truth[i]
		}
		meanTruth /= float64(len(queries))
		eps := 0.01 * meanTruth

		t := NewTable(fmt.Sprintf("E10: portfolio routing, push at eps=%.3g on %s (n=%d, %d queries)", eps, ng.name, g.N(), len(queries)),
			"k", "landmarks", "build-time", "mean-query-time", "mean-abs-err", "speedup-vs-k1")
		var baseTime time.Duration
		for i, k := range ks {
			p := pfs[i]
			ests := make([]*core.PushEstimator, p.K())
			for j, v := range p.Landmarks {
				ests[j], err = core.NewPushEstimator(g, v, core.PushOptions{MaxOps: 1 << 30})
				if err != nil {
					return err
				}
				// Warm the estimator's exact hitting-time cache (one
				// grounded solve, part of setup) outside the timed loop.
				warm := time.Now()
				if _, err := ests[j].PairWithTarget(queries[0].S, queries[0].T, eps); err != nil {
					return err
				}
				builds[i] += time.Since(warm)
			}
			var total time.Duration
			var meanErr float64
			for qi, q := range queries {
				j := p.Route(q.S, q.T)[0]
				start := time.Now()
				r, err := ests[j].PairWithTarget(q.S, q.T, eps)
				if err != nil {
					return err
				}
				total += time.Since(start)
				meanErr += math.Abs(r.Value - truth[qi])
			}
			mean := total / time.Duration(len(queries))
			meanErr /= float64(len(queries))
			speedup := "1.00x"
			if i == 0 {
				baseTime = mean
			} else if mean > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(baseTime)/float64(mean))
			}
			t.AddRow(k, fmt.Sprintf("%v", p.Landmarks), builds[i], mean, meanErr, speedup)
		}
		if err := cfg.emit(t); err != nil {
			return err
		}
	}
	return nil
}

// SortPointsByError orders curve points by mean absolute error (useful for
// readers scanning for crossover points).
func SortPointsByError(points []CurvePoint) {
	sort.Slice(points, func(i, j int) bool { return points[i].MeanAbsErr < points[j].MeanAbsErr })
}
