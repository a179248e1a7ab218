package main

import (
	"fmt"
	"runtime"
	"time"

	"slimsim"
	"slimsim/internal/absint"
	"slimsim/internal/bisim"
	"slimsim/internal/casestudy"
	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/lint"
	"slimsim/internal/model"
	"slimsim/internal/modelgen"
	"slimsim/internal/network"
	"slimsim/internal/parallel"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/sim"
	"slimsim/internal/slim"
	"slimsim/internal/stats"
	"slimsim/internal/symmetry"
)

// layers lists every layer a traced run reports self time for.
var layers = []string{
	"bench", "slim", "lint", "model", "absint", "network", "expr", "sim",
	"parallel", "stats", "splitting", "ctmc", "bisim", "symmetry", "serve", "telemetry",
}

// traced is the per-layer run: traced rounds alternate with untraced rounds
// on equal seeds for half the time budget (their analysis times give the
// tracing overhead, their estimates must agree bit for bit), then every
// layer probe runs once.
func (b *bench) traced() (map[string]metric, error) {
	first, err := b.warmup()
	if err != nil {
		return nil, err
	}
	var tracedTimes, plainTimes []float64
	start := time.Now()
	for i := 1; len(tracedTimes) < minRounds || time.Since(start).Seconds() < b.seconds/2; i++ {
		tr := newRound(b, i, nil)
		tr.tr = b.tr
		err := b.tr.do(0, tr.run, "bench.round", func(id int64) error {
			tr.span = id
			tr.an = layered{tr: b.tr, parent: id, run: tr.run}
			if err := b.prepare(tr); err != nil {
				return err
			}
			return b.w.round(b, tr)
		})
		b.absorb(tr)
		if err != nil {
			return nil, err
		}
		pr := newRound(b, i, facade{})
		if err = b.prepare(pr); err == nil {
			err = b.w.round(b, pr)
		}
		b.absorb(pr)
		if err != nil {
			return nil, err
		}
		tracedTimes = append(tracedTimes, tr.analysisTime().Seconds())
		plainTimes = append(plainTimes, pr.analysisTime().Seconds())
		b.attempted++
		if err := sameEstimates(pr, tr); err != nil {
			b.fail("%s: traced and untraced rounds disagree: %v", b.name, err)
		}
		if i == 1 {
			b.attempted++
			if err := sameEstimates(first, pr); err != nil {
				b.fail("%s: repeat run with equal seed and workers: %v", b.name, err)
			}
		}
		b.rounds = i
	}
	m := map[string]metric{
		"trace.overhead_frac": {median(tracedTimes)/median(plainTimes) - 1, "ratio"},
	}
	if err := b.probes(m); err != nil {
		return nil, err
	}
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	for _, l := range layers {
		m["self."+l+"_ms"] = metric{self[l].Seconds() * 1000, "ms"}
	}
	m["trace.spans"] = metric{float64(len(spans)), "count"}
	return m, nil
}

// probeSpec names the inputs of the model-dependent layer probes for one
// workload.
type probeSpec struct {
	frontSrc   string // source for the front-end probe (largest model)
	src        string // model for the network, sim and parallel probes
	goal       string
	bound      float64
	strategy   string
	bounds     []float64 // non-nil: parallel probe drives RunMulti
	relErr     float64   // positive: parallel probe uses the relative-error rule
	delta, eps float64
}

func (b *bench) probeSpec() (probeSpec, error) {
	launcher, err := fig5Source()
	if err != nil {
		return probeSpec{}, err
	}
	sf := func(n int) string {
		src, _ := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
		return src
	}
	switch b.name {
	case "fig5-sweep":
		return probeSpec{frontSrc: launcher, src: launcher, goal: casestudy.LauncherGoal, bound: 1200,
			strategy: "progressive", bounds: fig5Bounds, delta: fig5Delta, eps: fig5Epsilon}, nil
	case "table1":
		return probeSpec{frontSrc: sf(14), src: sf(2), goal: casestudy.SensorFilterGoal, bound: table1Bound,
			strategy: "asap", delta: 0.05, eps: 0.01}, nil
	case "rare-event":
		g, err := modelgen.Generate(modelgen.RareEvent, rareSeqSeed)
		if err != nil {
			return probeSpec{}, err
		}
		return probeSpec{frontSrc: g.Source, src: g.Source, goal: g.Goal, bound: g.Bound,
			strategy: "asap", relErr: rareRelErr, delta: 0.05, eps: 0.01}, nil
	default: // serve-mix: cold launcher compiles, short sensor-filter runs
		return probeSpec{frontSrc: launcher, src: sf(2), goal: casestudy.SensorFilterGoal, bound: 150,
			strategy: "asap", delta: 0.05, eps: 0.01}, nil
	}
}

// probe runs fn inside a root span for one probe.
func (b *bench) probe(name string, fn func(parent int64, run string) error) error {
	run := b.name + "/probe/" + name
	return b.tr.do(0, run, "bench.probe_"+name, func(id int64) error { return fn(id, run) })
}

// probes runs every layer probe and adds its metrics to m.
func (b *bench) probes(m map[string]metric) error {
	spec, err := b.probeSpec()
	if err != nil {
		return err
	}
	steps := []struct {
		name string
		fn   func(probeSpec, map[string]metric, int64, string) error
	}{
		{"frontend", b.probeFrontend},
		{"walk", b.probeWalk},
		{"sim", b.probeSim},
		{"parallel", b.probeParallel},
		{"stats", b.probeStats},
		{"splitting", b.probeSplitting},
		{"exact", b.probeExact},
		{"serve", b.probeServe},
		{"telemetry", b.probeTelemetry},
	}
	for _, s := range steps {
		if err := b.probe(s.name, func(parent int64, run string) error { return s.fn(spec, m, parent, run) }); err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return nil
}

// probeReps is how many times a millisecond-scale probe repeats, and
// slowProbeReps one that takes a large share of a second; the median is
// reported.
const probeReps, slowProbeReps = 7, 3

// timed runs fn reps times inside spans named name and returns the median
// duration in milliseconds.
func (b *bench) timed(parent int64, run, name string, reps int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := b.tr.do(parent, run, name, func(int64) error { return fn() }); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(t0).Seconds()*1000)
	}
	return median(ms), nil
}

// probeFrontend times each compile stage on the workload's largest model.
func (b *bench) probeFrontend(spec probeSpec, m map[string]metric, parent int64, run string) error {
	var parsed *slim.Model
	var built *model.Built
	var rt *network.Runtime
	stages := []struct {
		metric, span string
		fn           func() error
	}{
		{"slim.parse_ms", "slim.parse", func() (err error) { parsed, err = slim.Parse(spec.frontSrc); return err }},
		{"lint.lint_ms", "lint.run", func() error {
			if diags := lint.RunSource(spec.frontSrc); lint.HasErrors(diags) {
				return fmt.Errorf("model has lint errors")
			}
			return nil
		}},
		{"model.instantiate_ms", "model.instantiate", func() (err error) { built, err = model.Instantiate(parsed); return err }},
		{"network.new_ms", "network.new", func() (err error) { rt, err = network.New(built.Net); return err }},
		{"absint.analyze_ms", "absint.analyze", func() error { absint.Analyze(rt); return nil }},
	}
	for _, s := range stages {
		ms, err := b.timed(parent, run, s.span, probeReps, s.fn)
		if err != nil {
			return err
		}
		m[s.metric] = metric{ms, "ms"}
	}
	return nil
}

// probeModel compiles the probe model and its reachability property.
func probeModel(spec probeSpec) (*compiled, prop.Property, error) {
	c, err := compileLayers(nil, 0, "", "probe", spec.src)
	if err != nil {
		return nil, prop.Property{}, err
	}
	goal, err := c.built.CompileExpr(spec.goal)
	return c, prop.Reach(spec.bound, goal), err
}

// walkStep is one recorded transition of the probe walk.
type walkStep struct {
	from  network.State
	delay float64
	move  network.Move
}

// probeWalk drives the network runtime directly: a seeded random walk over
// Scratch.Moves / AdvanceInto / ApplyInto records its states and
// transitions, and each operation is then timed in a batch over the
// recording, as is the compiled goal.
func (b *bench) probeWalk(spec probeSpec, m map[string]metric, parent int64, run string) error {
	c, p, err := probeModel(spec)
	if err != nil {
		return err
	}
	rt := c.rt
	sc := rt.NewScratch(0)
	src := rng.New(b.seed | 1)
	const walkSteps, restartEvery = 20000, 64
	var steps []walkStep
	_ = b.tr.do(parent, run, "network.walk", func(int64) error {
		cur, nxt := rt.NewState(), rt.NewState()
		restart := func() error { return sc.InitialStateInto(&cur) }
		if err := restart(); err != nil {
			return err
		}
		for k := 0; len(steps) < walkSteps; k++ {
			st, ok := walkOne(sc, &cur, src)
			if ok {
				st.from = cur.Clone()
				if sc.AdvanceInto(&nxt, &cur, st.delay) == nil && sc.ApplyInto(&cur, &nxt, &st.move) == nil {
					steps = append(steps, st)
				} else {
					ok = false
				}
			}
			if !ok || k%restartEvery == restartEvery-1 {
				if err := restart(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if len(steps) < walkSteps {
		return fmt.Errorf("walk recorded %d of %d steps", len(steps), walkSteps)
	}
	hits, misses := sc.CacheStats()
	m["network.movecache_hit_rate"] = metric{float64(hits) / float64(hits+misses), "ratio"}

	nsPer := func(name string, fn func(st *walkStep) error) (float64, error) {
		var ns []float64
		for rep := 0; rep < probeReps; rep++ {
			t0 := time.Now()
			err := b.tr.do(parent, run, name, func(int64) error {
				for i := range steps {
					if err := fn(&steps[i]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(len(steps)))
		}
		return median(ns), nil
	}
	cur, nxt := rt.NewState(), rt.NewState()
	moves, err := nsPer("network.moves", func(st *walkStep) error {
		if len(sc.Moves(&st.from).All) == 0 {
			return fmt.Errorf("recorded state has no moves")
		}
		return nil
	})
	if err != nil {
		return err
	}
	advApply, err := nsPer("network.advance_apply", func(st *walkStep) error {
		if err := sc.AdvanceInto(&nxt, &st.from, st.delay); err != nil {
			return err
		}
		return sc.ApplyInto(&cur, &nxt, &st.move)
	})
	if err != nil {
		return err
	}
	goal := expr.CompileBool(p.Goal)
	eval, err := nsPer("expr.eval", func(st *walkStep) error {
		_, err := goal(sc.Env(&st.from))
		return err
	})
	if err != nil {
		return err
	}
	m["network.moves_ns"] = metric{moves, "ns"}
	m["network.advance_apply_ns"] = metric{advApply, "ns"}
	m["expr.eval_ns"] = metric{eval, "ns"}
	return nil
}

// walkOne picks a random enabled move of cur: a guarded move at the
// earliest point of its window before the maximal delay, or a Markovian one
// after an exponential delay. ok is false when nothing can fire.
func walkOne(sc *network.Scratch, cur *network.State, src *rng.Source) (walkStep, bool) {
	cm := sc.Moves(cur)
	maxDelay, _, _, err := sc.MaxDelay(cur)
	if err != nil {
		return walkStep{}, false
	}
	var opts []walkStep
	for i := range cm.Guarded {
		w, err := sc.Window(cur, &cm.Guarded[i])
		if err != nil {
			continue
		}
		if d, ok := w.MinIn(0, maxDelay); ok {
			opts = append(opts, walkStep{delay: d, move: cm.Guarded[i]})
		}
	}
	for i := range cm.Markovian {
		if d := src.Exp(cm.Markovian[i].Rate); d <= maxDelay {
			opts = append(opts, walkStep{delay: d, move: cm.Markovian[i]})
		}
	}
	if len(opts) == 0 {
		return walkStep{}, false
	}
	return opts[src.IntN(len(opts))], true
}

// probeSim times a single-goroutine Engine.SamplePath loop.
func (b *bench) probeSim(spec probeSpec, m map[string]metric, parent int64, run string) error {
	c, p, err := probeModel(spec)
	if err != nil {
		return err
	}
	cfg, err := config(slimsim.Options{Strategy: spec.strategy}, p)
	if err != nil {
		return err
	}
	eng, err := sim.NewEngine(c.rt, cfg.Config)
	if err != nil {
		return err
	}
	src := rng.New(b.seed | 1)
	for i := 0; i < 200; i++ { // warm the scratch pool and move cache
		if _, err := eng.SamplePath(src); err != nil {
			return err
		}
	}
	const budget = 400 * time.Millisecond
	var before, after runtime.MemStats
	var paths, steps int
	var elapsed time.Duration
	err = b.tr.do(parent, run, "sim.sample_path_loop", func(int64) error {
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for elapsed < budget {
			for i := 0; i < 64; i++ {
				res, err := eng.SamplePath(src)
				if err != nil {
					return err
				}
				steps += res.Steps
			}
			paths += 64
			elapsed = time.Since(t0)
		}
		runtime.ReadMemStats(&after)
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(paths)
	m["sim.path_us"] = metric{elapsed.Seconds() * 1e6 / n, "us"}
	m["sim.steps_per_path"] = metric{float64(steps) / n, "count"}
	m["sim.allocs_per_path"] = metric{float64(after.Mallocs-before.Mallocs) / n, "count"}
	m["sim.bytes_per_path"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / n, "bytes"}
	return nil
}

// fixedProbePaths is the size of the probe's RunFixed pass: one splitting
// stage at the rare-event workload's effort.
const fixedProbePaths = rareEffort

// probeParallel wraps the sampler handed to the workload's collector
// (RunMulti for sweeps, Run otherwise) to measure busy time, handoff cost
// and overdraw at nproc workers, and compares with a 1-worker run. A second
// pass does the same for RunFixed, splitting's collector, over a fixed
// number of paths.
func (b *bench) probeParallel(spec probeSpec, m map[string]metric, parent int64, run string) error {
	c, p, err := probeModel(spec)
	if err != nil {
		return err
	}
	cfg, err := config(slimsim.Options{Strategy: spec.strategy}, p)
	if err != nil {
		return err
	}
	var sweep *prop.Sweep
	if spec.bounds != nil {
		if sweep, err = prop.NewSweep(p, spec.bounds); err != nil {
			return err
		}
	}
	eng, err := sim.NewEngine(c.rt, cfg.Config)
	if err != nil {
		return err
	}
	params := stats.Params{Delta: spec.delta, Epsilon: spec.eps}
	type result struct {
		wall     time.Duration
		busy     time.Duration
		calls    int
		consumed int
	}
	collect := func(workers int, fixed bool) (result, error) {
		root := rng.New(b.seed | 1)
		srcs := make([]*rng.Source, workers)
		busy := make([]time.Duration, workers)
		calls := make([]int, workers)
		for w := range srcs {
			srcs[w] = root.Split(uint64(w))
		}
		sample := func(w int) (sim.PathResult, error) {
			t0 := time.Now()
			res, err := eng.SamplePath(srcs[w])
			busy[w] += time.Since(t0)
			calls[w]++
			return res, err
		}
		var res result
		t0 := time.Now()
		switch {
		case fixed:
			// Worker w runs indices w, w+k, w+2k, …, so i%workers names
			// the worker and its source.
			out, err := parallel.RunFixed(fixedProbePaths, func(i int) (bool, error) {
				r, err := sample(i % workers)
				return r.Satisfied, err
			}, parallel.FixedOptions{Workers: workers})
			if err != nil {
				return res, err
			}
			res.consumed = len(out)
		case sweep != nil:
			me, err := stats.NewMultiEstimator(stats.MethodChernoff, params, sweep.Cells())
			if err != nil {
				return res, err
			}
			err = parallel.RunMulti(me, func(w, _ int, out []bool) error {
				r, err := sample(w)
				sweep.Outcomes(r.Satisfied, r.DecidedAt, out)
				return err
			}, parallel.MultiOptions{Workers: workers})
			if err != nil {
				return res, err
			}
			res.consumed = me.Paths()
		default:
			var gen stats.Generator
			if spec.relErr > 0 {
				gen, err = stats.NewRelative(spec.delta, spec.relErr)
			} else {
				gen, err = stats.NewChernoff(params)
			}
			if err != nil {
				return res, err
			}
			est, err := parallel.Run(gen, func(w, _ int) (bool, error) {
				r, err := sample(w)
				return r.Satisfied, err
			}, parallel.Options{Workers: workers})
			if err != nil {
				return res, err
			}
			res.consumed = est.Trials
		}
		res.wall = time.Since(t0)
		for w := range busy {
			res.busy += busy[w]
			res.calls += calls[w]
		}
		return res, nil
	}
	n1 := b.nproc
	for _, pass := range []struct {
		prefix, span string
		fixed        bool
	}{{"parallel.", "parallel.run", false}, {"parallel.fixed_", "parallel.run_fixed", true}} {
		var n, one result
		if err := b.tr.do(parent, run, pass.span, func(int64) (err error) { n, err = collect(n1, pass.fixed); return err }); err != nil {
			return err
		}
		if err := b.tr.do(parent, run, pass.span+"_1worker", func(int64) (err error) { one, err = collect(1, pass.fixed); return err }); err != nil {
			return err
		}
		capacity := time.Duration(n1) * n.wall
		m[pass.prefix+"busy_frac"] = metric{float64(n.busy) / float64(capacity), "ratio"}
		m[pass.prefix+"handoff_ns_per_sample"] = metric{float64(capacity-n.busy) / float64(n.consumed), "ns"}
		m[pass.prefix+"scaling_eff"] = metric{one.wall.Seconds() / (float64(n1) * n.wall.Seconds()), "ratio"}
		if !pass.fixed { // a fixed count draws no more than it consumes
			m["parallel.overdraw_frac"] = metric{float64(n.calls-n.consumed) / float64(n.consumed), "ratio"}
		}
	}
	return nil
}

// probeStats records the paths each stopping rule consumes on the
// rare-event workload's sequential model, and the fixed Chernoff budget.
func (b *bench) probeStats(spec probeSpec, m map[string]metric, parent int64, run string) error {
	g, err := modelgen.Generate(modelgen.RareEvent, rareSeqSeed)
	if err != nil {
		return err
	}
	c, err := compileLayers(nil, 0, "", "probe", g.Source)
	if err != nil {
		return err
	}
	an := layered{tr: b.tr, parent: parent, run: run}
	subruns := append([]slimsim.Options{{Method: "chernoff"}}, rareSequential...)
	for i, o := range subruns {
		o.Goal, o.Bound, o.Strategy, o.Workers, o.Seed = g.Goal, g.Bound, "asap", b.nproc, mix(b.seed, uint64(i))|1
		label := sequentialLabel(o)
		var rep slimsim.Report
		if err := b.tr.do(parent, run, "stats.subrun_"+label, func(int64) (err error) {
			rep, err = an.analyze(c, o)
			return err
		}); err != nil {
			return err
		}
		m["stats.paths_"+label] = metric{float64(rep.Paths), "count"}
	}
	return nil
}

// probeSplitting runs the rare-event workload's splitting analysis.
func (b *bench) probeSplitting(_ probeSpec, m map[string]metric, parent int64, run string) error {
	w := &rareWorkload{}
	g, err := modelgen.Generate(modelgen.RareEvent, rareSplitSeed)
	if err != nil {
		return err
	}
	w.gSplit = g
	if w.split, err = compileLayers(nil, 0, "", "probe", g.Source); err != nil {
		return err
	}
	an := layered{tr: b.tr, parent: parent, run: run}
	var rep slimsim.SplittingReport
	ms, err := b.timed(parent, run, "bench.splitting", slowProbeReps, func() (err error) {
		rep, err = an.split(w.split, w.splitOptions(b, b.seed|1))
		return err
	})
	if err != nil {
		return err
	}
	m["splitting.analyze_ms"] = metric{ms, "ms"}
	m["splitting.branches"] = metric{float64(rep.Branches), "count"}
	m["splitting.steps_per_branch"] = metric{float64(rep.TotalSteps) / float64(rep.Branches), "count"}
	return nil
}

// The exact probe builds the explicit sensor-filter chain at
// exactProbeExplicit and the counter-abstracted quotient at
// exactProbeQuotient.
const exactProbeExplicit, exactProbeQuotient = 6, 14

// probeExact times the exact stack layer by layer.
func (b *bench) probeExact(_ probeSpec, m map[string]metric, parent int64, run string) error {
	load := func(n int) (*compiled, expr.Expr, error) {
		src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
		if err != nil {
			return nil, nil, err
		}
		c, err := compileLayers(nil, 0, "", "probe", src)
		if err != nil {
			return nil, nil, err
		}
		goal, err := c.built.CompileExpr(casestudy.SensorFilterGoal)
		return c, goal, err
	}
	x, goal, err := load(exactProbeExplicit)
	if err != nil {
		return err
	}
	var res *ctmc.BuildResult
	var allocs []float64
	buildMs, err := b.timed(parent, run, "ctmc.build", slowProbeReps, func() (err error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err = ctmc.Build(x.rt, goal, maxStates)
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		return err
	})
	if err != nil {
		return err
	}
	var lumped *bisim.Result
	lumpMs, err := b.timed(parent, run, "bisim.lump", probeReps, func() (err error) {
		lumped, err = bisim.Lump(res.Chain)
		return err
	})
	if err != nil {
		return err
	}
	solveMs, err := b.timed(parent, run, "ctmc.uniformize", probeReps, func() error {
		_, err := lumped.Quotient.ReachWithin(table1Bound, 1e-10)
		return err
	})
	if err != nil {
		return err
	}
	q, qgoal, err := load(exactProbeQuotient)
	if err != nil {
		return err
	}
	var red *symmetry.Reduction
	detectMs, err := b.timed(parent, run, "symmetry.detect", probeReps, func() error {
		if red = symmetry.Detect(q.rt); red == nil || !red.Invariant(qgoal) {
			return fmt.Errorf("no certified symmetry covers the goal")
		}
		return nil
	})
	if err != nil {
		return err
	}
	var qres *ctmc.BuildResult
	quotientMs, err := b.timed(parent, run, "symmetry.quotient_build", slowProbeReps, func() (err error) {
		qres, err = symmetry.BuildQuotient(q.rt, red, qgoal, maxStates)
		return err
	})
	if err != nil {
		return err
	}
	m["ctmc.build_ms"] = metric{buildMs, "ms"}
	m["ctmc.states"] = metric{float64(res.Chain.NumStates()), "count"}
	m["ctmc.build_alloc_mb"] = metric{median(allocs), "MB"}
	m["ctmc.uniformize_ms"] = metric{solveMs, "ms"}
	m["bisim.lump_ms"] = metric{lumpMs, "ms"}
	m["bisim.blocks"] = metric{float64(lumped.Blocks), "count"}
	m["symmetry.detect_ms"] = metric{detectMs, "ms"}
	m["symmetry.quotient_build_ms"] = metric{quotientMs, "ms"}
	m["symmetry.quotient_states"] = metric{float64(qres.Chain.NumStates()), "count"}
	return nil
}

// probeServe reports the serve.* metrics: from the traced run's own rounds
// on serve-mix, from one smaller traced mix elsewhere.
func (b *bench) probeServe(_ probeSpec, m map[string]metric, parent int64, run string) error {
	w, ok := b.w.(*serveWorkload)
	if !ok {
		w = &serveWorkload{requests: serveProbeRequests}
		if _, err := w.setup(b); err != nil {
			return err
		}
		r := newRound(b, 1, layered{tr: b.tr, parent: parent, run: run})
		r.tr, r.span, r.run = b.tr, parent, run
		err := w.prepare(b, r)
		if err == nil {
			err = w.round(b, r)
		}
		b.absorb(r)
		if err != nil {
			return err
		}
	}
	for k, v := range w.layerMetrics(0) {
		m[k] = v
	}
	return nil
}

// probeTelemetry compares the fig5 asap sweep with and without a telemetry
// collector attached, alternating, and reports the relative slowdown.
func (b *bench) probeTelemetry(_ probeSpec, m map[string]metric, parent int64, run string) error {
	src, err := fig5Source()
	if err != nil {
		return err
	}
	c, err := compileFacade("launcher", src)
	if err != nil {
		return err
	}
	var with, without []float64
	for i := 0; i < 3; i++ {
		for _, attach := range []bool{false, true} {
			o := slimsim.Options{Goal: casestudy.LauncherGoal, Strategy: "asap",
				Delta: fig5Delta, Epsilon: fig5Epsilon, Workers: b.nproc, Seed: mix(b.seed, uint64(i)) | 1}
			name := "sim.analyze_sweep"
			if attach {
				o.Telemetry = slimsim.NewTelemetry(slimsim.TelemetryInfo{Tool: "perfbench"})
				name = "telemetry.attached_sweep"
			}
			t0 := time.Now()
			if err := b.tr.do(parent, run, name, func(int64) error {
				_, err := c.m.AnalyzeSweep(o, fig5Bounds)
				return err
			}); err != nil {
				return err
			}
			if attach {
				with = append(with, time.Since(t0).Seconds())
			} else {
				without = append(without, time.Since(t0).Seconds())
			}
		}
	}
	m["telemetry.overhead_frac"] = metric{median(with)/median(without) - 1, "ratio"}
	return nil
}
