package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"slimsim"
	"slimsim/internal/casestudy"
	"slimsim/internal/modelgen"
)

// compile compiles one workload model: through the facade in untraced
// runs, one layer at a time under a set-up span in traced runs.
func (b *bench) compile(name, src string) (*compiled, error) {
	if b.tr == nil {
		return compileFacade(name, src)
	}
	var c *compiled
	err := b.tr.do(0, b.name+"/setup", "bench.setup", func(id int64) (err error) {
		c, err = compileLayers(b.tr, id, b.name+"/setup", name, src)
		return err
	})
	return c, err
}

// timeCompile compiles every (name, source) pair and returns the total
// compile time.
func (b *bench) timeCompile(names, srcs []string) ([]*compiled, time.Duration, error) {
	out := make([]*compiled, len(srcs))
	t0 := time.Now()
	for i, src := range srcs {
		c, err := b.compile(names[i], src)
		if err != nil {
			return nil, 0, err
		}
		out[i] = c
	}
	return out, time.Since(t0), nil
}

// ---- fig5-sweep ----------------------------------------------------------

// The Fig. 5 case study: the recoverable-fault launcher under all four
// strategies, each one shared-path sweep over the six bounds.
var (
	fig5Strategies = []string{"asap", "progressive", "local", "maxtime"}
	fig5Bounds     = []float64{200, 400, 600, 800, 1000, 1200}
)

const fig5Delta, fig5Epsilon = 0.05, 0.01

func fig5Source() (string, error) {
	return casestudy.Launcher(casestudy.DefaultLauncher(casestudy.FaultsRecoverable))
}

type fig5Workload struct {
	c *compiled
}

func (w *fig5Workload) setup(b *bench) (time.Duration, error) {
	src, err := fig5Source()
	if err != nil {
		return 0, err
	}
	cs, d, err := b.timeCompile([]string{"launcher"}, []string{src})
	if err != nil {
		return 0, err
	}
	w.c = cs[0]
	return d, nil
}

func (w *fig5Workload) round(b *bench, r *round) error {
	for si, s := range fig5Strategies {
		o := slimsim.Options{
			Goal: casestudy.LauncherGoal, Bound: fig5Bounds[len(fig5Bounds)-1], Strategy: s,
			Delta: fig5Delta, Epsilon: fig5Epsilon, Workers: b.nproc, Seed: r.opSeed(si),
		}
		r.op(opExact, "static "+s, func() (int, error) {
			rep, err := r.an.static(w.c, o)
			if err == nil && rep.Decided {
				err = fmt.Errorf("static verdict %v on a property that is not statically decidable", rep.Probability)
			}
			return 0, err
		})
		r.op(opAnalysis, "sweep "+s, func() (int, error) {
			rep, err := r.an.sweep(w.c, o, fig5Bounds)
			if err != nil {
				return 0, err
			}
			for _, cell := range rep.Cells {
				r.record(fmt.Sprintf("%s/u=%g", s, cell.Bound), cell.Probability)
			}
			return rep.Paths, checkFig5(s, rep, fig5Reference[s])
		})
	}
	return nil
}

// checkFig5 checks one strategy's sweep: a non-decreasing curve whose every
// cell lies in the Chernoff band around the pinned reference (itself an
// estimate at risk checkRisk, whose half-width widens the band).
func checkFig5(strategy string, rep slimsim.SweepReport, ref []float64) error {
	if len(ref) != len(rep.Cells) {
		return fmt.Errorf("%s: %d cells, reference has %d", strategy, len(rep.Cells), len(ref))
	}
	ps := make([]float64, len(rep.Cells))
	for i, cell := range rep.Cells {
		ps[i] = cell.Probability
		if err := checkChernoff(cell.Probability, cell.Paths, ref[i], chernoffHalfWidth(fig5ReferencePaths)); err != nil {
			return fmt.Errorf("%s u=%g: %w", strategy, cell.Bound, err)
		}
	}
	return checkMonotone(ps)
}

func (w *fig5Workload) finish(*bench) error { return nil }

// ---- table1 --------------------------------------------------------------

// Table I: the sensor-filter family, exact by the quotient at every size,
// by the explicit chain up to table1ExplicitMax, and simulated at
// table1SimSizes.
var (
	table1Sizes    = []int{2, 4, 6, 8, 10, 12, 14}
	table1SimSizes = []int{2, 4}
)

const (
	table1ExplicitMax = 6
	table1Bound       = 150
)

type table1Workload struct {
	cs map[int]*compiled
}

func (w *table1Workload) setup(b *bench) (time.Duration, error) {
	var names, srcs []string
	for _, n := range table1Sizes {
		src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
		if err != nil {
			return 0, err
		}
		names = append(names, fmt.Sprintf("sensorfilter-%d", n))
		srcs = append(srcs, src)
	}
	cs, d, err := b.timeCompile(names, srcs)
	if err != nil {
		return 0, err
	}
	w.cs = make(map[int]*compiled)
	for i, n := range table1Sizes {
		w.cs[n] = cs[i]
	}
	return d, nil
}

func (w *table1Workload) round(b *bench, r *round) error {
	goal := casestudy.SensorFilterGoal
	quotient := make(map[int]float64)
	for _, n := range table1Sizes {
		r.op(opExact, fmt.Sprintf("quotient N=%d", n), func() (int, error) {
			rep, err := r.an.exact(w.cs[n], goal, table1Bound, true)
			if err != nil {
				return 0, err
			}
			quotient[n] = rep.Probability
			r.record(fmt.Sprintf("quotient/%d", n), rep.Probability)
			return 0, nil
		})
	}
	for _, n := range table1Sizes {
		if n > table1ExplicitMax {
			break
		}
		r.op(opExact, fmt.Sprintf("explicit N=%d", n), func() (int, error) {
			rep, err := r.an.exact(w.cs[n], goal, table1Bound, false)
			if err != nil {
				return 0, err
			}
			r.record(fmt.Sprintf("explicit/%d", n), rep.Probability)
			return 0, checkExactAgree(quotient[n], rep.Probability)
		})
	}
	for i, n := range table1SimSizes {
		r.op(opAnalysis, fmt.Sprintf("simulate N=%d", n), func() (int, error) {
			rep, err := r.an.analyze(w.cs[n], slimsim.Options{
				Goal: goal, Bound: table1Bound, Strategy: "asap",
				Delta: 0.05, Epsilon: 0.01, Workers: b.nproc, Seed: r.opSeed(i),
			})
			if err != nil {
				return 0, err
			}
			r.record(fmt.Sprintf("sim/%d", n), rep.Probability)
			exact, ok := quotient[n]
			if !ok {
				return rep.Paths, fmt.Errorf("no exact reference for N=%d", n)
			}
			return rep.Paths, checkChernoff(rep.Probability, rep.Paths, exact, 0)
		})
	}
	return nil
}

func (w *table1Workload) finish(*bench) error { return nil }

// ---- rare-event ----------------------------------------------------------

// The rare-event workload: importance splitting on the pinned wear chain
// (exact P ≈ 8e-6) and the three sequential stopping rules on a wear chain
// of the same generator class at P ≈ 1.3e-3, where the relative-error rule
// stops after ~1e5 paths (at 8e-6 it would need ~1e8).
const (
	rareSplitSeed  = 30 // modelgen rareevent seed of the splitting model
	rareSeqSeed    = 0  // modelgen rareevent seed of the sequential-rule model
	rareEffort     = 8192
	rareRelErr     = 0.2
	rareSplitLabel = "splitting"
)

var rareSequential = []slimsim.Options{
	{Method: "gauss"},
	{Method: "chow-robbins"},
	{RelErr: rareRelErr},
}

type rareWorkload struct {
	split, seq   *compiled
	gSplit, gSeq *modelgen.Generated

	exactSplit float64
	splits     map[uint64]float64 // splitting estimates by seed
}

func (w *rareWorkload) setup(b *bench) (time.Duration, error) {
	var err error
	if w.gSplit, err = modelgen.Generate(modelgen.RareEvent, rareSplitSeed); err != nil {
		return 0, err
	}
	if w.gSeq, err = modelgen.Generate(modelgen.RareEvent, rareSeqSeed); err != nil {
		return 0, err
	}
	cs, d, err := b.timeCompile([]string{"wearchain-30", "wearchain-0"}, []string{w.gSplit.Source, w.gSeq.Source})
	if err != nil {
		return 0, err
	}
	w.split, w.seq = cs[0], cs[1]
	return d, nil
}

func (w *rareWorkload) round(b *bench, r *round) error {
	var exactSeq float64
	r.op(opExact, "exact splitting model", func() (int, error) {
		rep, err := r.an.exact(w.split, w.gSplit.Goal, w.gSplit.Bound, true)
		w.exactSplit = rep.Probability
		return 0, err
	})
	r.op(opExact, "exact sequential model", func() (int, error) {
		rep, err := r.an.exact(w.seq, w.gSeq.Goal, w.gSeq.Bound, true)
		exactSeq = rep.Probability
		return 0, err
	})
	r.op(opAnalysis, rareSplitLabel, func() (int, error) {
		rep, err := r.an.split(w.split, w.splitOptions(b, r.opSeed(0)))
		if err != nil {
			return 0, err
		}
		r.record(rareSplitLabel, rep.Probability)
		// Keyed by seed: the warm-up and the first measured round, and a
		// traced round and its untraced twin, run on equal seeds and
		// count once.
		if w.splits == nil {
			w.splits = make(map[uint64]float64)
		}
		w.splits[r.opSeed(0)] = rep.Probability
		if math.IsNaN(rep.Probability) || rep.Probability < 0 || rep.Probability > 1 {
			return rep.Branches, fmt.Errorf("invalid splitting estimate %v", rep.Probability)
		}
		return rep.Branches, nil
	})
	for i, o := range rareSequential {
		o.Goal, o.Bound, o.Strategy = w.gSeq.Goal, w.gSeq.Bound, "asap"
		o.Workers, o.Seed = b.nproc, r.opSeed(1+i)
		label := sequentialLabel(o)
		r.op(opAnalysis, label, func() (int, error) {
			rep, err := r.an.analyze(w.seq, o)
			if err != nil {
				return 0, err
			}
			r.record(label, rep.Probability)
			if o.RelErr > 0 {
				return rep.Paths, checkRelative(rep.Probability, rep.Paths, exactSeq)
			}
			return rep.Paths, checkChernoff(rep.Probability, rep.Paths, exactSeq, 0)
		})
	}
	return nil
}

// sequentialLabel names a sequential sub-run by its stopping rule.
func sequentialLabel(o slimsim.Options) string {
	if o.RelErr > 0 {
		return "relerr"
	}
	return o.Method
}

func (w *rareWorkload) splitOptions(b *bench, seed uint64) slimsim.Options {
	return slimsim.Options{
		Goal: w.gSplit.Goal, Bound: w.gSplit.Bound, Strategy: "asap",
		Effort: rareEffort, Workers: b.nproc, Seed: seed,
	}
}

// finish holds the splitting runs of the whole run, one per distinct seed,
// to the difftest splitting tier's band, topping up to splitMinRuns seeds
// when the run was too short.
func (w *rareWorkload) finish(b *bench) error {
	if w.splits == nil {
		w.splits = make(map[uint64]float64)
	}
	for i := 0; len(w.splits) < splitMinRuns; i++ {
		seed := mix(b.seed, 1<<32+uint64(i)) | 1
		if _, ok := w.splits[seed]; ok {
			continue
		}
		rep, err := w.split.m.AnalyzeSplitting(w.splitOptions(b, seed))
		if err != nil {
			return err
		}
		w.splits[seed] = rep.Probability
	}
	ps := make([]float64, 0, len(w.splits))
	for _, p := range w.splits {
		ps = append(ps, p)
	}
	sort.Float64s(ps)
	return checkSplitting(ps, w.exactSplit)
}
