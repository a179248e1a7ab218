package main

import (
	"fmt"

	"slimsim"
	"slimsim/internal/absint"
	"slimsim/internal/bisim"
	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/sim"
	"slimsim/internal/slim"
	"slimsim/internal/splitting"
	"slimsim/internal/stats"
	"slimsim/internal/strategy"
	"slimsim/internal/symmetry"
)

// compiled is one workload model in both forms the benchmark drives: the
// public facade (untraced rounds measure what a library user sees) and the
// layer artifacts the traced rounds call into one layer at a time.
type compiled struct {
	name string
	src  string
	m    *slimsim.Model

	// Layer artifacts, set only by compileLayers.
	built    *model.Built
	rt       *network.Runtime
	analysis *absint.Result
}

// compileFacade compiles src through slimsim.Compile.
func compileFacade(name, src string) (*compiled, error) {
	cm, err := slimsim.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	return &compiled{name: name, src: src, m: cm.Model()}, nil
}

// compileLayers runs the stages of slimsim.Compile one layer at a time,
// each inside its own span, and keeps the layer artifacts. The facade model
// is compiled too, so a traced round can compare its answers with it.
func compileLayers(tr *tracer, parent int64, run, name, src string) (*compiled, error) {
	c, err := compileFacade(name, src)
	if err != nil {
		return nil, err
	}
	var parsed *slim.Model
	if err := tr.do(parent, run, "slim.parse", func(int64) (err error) {
		parsed, err = slim.Parse(src)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do(parent, run, "model.instantiate", func(int64) (err error) {
		c.built, err = model.Instantiate(parsed)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do(parent, run, "network.new", func(int64) (err error) {
		c.rt, err = network.New(c.built.Net)
		return err
	}); err != nil {
		return nil, err
	}
	_ = tr.do(parent, run, "absint.analyze", func(int64) error {
		c.analysis = absint.Analyze(c.rt)
		return nil
	})
	if mask, any := c.analysis.PruneMask(); any {
		if err := tr.do(parent, run, "network.prune", func(int64) error { return c.rt.Prune(mask) }); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// analyzer is the set of analyses a workload round makes. facade answers
// them through the public API; layered calls each layer's functions itself
// and records a span around every call.
type analyzer interface {
	static(c *compiled, o slimsim.Options) (*slimsim.ReachReport, error)
	sweep(c *compiled, o slimsim.Options, bounds []float64) (slimsim.SweepReport, error)
	analyze(c *compiled, o slimsim.Options) (slimsim.Report, error)
	split(c *compiled, o slimsim.Options) (slimsim.SplittingReport, error)
	exact(c *compiled, goal string, bound float64, symmetric bool) (slimsim.CTMCReport, error)
}

// maxStates caps every exact state-space construction of the benchmark.
const maxStates = 1 << 21

type facade struct{}

func (facade) static(c *compiled, o slimsim.Options) (*slimsim.ReachReport, error) {
	return c.m.CheckStatic(o)
}

func (facade) sweep(c *compiled, o slimsim.Options, bounds []float64) (slimsim.SweepReport, error) {
	return c.m.AnalyzeSweep(o, bounds)
}

func (facade) analyze(c *compiled, o slimsim.Options) (slimsim.Report, error) {
	return c.m.Analyze(o)
}

func (facade) split(c *compiled, o slimsim.Options) (slimsim.SplittingReport, error) {
	return c.m.AnalyzeSplitting(o)
}

func (facade) exact(c *compiled, goal string, bound float64, symmetric bool) (slimsim.CTMCReport, error) {
	if symmetric {
		return c.m.CheckCTMC(goal, bound, maxStates)
	}
	return c.m.CheckCTMC(goal, bound, maxStates, slimsim.WithoutSymmetry())
}

// layered performs the analyses of the facade with one span per layer
// call, under the round span parent.
type layered struct {
	tr     *tracer
	parent int64
	run    string
}

func (l layered) do(name string, fn func() error) error {
	return l.tr.do(l.parent, l.run, name, func(int64) error { return fn() })
}

// property compiles the options' reachability property the way
// slimsim.Model.CompileProperty does for the goal/bound form.
func (l layered) property(c *compiled, o slimsim.Options) (prop.Property, error) {
	var goal expr.Expr
	err := l.do("model.compile_goal", func() (err error) {
		goal, err = c.built.CompileExpr(o.Goal)
		return err
	})
	return prop.Reach(o.Bound, goal), err
}

// config resolves the run knobs exactly as the facade's defaults do.
func config(o slimsim.Options, p prop.Property) (sim.AnalysisConfig, error) {
	name := o.Strategy
	if name == "" {
		name = "progressive"
	}
	strat, err := strategy.ByName(name)
	if err != nil {
		return sim.AnalysisConfig{}, err
	}
	method := stats.MethodChernoff
	if o.Method != "" {
		if method, err = stats.ParseMethod(o.Method); err != nil {
			return sim.AnalysisConfig{}, err
		}
	}
	delta, eps, seed := o.Delta, o.Epsilon, o.Seed
	if delta == 0 {
		delta = 0.05
	}
	if eps == 0 {
		eps = 0.01
	}
	if seed == 0 {
		seed = 1
	}
	return sim.AnalysisConfig{
		Config:  sim.Config{Strategy: strat, Property: p, Locks: sim.LockViolates},
		Params:  stats.Params{Delta: delta, Epsilon: eps},
		Method:  method,
		RelErr:  o.RelErr,
		Workers: o.Workers,
		Seed:    seed,
	}, nil
}

func (l layered) static(c *compiled, o slimsim.Options) (*slimsim.ReachReport, error) {
	p, err := l.property(c, o)
	if err != nil {
		return nil, err
	}
	var rep absint.ReachReport
	err = l.do("absint.decide", func() error { rep = c.analysis.Decide(p); return nil })
	return &rep, err
}

func (l layered) sweep(c *compiled, o slimsim.Options, bounds []float64) (slimsim.SweepReport, error) {
	o.Bound = bounds[len(bounds)-1]
	p, err := l.property(c, o)
	if err != nil {
		return slimsim.SweepReport{}, err
	}
	cfg, err := config(o, p)
	if err != nil {
		return slimsim.SweepReport{}, err
	}
	var rep slimsim.SweepReport
	err = l.do("sim.analyze_sweep", func() (err error) {
		rep, err = sim.AnalyzeSweep(c.rt, cfg, bounds)
		return err
	})
	return rep, err
}

func (l layered) analyze(c *compiled, o slimsim.Options) (slimsim.Report, error) {
	p, err := l.property(c, o)
	if err != nil {
		return slimsim.Report{}, err
	}
	cfg, err := config(o, p)
	if err != nil {
		return slimsim.Report{}, err
	}
	var rep slimsim.Report
	err = l.do("sim.analyze", func() (err error) {
		rep, err = sim.Analyze(c.rt, cfg)
		return err
	})
	return rep, err
}

func (l layered) split(c *compiled, o slimsim.Options) (slimsim.SplittingReport, error) {
	p, err := l.property(c, o)
	if err != nil {
		return slimsim.SplittingReport{}, err
	}
	cfg, err := config(o, p)
	if err != nil {
		return slimsim.SplittingReport{}, err
	}
	var static absint.ReachReport
	_ = l.do("absint.decide", func() error { static = c.analysis.Decide(p); return nil })
	var rep slimsim.SplittingReport
	err = l.do("splitting.analyze", func() (err error) {
		rep, err = splitting.Analyze(c.rt, splitting.Config{AnalysisConfig: cfg, Levels: o.Levels, Effort: o.Effort, Static: &static})
		return err
	})
	return rep, err
}

// exact follows slimsim.Model.CheckCTMC: the counter-abstracted quotient
// when a certified symmetry covers the goal (and symmetric is set), the
// explicit chain otherwise, then lumping and uniformization.
func (l layered) exact(c *compiled, goalSrc string, bound float64, symmetric bool) (slimsim.CTMCReport, error) {
	var goal expr.Expr
	if err := l.do("model.compile_goal", func() (err error) {
		goal, err = c.built.CompileExpr(goalSrc)
		return err
	}); err != nil {
		return slimsim.CTMCReport{}, err
	}
	var res *ctmc.BuildResult
	if symmetric {
		var red *symmetry.Reduction
		_ = l.do("symmetry.detect", func() error {
			if red = symmetry.Detect(c.rt); red != nil && !red.Invariant(goal) {
				red = nil
			}
			return nil
		})
		if red != nil {
			if err := l.do("symmetry.quotient_build", func() (err error) {
				res, err = symmetry.BuildQuotient(c.rt, red, goal, maxStates)
				return err
			}); err != nil {
				return slimsim.CTMCReport{}, err
			}
		}
	}
	if res == nil {
		if err := l.do("ctmc.build", func() (err error) {
			res, err = ctmc.Build(c.rt, goal, maxStates)
			return err
		}); err != nil {
			return slimsim.CTMCReport{}, err
		}
	}
	var lumped *bisim.Result
	if err := l.do("bisim.lump", func() (err error) {
		lumped, err = bisim.Lump(res.Chain)
		return err
	}); err != nil {
		return slimsim.CTMCReport{}, err
	}
	var p float64
	err := l.do("ctmc.uniformize", func() (err error) {
		p, err = lumped.Quotient.ReachWithin(bound, 1e-10)
		return err
	})
	return slimsim.CTMCReport{Probability: p, States: res.Chain.NumStates(), Explored: res.Explored, LumpedStates: lumped.Blocks}, err
}
