package main

import (
	"fmt"
	"io"
	"runtime"

	"slimsim"
	"slimsim/internal/casestudy"
)

// The launcher has continuous battery dynamics, so no exact backend answers
// Fig. 5. Its reference is a pinned estimate at risk checkRisk instead,
// regenerated with --fig5-reference: one sweep per strategy at
// δ = checkRisk and ε = fig5ReferenceEpsilon from seed fig5ReferenceSeed.
const (
	fig5ReferenceSeed    = 0x5eed_f165
	fig5ReferenceEpsilon = 0.005
	// fig5ReferencePaths is the Chernoff budget of the reference sweeps.
	fig5ReferencePaths = 428_329
)

// fig5Reference holds P(<> [0,u] failure) per strategy at fig5Bounds.
var fig5Reference = map[string][]float64{
	"asap":        {0.01870524760172671, 0.11655059545349486, 0.28052501698460763, 0.46014162010977544, 0.6198926526104933, 0.7427468137809955},       // 428329 paths
	"progressive": {0.006452983571040018, 0.03119564633727812, 0.08002026479645319, 0.1498194145154776, 0.2350903160888009, 0.32924457601516594},      // 428329 paths
	"local":       {0.006534696459964186, 0.031324052305587526, 0.07893932000868491, 0.14813612900363973, 0.2335681217008421, 0.32752627069378915},    // 428329 paths
	"maxtime":     {0.004732343595693965, 0.017647649353651047, 0.037132671381111246, 0.062129811429998905, 0.09081803940428969, 0.12282847997684024}, // 428329 paths
}

// printFig5Reference recomputes fig5Reference and prints it as Go source.
func printFig5Reference(w io.Writer) error {
	src, err := fig5Source()
	if err != nil {
		return err
	}
	c, err := compileFacade("launcher", src)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "var fig5Reference = map[string][]float64{")
	for _, s := range fig5Strategies {
		rep, err := c.m.AnalyzeSweep(slimsim.Options{
			Goal: casestudy.LauncherGoal, Strategy: s,
			Delta: checkRisk, Epsilon: fig5ReferenceEpsilon,
			Workers: runtime.NumCPU(), Seed: fig5ReferenceSeed,
		}, fig5Bounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\t%q: {", s)
		for i, cell := range rep.Cells {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%v", cell.Probability)
		}
		fmt.Fprintf(w, "}, // %d paths\n", rep.Paths)
	}
	fmt.Fprintln(w, "}")
	return nil
}
