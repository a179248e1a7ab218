package main

import (
	"fmt"
	"math"
)

// checkRisk is the risk of every statistical band the benchmark checks
// against: a correct program leaves a band with probability at most 1e-9,
// so on no seed in practice.
const checkRisk = 1e-9

// chernoffHalfWidth is the Chernoff–Hoeffding half-width of a mean of n
// Bernoulli samples at risk checkRisk.
func chernoffHalfWidth(n int) float64 {
	return math.Sqrt(math.Log(2/checkRisk) / (2 * float64(n)))
}

// checkChernoff accepts an estimate from n paths when it lies within the
// Chernoff band around the exact answer, widened by refWidth, the half-width
// of the reference itself when that is an estimate too.
func checkChernoff(est float64, n int, exact, refWidth float64) error {
	if n <= 0 || math.IsNaN(est) || est < 0 || est > 1 {
		return fmt.Errorf("invalid estimate %v from %d paths", est, n)
	}
	if w := chernoffHalfWidth(n) + refWidth; math.Abs(est-exact) > w {
		return fmt.Errorf("estimate %.6f from %d paths outside ±%.4f around reference %.6f", est, n, w, exact)
	}
	return nil
}

// checkRelative accepts a relative-error estimate from n paths: the
// multiplicative Chernoff bound P(|X−np| ≥ r·np) ≤ 2exp(−r²np/3) gives, at
// risk checkRisk, the relative band r = sqrt(3 ln(2/risk) / (n·p)). Where
// that band exceeds 1 the absolute Chernoff band applies instead.
func checkRelative(est float64, n int, exact float64) error {
	if exact <= 0 {
		return fmt.Errorf("reference %v is not positive", exact)
	}
	r := math.Sqrt(3 * math.Log(2/checkRisk) / (float64(n) * exact))
	if r > 1 {
		return checkChernoff(est, n, exact, 0)
	}
	if math.Abs(est-exact) > r*exact {
		return fmt.Errorf("estimate %.4e from %d paths outside ±%.0f%% around exact %.4e", est, n, 100*r, exact)
	}
	return nil
}

// exactAgreement bounds |quotient − explicit| for the two exact flows.
const exactAgreement = 1e-9

// checkExactAgree accepts two exact answers that agree within
// exactAgreement.
func checkExactAgree(quotient, explicit float64) error {
	if d := math.Abs(quotient - explicit); !(d <= exactAgreement) {
		return fmt.Errorf("quotient %.12f and explicit %.12f differ by %.3e", quotient, explicit, d)
	}
	return nil
}

// Splitting band, as in the difftest splitting tier: the mean of several
// independently seeded runs must lie within splitRelBand of the exact
// answer, or within four standard errors of the runs' own spread, or — below
// splitDeepExact — within a factor splitDeepFactor.
const (
	splitRelBand    = 0.5
	splitDeepExact  = 1e-6
	splitDeepFactor = 4.0
	splitMinRuns    = 5
)

// checkSplitting accepts the splitting estimates ests of one model against
// its exact answer.
func checkSplitting(ests []float64, exact float64) error {
	if len(ests) < 2 {
		return fmt.Errorf("need at least 2 splitting runs, have %d", len(ests))
	}
	var mean float64
	for _, e := range ests {
		mean += e
	}
	mean /= float64(len(ests))
	diff := math.Abs(mean - exact)
	if exact > 0 && diff/exact <= splitRelBand {
		return nil
	}
	var ss float64
	for _, e := range ests {
		ss += (e - mean) * (e - mean)
	}
	sd := math.Sqrt(ss / float64(len(ests)-1))
	if diff <= 4*sd/math.Sqrt(float64(len(ests))) {
		return nil
	}
	if exact > 0 && exact < splitDeepExact {
		if ratio := mean / exact; ratio >= 1/splitDeepFactor && ratio <= splitDeepFactor {
			return nil
		}
	}
	return fmt.Errorf("splitting mean %.4e of %d runs outside the %g relative band around exact %.4e", mean, len(ests), splitRelBand, exact)
}

// checkMonotone accepts a reachability curve that never decreases in the
// time bound.
func checkMonotone(ps []float64) error {
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			return fmt.Errorf("curve decreases at cell %d: %v < %v", i, ps[i], ps[i-1])
		}
	}
	return nil
}
