package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"slimsim"
	"slimsim/internal/serve"
)

// spec is the metric list of BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkEmitted asserts that res carries exactly the named metrics, each
// with its unit and a finite value, and that nothing failed.
func checkEmitted(t *testing.T, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		case m.Value != m.Value:
			t.Errorf("metric %s is NaN", name)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not listed in BENCHMARK.json", name)
		}
	}
}

// TestEveryWorkloadEmitsEndToEndMetrics runs each workload at smoke size
// (one warm-up and the minimum three measured rounds).
func TestEveryWorkloadEmitsEndToEndMetrics(t *testing.T) {
	s := loadSpec(t)
	want := make(map[string]string)
	for _, m := range s.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			b := newBench(w.Name, 7, 0.001, false)
			if b == nil {
				t.Fatalf("unknown workload %s", w.Name)
			}
			res, err := b.run()
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, want)
		})
	}
}

// TestTracedRunEmitsPerLayerMetrics runs the cheapest workload traced: the
// probes are the same on every workload, so one run covers every name.
func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	s := loadSpec(t)
	want := make(map[string]string)
	for _, m := range s.PerLayer {
		want[m.Name] = m.Unit
	}
	b := newBench("rare-event", 7, 0.001, true)
	res, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, want)
	for _, l := range layers {
		if v := res.Metrics["self."+l+"_ms"].Value; !(v > 0) {
			t.Errorf("layer %s has no self time", l)
		}
	}
}

func TestChecksTripOnCorruptedReferences(t *testing.T) {
	const n = 18445
	cases := []struct {
		name      string
		good, bad func() error
	}{
		{"chernoff",
			func() error { return checkChernoff(0.5, n, 0.51, 0) },
			func() error { return checkChernoff(0.5, n, 0.6, 0) }},
		{"relative",
			func() error { return checkRelative(1.3e-3, 84000, 1.27e-3) },
			func() error { return checkRelative(1.3e-3, 84000, 5.2e-3) }},
		{"exact agreement",
			func() error { return checkExactAgree(0.2787045950092488, 0.27870459500924893) },
			func() error { return checkExactAgree(0.2787045950092488, 0.2787045950092488+1e-8) }},
		{"splitting",
			func() error { return checkSplitting([]float64{7.6e-6, 8.4e-6, 8.1e-6, 7.9e-6, 8.3e-6}, 7.96e-6) },
			func() error { return checkSplitting([]float64{7.6e-6, 8.4e-6, 8.1e-6, 7.9e-6, 8.3e-6}, 7.96e-5) }},
		{"monotone",
			func() error { return checkMonotone([]float64{0.1, 0.2, 0.2}) },
			func() error { return checkMonotone([]float64{0.1, 0.3, 0.2}) }},
		{"fig5 reference",
			func() error { return checkFig5("asap", sweepAt(fig5Reference["asap"], n), fig5Reference["asap"]) },
			func() error {
				bad := append([]float64(nil), fig5Reference["asap"]...)
				bad[3] += 0.1
				return checkFig5("asap", sweepAt(fig5Reference["asap"], n), bad)
			}},
		{"serve response",
			func() error { _, err := checkResponse(response(t, 300, 600), 2, 0.5); return err },
			func() error { _, err := checkResponse(response(t, 300, 600), 2, 0.7); return err }},
		{"memo replay",
			func() error { return errIf(!replays([]byte("a"), [][]byte{[]byte("b"), []byte("a")})) },
			func() error { return errIf(!replays([]byte("a"), [][]byte{[]byte("b")})) }},
		{"repeat run",
			func() error { return sameEstimates(roundWith("p", 0.25), roundWith("p", 0.25)) },
			func() error { return sameEstimates(roundWith("p", 0.25), roundWith("p", 0.25000000000000006)) }},
	}
	for _, c := range cases {
		if err := c.good(); err != nil {
			t.Errorf("%s: correct input rejected: %v", c.name, err)
		}
		if err := c.bad(); err == nil {
			t.Errorf("%s: corrupted reference accepted", c.name)
		}
	}
}

// TestCorruptedFig5ReferenceFailsRound drives a whole fig5 round against a
// corrupted reference: exactly the corrupted strategy's sweep fails.
func TestCorruptedFig5ReferenceFailsRound(t *testing.T) {
	saved := fig5Reference["local"]
	defer func() { fig5Reference["local"] = saved }()
	bad := append([]float64(nil), saved...)
	bad[5] = 0.9
	fig5Reference["local"] = bad

	b := newBench("fig5-sweep", 3, 0.001, false)
	w := b.w.(*fig5Workload)
	if _, err := w.setup(b); err != nil {
		t.Fatal(err)
	}
	r := newRound(b, 1, facade{})
	if err := w.round(b, r); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || r.attempted != 2*len(fig5Strategies) {
		t.Fatalf("failed %d of %d operations, want 1 of %d", r.failed, r.attempted, 2*len(fig5Strategies))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "bench.round", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "serve.request", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "serve.request", Start: ms(30), End: ms(70)}, // overlaps 2
		{ID: 4, Parent: 3, Name: "sim.analyze", Start: ms(40), End: ms(60)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"bench": ms(40), "serve": ms(60), "sim": ms(20)}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, self[l], d)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %v, want 4", q)
	}
}

// sweepAt builds a sweep report whose cells read ps from n paths.
func sweepAt(ps []float64, n int) slimsim.SweepReport {
	var rep slimsim.SweepReport
	for i, p := range ps {
		rep.Cells = append(rep.Cells, slimsim.CellReport{Bound: fig5Bounds[i], Probability: p, Paths: n})
	}
	return rep
}

// response builds a successful serve response reporting successes of n
// samples from 2 workers.
func response(t *testing.T, successes, n int) serveResult {
	t.Helper()
	report, err := json.Marshal(map[string]any{
		"workers": 2,
		"timing":  map[string]any{"wallClockMs": 1.5},
		"sampling": map[string]any{
			"samples": n, "successes": successes, "estimate": float64(successes) / float64(n),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return serveResult{resp: serve.Response{Report: report}}
}

func roundWith(key string, p float64) *round {
	r := &round{estimates: map[string]float64{}}
	r.record(key, p)
	return r
}

func errIf(bad bool) error {
	if bad {
		return os.ErrInvalid
	}
	return nil
}

// TestSplittingRunsCountOncePerSeed runs the rare-event round twice on the
// same seed, as the warm-up and the first measured round do: the splitting
// band must see one estimate, not two identical ones.
func TestSplittingRunsCountOncePerSeed(t *testing.T) {
	b := newBench("rare-event", 5, 0.001, false)
	w := b.w.(*rareWorkload)
	if _, err := w.setup(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.round(b, newRound(b, 1, facade{})); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.splits) != 1 {
		t.Fatalf("%d splitting estimates from two rounds on one seed, want 1", len(w.splits))
	}
}

// TestServeLatenciesAreRequests checks that on serve-mix the latency list
// and its rate cover the HTTP requests only, not the exact references.
func TestServeLatenciesAreRequests(t *testing.T) {
	r := &round{byLabel: [2]map[string][]time.Duration{{}, {}}}
	r.addOp(opExact, "exact", 40*time.Millisecond, 0, 0, nil)
	r.addOp(opAnalysis, "request", time.Millisecond, 10, time.Millisecond, nil)
	r.wall = time.Second
	if got := len(r.latencies()); got != 2 {
		t.Fatalf("%d latencies outside serve-mix, want 2", got)
	}
	r.reqWall = 100 * time.Millisecond
	if got := r.latencies(); len(got) != 1 || got[0] != time.Millisecond {
		t.Fatalf("serve-mix latencies %v, want the one request", got)
	}
	if got := endToEnd([]*round{r})["req_per_s"].Value; got != 10 {
		t.Fatalf("req_per_s %v, want 10 (one request in 100 ms)", got)
	}
}

// TestServeWarmupPrefix checks that the warm-up mix is a prefix of the
// first measured round's: whole segments, at least serveWarmupRequests
// requests, ids below the count it returns.
func TestServeWarmupPrefix(t *testing.T) {
	hot, cold, err := serveModels()
	if err != nil {
		t.Fatal(err)
	}
	segs, total, err := genMix(7, serveRoundRequests, 2, hot, cold)
	if err != nil {
		t.Fatal(err)
	}
	pre, n := prefix(segs, serveWarmupRequests)
	if n < serveWarmupRequests || n >= total {
		t.Fatalf("prefix holds %d of %d requests, want at least %d", n, total, serveWarmupRequests)
	}
	for i, s := range pre {
		if s != segs[i] {
			t.Fatalf("segment %d is not the round's", i)
		}
		for _, q := range append(append([]serveReq(nil), s.reqs...), s.pair...) {
			if q.id >= n {
				t.Fatalf("request id %d outside the prefix of %d", q.id, n)
			}
		}
	}
}

// TestP99PoolsOnlyWithATail checks that req_p99_ms is pooled over rounds
// only when ten operations lie beyond it, and is otherwise the median of
// the rounds' p99s, so one slow operation does not set it.
func TestP99PoolsOnlyWithATail(t *testing.T) {
	mk := func(n int, slow time.Duration) *round {
		r := &round{byLabel: [2]map[string][]time.Duration{{}, {}}, wall: time.Second}
		for i := 0; i < n; i++ {
			r.addOp(opAnalysis, fmt.Sprint(i), time.Millisecond, 0, 0, nil)
		}
		r.addOp(opAnalysis, "slow", slow, 0, 0, nil)
		return r
	}
	few := []*round{mk(9, 10*time.Millisecond), mk(9, 10*time.Millisecond), mk(9, time.Second)}
	if got := endToEnd(few)["req_p99_ms"].Value; math.Abs(got-9.19) > 1e-9 {
		t.Fatalf("req_p99_ms %v over 30 operations, want 9.19 (median of the rounds' p99s)", got)
	}
	many := []*round{mk(999, time.Second)}
	if got := endToEnd(many)["req_p99_ms"].Value; got != 1 {
		t.Fatalf("req_p99_ms %v over 1000 operations, want 1 (pooled)", got)
	}
}
