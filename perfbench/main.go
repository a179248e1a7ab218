// Command perfbench is the repository benchmark: it runs one of four
// workloads (fig5-sweep, table1, rare-event, serve-mix) for a fixed time,
// checks every output against an exact or pinned reference, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output. See README.md in this directory for the
// workloads, metrics and how each per-layer metric relates to an
// end-to-end one.
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostConfig is printed before the result so every measurement carries the
// configuration it was taken under.
type hostConfig struct {
	Host       string  `json:"host"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"goVersion"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Runners    int     `json:"daemonRunners"`
	Clients    int     `json:"clients"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Rounds     int     `json:"rounds"`
}

// spanDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/spans"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fig5-sweep, table1, rare-event or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "measured time per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	reference := fs.Bool("fig5-reference", false, "recompute the pinned fig5 reference table and print it as Go source")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *reference {
		if err := printFig5Reference(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	b := newBench(*name, *seed, *seconds, *trace == 1)
	if b == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.tr != nil {
		path := fmt.Sprintf("%s/%s-seed%d.json", spanDir, b.name, b.seed)
		if err := b.tr.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	cfg, _ := json.Marshal(b.hostConfig())
	fmt.Println(string(cfg))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench is one benchmark run of one workload.
type bench struct {
	name    string
	seed    uint64
	seconds float64
	nproc   int
	w       workload
	tr      *tracer // nil in untraced runs

	attempted, failed int
	rounds            int
}

func newBench(name string, seed uint64, seconds float64, traced bool) *bench {
	w := workloadByName(name)
	if w == nil {
		return nil
	}
	// GOMAXPROCS, sampling workers, daemon runners and client connections
	// all equal the CPUs this process may run on.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	b := &bench{name: name, seed: seed, seconds: seconds, nproc: nproc, w: w}
	if traced {
		b.tr = newTracer()
	}
	return b
}

func (b *bench) hostConfig() hostConfig {
	host, _ := os.Hostname()
	return hostConfig{
		Host: host, GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		NProc: b.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: b.nproc, Runners: b.nproc, Clients: b.nproc,
		Workload: b.name, Seed: b.seed, Seconds: b.seconds, Trace: b.tr != nil, Rounds: b.rounds,
	}
}

// fail records a failed operation and explains it on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// absorb adds a round's operation counts to the run's.
func (b *bench) absorb(r *round) {
	b.attempted += r.attempted
	b.failed += r.failed
}

// After one untimed warm-up, set-up is repeated at least setupMinReps
// times and for at least setupWindow, at most setupMaxReps times; setup_s
// is the median. A set-up takes 0.3 to 10 ms, so a fixed count would time
// it over a few dozen milliseconds, where one busy spell of a shared host
// moves the median.
const (
	setupMinReps = 41
	setupMaxReps = 2000
	setupWindow  = 500 * time.Millisecond
)

func (b *bench) run() (result, error) {
	if _, err := b.w.setup(b); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	// A traced run reports no setup_s: it sets up once.
	var setups []float64
	for start := time.Now(); b.tr == nil && len(setups) < setupMaxReps &&
		(len(setups) < setupMinReps || time.Since(start) < setupWindow); {
		d, err := b.w.setup(b)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	var metrics map[string]metric
	var err error
	if b.tr == nil {
		metrics, err = b.measure()
		if err == nil {
			metrics["setup_s"] = metric{median(setups), "s"}
		}
	} else {
		metrics, err = b.traced()
	}
	if err != nil {
		return result{}, err
	}
	b.attempted++ // the run-spanning checks of finish
	if err := b.w.finish(b); err != nil {
		b.fail("%s: %v", b.name, err)
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// warmup runs one untimed round with the seeds of the first measured
// round, so caches fill and lazy set-up finishes before timing, and the
// first measured round can be checked against it for bit-identical
// estimates.
func (b *bench) warmup() (*round, error) {
	r := newRound(b, 1, facade{})
	r.warmup = true
	err := b.prepare(r)
	if err == nil {
		err = b.w.round(b, r)
	}
	b.absorb(r)
	return r, err
}

// measure runs untimed warm-up then timed rounds until the time budget is
// spent, and derives the end-to-end metrics.
func (b *bench) measure() (map[string]metric, error) {
	first, err := b.warmup()
	if err != nil {
		return nil, err
	}
	var rounds []*round
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start).Seconds() < b.seconds {
		r := newRound(b, len(rounds)+1, facade{})
		if err := b.prepare(r); err != nil {
			b.absorb(r)
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		heap := startHeapSampler()
		t0 := time.Now()
		err := b.w.round(b, r)
		r.wall = time.Since(t0)
		r.peakHeap = heap.stop()
		runtime.ReadMemStats(&after)
		r.alloc = after.TotalAlloc - before.TotalAlloc
		b.absorb(r)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	b.rounds = len(rounds)
	b.attempted++
	if err := sameEstimates(first, rounds[0]); err != nil {
		b.fail("%s: repeat run with equal seed and workers: %v", b.name, err)
	}
	return endToEnd(rounds), nil
}

// minRounds is the least number of measured rounds of any run.
const minRounds = 3

// tailSamples is how many operations must lie beyond a percentile pooled
// over rounds.
const tailSamples = 10

// endToEnd derives the end-to-end metrics from the measured rounds.
// req_p50_ms and req_per_s are medians of the rounds' own values, so one
// round in a slow spell of the host moves them no more than one slow
// operation; a p50 pooled over rounds would sit between the slowest of one
// kind of operation and the fastest of the next. req_p99_ms is pooled over
// all rounds when at least tailSamples operations lie beyond it
// (serve-mix); with fewer it would be the single slowest operation of the
// run, so it is the median of the rounds' own p99s instead.
func endToEnd(rounds []*round) map[string]metric {
	var alloc, peak, lat, roundP50, roundP99, roundRate []float64
	var paths int
	var sampling time.Duration
	for _, r := range rounds {
		alloc = append(alloc, float64(r.alloc)/(1<<20))
		peak = append(peak, float64(r.peakHeap)/(1<<20))
		paths += r.paths
		sampling += r.sampling
		var own []float64
		for _, o := range r.latencies() {
			own = append(own, o.Seconds()*1000)
		}
		lat = append(lat, own...)
		roundP50 = append(roundP50, quantile(own, 0.50))
		roundP99 = append(roundP99, quantile(own, 0.99))
		roundRate = append(roundRate, float64(len(own))/r.latencyWall().Seconds())
	}
	p99 := median(roundP99)
	if float64(len(lat))*(1-0.99) >= tailSamples {
		p99 = quantile(lat, 0.99)
	}
	return map[string]metric{
		"analysis_s":   {kindTime(rounds, opAnalysis), "s"},
		"paths_per_s":  {float64(paths) / sampling.Seconds(), "1/s"},
		"exact_s":      {kindTime(rounds, opExact), "s"},
		"alloc_mb":     {median(alloc), "MB"},
		"peak_heap_mb": {median(peak), "MB"},
		"req_p50_ms":   {median(roundP50), "ms"},
		"req_p99_ms":   {p99, "ms"},
		"req_per_s":    {median(roundRate), "1/s"},
	}
}

// kindTime is a round's time in operations of one kind: the sum over the
// operations of each one's median time across rounds, times the number of
// times a round runs it, so one slow round moves it no more than one slow
// operation. On serve-mix, whose requests differ from round to round, the
// analyses are the median wall time of the rounds' request mixes.
func kindTime(rounds []*round, kind opKind) float64 {
	if kind == opAnalysis && rounds[0].reqWall > 0 {
		var per []float64
		for _, r := range rounds {
			per = append(per, r.reqWall.Seconds())
		}
		return median(per)
	}
	var total float64
	for label, first := range rounds[0].byLabel[kind] {
		var per []float64
		for _, r := range rounds {
			for _, d := range r.byLabel[kind][label] {
				per = append(per, d.Seconds())
			}
		}
		total += median(per) * float64(len(first))
	}
	return total
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
