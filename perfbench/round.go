package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// workload is one of the benchmark's input sets.
type workload interface {
	// setup compiles the workload's models (or starts the daemon) and
	// returns the time it took; run repeats it to time set-up.
	setup(b *bench) (time.Duration, error)
	// round runs the workload's operations once, with the seeds of r and
	// through r's analyzer, recording every operation in r.
	round(b *bench, r *round) error
	// finish runs the checks that span several rounds.
	finish(b *bench) error
}

// preparer is a workload with per-round work that must stay outside the
// round's measured window: serve-mix solves its exact references before the
// daemon starts, so they count toward exact_s but not toward the request
// latencies, the round's wall time or its memory.
type preparer interface {
	prepare(b *bench, r *round) error
}

// prepare runs the workload's per-round preparation, if it has one.
func (b *bench) prepare(r *round) error {
	if p, ok := b.w.(preparer); ok {
		return p.prepare(b, r)
	}
	return nil
}

func workloadByName(name string) workload {
	switch name {
	case "fig5-sweep":
		return &fig5Workload{}
	case "table1":
		return &table1Workload{}
	case "rare-event":
		return &rareWorkload{}
	case "serve-mix":
		return &serveWorkload{}
	}
	return nil
}

// opKind classifies an operation for the end-to-end metrics.
type opKind int

const (
	opAnalysis opKind = iota // statistical: counts toward analysis_s
	opExact                  // exact backends: counts toward exact_s
)

// round is one pass over a workload's operations.
type round struct {
	seed uint64
	an   analyzer
	run  string  // span run id
	tr   *tracer // set in traced rounds only
	span int64   // root span of the round in traced rounds

	mu        sync.Mutex
	ops       [2][]time.Duration // per kind, operation latencies (MaxInt64 when failed)
	analysis  time.Duration
	byLabel   [2]map[string][]time.Duration // per kind, operation times by label
	sampling  time.Duration                 // time of operations that sampled paths
	paths     int
	estimates map[string]float64 // keyed estimates for the repeat check
	attempted int
	failed    int

	// Set by the measuring loop.
	wall     time.Duration
	alloc    uint64
	peakHeap uint64
	// reqWall, when set by a workload, replaces the summed analysis time
	// (serve-mix: the wall time of the request mix).
	reqWall time.Duration
	// warmup marks the untimed warm-up round; serve-mix sends only a
	// prefix of its mix then.
	warmup bool
}

func newRound(b *bench, index int, an analyzer) *round {
	return &round{
		seed:      mix(b.seed, uint64(index)),
		an:        an,
		run:       fmt.Sprintf("%s/%d", b.name, index),
		estimates: make(map[string]float64),
		byLabel:   [2]map[string][]time.Duration{{}, {}},
	}
}

// latencies is the round's latency list for req_p50_ms and req_p99_ms:
// every operation, or on serve-mix the HTTP requests alone.
func (r *round) latencies() []time.Duration {
	if r.reqWall > 0 {
		return r.ops[opAnalysis]
	}
	return append(append([]time.Duration(nil), r.ops[opAnalysis]...), r.ops[opExact]...)
}

// latencyWall is the wall time the latency list was taken over: the
// round's, or on serve-mix the request mix's.
func (r *round) latencyWall() time.Duration {
	if r.reqWall > 0 {
		return r.reqWall
	}
	return r.wall
}

// analysisTime is the round's contribution to analysis_s.
func (r *round) analysisTime() time.Duration {
	if r.reqWall > 0 {
		return r.reqWall
	}
	return r.analysis
}

// opSeed derives the sampling seed of the round's i-th operation.
func (r *round) opSeed(i int) uint64 { return mix(r.seed, uint64(i)) | 1 }

// op runs one operation: fn returns the paths it sampled and an error for
// a failed call or a failed correctness check.
func (r *round) op(kind opKind, what string, fn func() (paths int, err error)) {
	t0 := time.Now()
	paths, err := fn()
	d := time.Since(t0)
	var sampling time.Duration
	if paths > 0 {
		sampling = d
	}
	r.addOp(kind, what, d, paths, sampling, err)
}

// addOp records one operation: its latency, kind, the paths it sampled and
// the time it sampled them in. A failure counts as an operation failed and
// as a latency beyond any limit.
func (r *round) addOp(kind opKind, what string, lat time.Duration, paths int, sampling time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if kind == opAnalysis {
		r.analysis += lat
	}
	r.byLabel[kind][what] = append(r.byLabel[kind][what], lat)
	if err != nil {
		r.failed++
		lat = time.Duration(math.MaxInt64)
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s: %s: %v\n", r.run, what, err)
	}
	r.ops[kind] = append(r.ops[kind], lat)
	r.paths += paths
	r.sampling += sampling
}

// record keeps an estimate under key for the repeat check.
func (r *round) record(key string, p float64) {
	r.mu.Lock()
	r.estimates[key] = p
	r.mu.Unlock()
}

// sameEstimates checks that two rounds run with equal seeds and workers
// produced bit-identical estimates for every key both recorded.
func sameEstimates(a, b *round) error {
	keys := make([]string, 0, len(a.estimates))
	for k := range a.estimates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	shared := 0
	for _, k := range keys {
		q, ok := b.estimates[k]
		if !ok {
			continue
		}
		shared++
		if math.Float64bits(a.estimates[k]) != math.Float64bits(q) {
			return fmt.Errorf("%s: p̂ %v then %v", k, a.estimates[k], q)
		}
	}
	if shared == 0 {
		return fmt.Errorf("no estimate to compare")
	}
	return nil
}

// mix is SplitMix64 over (a, b): the benchmark derives every seed it uses
// from --seed through it.
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15*(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// heapSampler samples the live heap (as marked by the last GC) every
// 10 ms and keeps the peak.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak
}
