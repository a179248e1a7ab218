package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slimsim/internal/casestudy"
	"slimsim/internal/serve"
)

// The serve-mix workload: an in-process daemon on loopback, nproc
// closed-loop clients on POST /v1/analyze. Per request: about 3 in 5 repeat
// a recent request (memo hits), 1 in 4 send a fresh seed on a cached model,
// 1 in 10 name a model from a cold pool larger than the compiled-model
// cache, and the rest are identical pairs sent by two clients at once.
const (
	serveRoundRequests = 400
	serveProbeRequests = 300
	// The warm-up round sends the first segments of the first measured
	// round's mix, at least this many requests: enough for the repeat
	// check, which needs only requests both rounds send.
	serveWarmupRequests = 100
	serveRepeatShare    = 0.60
	serveFreshShare     = 0.25
	serveColdShare      = 0.10
	serveRecent         = 128 // repeats draw from this many recent requests
	// The cold pool exceeds the daemon's default ModelCache of 32, and a
	// round's ≈43 cold requests cycle through it, so a cold model comes
	// back after 35 other cold and the 8 hot models: evicted, recompiled.
	serveColdModels = 36
)

// Per-request accuracy and bound, set so that, inside the mix on a 2-vCPU
// host with 2 workers per request, a warm sensor-filter run (N = 2…4, ≈740
// paths) takes ≈12 ms at the median and a cold launcher request (≈3500
// paths, ≈1 ms of it compiling) ≈60 ms, the daemon costs this workload
// stands for (in a quiet period; about twice that when the host is busy). Hot models are mostly sensor filters and the cold pool mostly
// launchers, so serve.warm_ms is a sensor-filter run and serve.cold_ms a
// cold launcher request.
const (
	serveSensorBound, serveSensorDelta, serveSensorEps       = 150, 0.1, 0.045
	serveLauncherBound, serveLauncherDelta, serveLauncherEps = 1000, 0.05, 0.023
)

// serveModel is one model source the clients send, with its property and
// loose accuracy. Sensor-filter models carry an exact reference.
type serveModel struct {
	id         int
	src        string
	sensor     bool
	goal       string
	bound      float64
	delta, eps float64
	strategies []string
	hot        bool
}

// serveModels builds the 8 hot models (6 sensor filters, 2 launchers) and
// the cold pool (1 in 4 a sensor filter, the rest launchers), every source
// distinct.
func serveModels() (hot, cold []*serveModel, err error) {
	add := func(list []*serveModel, sensor bool, n int, scale float64, mode casestudy.FaultMode, isHot bool) ([]*serveModel, error) {
		m := &serveModel{id: len(hot) + len(cold) + len(list), hot: isHot}
		if sensor {
			p := casestudy.DefaultSensorFilter(n)
			p.SensorFailRate *= scale
			p.FilterFailRate *= scale
			m.src, err = casestudy.SensorFilter(p)
			m.sensor, m.goal = true, casestudy.SensorFilterGoal
			m.bound, m.delta, m.eps = serveSensorBound, serveSensorDelta, serveSensorEps
			m.strategies = []string{"asap"}
		} else {
			p := casestudy.DefaultLauncher(mode)
			p.DPUFailRate *= scale
			m.src, err = casestudy.Launcher(p)
			m.goal = casestudy.LauncherGoal
			m.bound, m.delta, m.eps = serveLauncherBound, serveLauncherDelta, serveLauncherEps
			m.strategies = fig5Strategies
		}
		return append(list, m), err
	}
	modes := []casestudy.FaultMode{casestudy.FaultsPermanent, casestudy.FaultsRecoverable}
	for i := 0; i < 6 && err == nil; i++ {
		hot, err = add(hot, true, 2+i%3, 1+0.5*float64(i/3), 0, true)
	}
	for i := 0; i < 2 && err == nil; i++ {
		hot, err = add(hot, false, 0, 1, modes[i], true)
	}
	for i := 0; i < serveColdModels && err == nil; i++ {
		scale := 1 + 0.01*float64(i+1) // below the hot models' 1.5
		if i%4 == 0 {
			cold, err = add(cold, true, 2+(i/4)%3, scale, 0, false)
		} else {
			cold, err = add(cold, false, 0, scale, modes[i%2], false)
		}
	}
	return hot, cold, err
}

// Request classes.
const (
	classRepeat = iota
	classFresh
	classCold
	classPair
)

// serveReq is one request of the mix.
type serveReq struct {
	id    int // index into the round's results
	class int
	model *serveModel
	key   string
	body  []byte
}

// segment is a run of requests any client may take, ended by an optional
// pair that two clients send at once after all clients finished the run.
type segment struct {
	reqs []serveReq
	pair []serveReq // two identical requests, or nil
	next atomic.Int64
	wg   sync.WaitGroup
}

// genMix generates a round's request mix from seed: n requests in
// segments, each request running workers sampling workers. The class counts
// are fixed shares of n and hot models and launcher strategies are drawn
// round-robin from shuffled orders, so the seed changes which requests are
// sent and in what order, not how much of each kind.
func genMix(seed uint64, n, workers int, hot, cold []*serveModel) ([]*segment, int, error) {
	rnd := rand.New(rand.NewPCG(seed, 0x5e77e))
	pairs := int(float64(n) * (1 - serveRepeatShare - serveFreshShare - serveColdShare) / 2)
	fresh := int(float64(n) * serveFreshShare)
	coldN := int(float64(n) * serveColdShare)
	classes := make([]int, 0, n)
	for _, c := range []struct{ class, count int }{
		{classFresh, fresh}, {classCold, coldN}, {classPair, pairs}, {classRepeat, n - fresh - coldN - 2*pairs},
	} {
		for i := 0; i < c.count; i++ {
			classes = append(classes, c.class)
		}
	}
	rnd.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	for i, c := range classes { // a repeat needs an earlier fresh request
		if c == classFresh {
			classes[0], classes[i] = classes[i], classes[0]
			break
		}
	}
	hotOrder := rnd.Perm(len(hot))
	hotNext := 0
	nextHot := func() *serveModel {
		m := hot[hotOrder[hotNext%len(hot)]]
		hotNext++
		return m
	}
	coldNext := int(seed % uint64(len(cold)))
	nextCold := func() *serveModel {
		m := cold[coldNext]
		coldNext = (coldNext + 1) % len(cold)
		return m
	}
	strategyNext := rnd.IntN(len(fig5Strategies))
	newReq := func(class int, m *serveModel) (serveReq, error) {
		s := m.strategies[strategyNext%len(m.strategies)]
		strategyNext++
		rq := serve.Request{
			Model: m.src, Goal: m.goal, Bound: m.bound, Strategy: s,
			Delta: m.delta, Epsilon: m.eps, Workers: workers, Seed: rnd.Uint64()>>1 | 1,
		}
		body, err := json.Marshal(rq)
		return serveReq{class: class, model: m, key: fmt.Sprintf("m%d/%s/%d", m.id, s, rq.Seed), body: body}, err
	}
	var recent []serveReq
	segs := []*segment{{}}
	id, pairNo := 0, 0
	for _, class := range classes {
		cur := segs[len(segs)-1]
		var rq serveReq
		var err error
		switch class {
		case classRepeat:
			rq = recent[len(recent)-1-rnd.IntN(min(len(recent), serveRecent))]
			rq.class = classRepeat
		case classFresh:
			rq, err = newReq(classFresh, nextHot())
		case classCold:
			rq, err = newReq(classCold, nextCold())
		case classPair:
			// Every third pair names a cold model, so both duplicate
			// compiles and duplicate runs can show.
			m := nextHot()
			if pairNo%3 == 2 {
				m = nextCold()
			}
			pairNo++
			if rq, err = newReq(classPair, m); err != nil {
				return nil, 0, err
			}
			a, b := rq, rq
			a.id, b.id = id, id+1
			id += 2
			cur.pair = []serveReq{a, b}
			segs = append(segs, &segment{})
			if m.hot {
				recent = append(recent, rq)
			}
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		rq.id = id
		id++
		cur.reqs = append(cur.reqs, rq)
		if rq.class == classFresh {
			recent = append(recent, rq)
		}
	}
	return segs, id, nil
}

// prefix returns the first segments of segs that hold at least n requests,
// and the number of requests they hold; request ids stay below it, since
// genMix numbers requests in order.
func prefix(segs []*segment, n int) ([]*segment, int) {
	total := 0
	for i, s := range segs {
		total += len(s.reqs) + len(s.pair)
		if total >= n {
			return segs[:i+1], total
		}
	}
	return segs, total
}

// daemon is one in-process serve.Server on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startDaemon starts a server with nproc runners and waits until /healthz
// answers.
func startDaemon(nproc int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: serve.New(serve.Config{Jobs: nproc}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.hs.Serve(ln) }()
	resp, err := http.Get(d.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the HTTP server and the job queue down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	serr := d.srv.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(herr, serr)
}

// serveResult is one request's outcome.
type serveResult struct {
	lat  time.Duration
	resp serve.Response
	err  error
}

// sendMix runs the segments with nproc closed-loop clients and returns the
// results indexed by request id and the wall time of the whole mix.
func sendMix(r *round, url string, segs []*segment, total, nproc int) ([]serveResult, time.Duration) {
	results := make([]serveResult, total)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc + 1}}
	defer client.CloseIdleConnections()
	post := func(q serveReq) {
		_ = r.tr.do(r.span, r.run, "serve.request", func(int64) error {
			results[q.id] = postAnalyze(client, url, q.body)
			return nil
		})
	}
	for _, s := range segs {
		s.wg.Add(nproc)
	}
	t0 := time.Now()
	var clients sync.WaitGroup
	clients.Add(nproc)
	for c := 0; c < nproc; c++ {
		go func(c int) {
			defer clients.Done()
			for _, s := range segs {
				for {
					i := int(s.next.Add(1)) - 1
					if i >= len(s.reqs) {
						break
					}
					post(s.reqs[i])
				}
				s.wg.Done()
				s.wg.Wait()
				if s.pair == nil {
					continue
				}
				switch {
				case nproc == 1:
					var both sync.WaitGroup
					both.Add(1)
					go func() { defer both.Done(); post(s.pair[1]) }()
					post(s.pair[0])
					both.Wait()
				case c < 2:
					post(s.pair[c])
				}
			}
		}(c)
	}
	clients.Wait()
	return results, time.Since(t0)
}

// postAnalyze sends one synchronous analysis request.
func postAnalyze(client *http.Client, url string, body []byte) serveResult {
	t0 := time.Now()
	resp, err := client.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return serveResult{lat: time.Since(t0), err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := serveResult{lat: time.Since(t0), err: err}
	if err == nil && resp.StatusCode/100 == 2 {
		res.err = json.Unmarshal(data, &res.resp)
	} else if err == nil {
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return res
}

// reportView is the part of a schema-v1 report the checks read.
type reportView struct {
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	Timing  *struct {
		WallClockMS float64 `json:"wallClockMs"`
	} `json:"timing"`
	Sampling *struct {
		Samples   int     `json:"samples"`
		Successes int     `json:"successes"`
		Estimate  float64 `json:"estimate"`
	} `json:"sampling"`
}

// checkResponse validates one response on its own: a 2xx status and a
// well-formed estimate from the requested workers, inside the Chernoff band
// around the exact answer when one is known (exact < 0 otherwise).
func checkResponse(res serveResult, workers int, exact float64) (reportView, error) {
	var rv reportView
	if res.err != nil {
		return rv, res.err
	}
	if err := json.Unmarshal(res.resp.Report, &rv); err != nil {
		return rv, fmt.Errorf("report: %w", err)
	}
	s := rv.Sampling
	switch {
	case s == nil || rv.Timing == nil:
		return rv, fmt.Errorf("report lacks sampling or timing")
	case s.Samples <= 0 || s.Successes < 0 || s.Successes > s.Samples:
		return rv, fmt.Errorf("report counts %d of %d samples", s.Successes, s.Samples)
	case s.Estimate != float64(s.Successes)/float64(s.Samples):
		return rv, fmt.Errorf("estimate %v is not %d/%d", s.Estimate, s.Successes, s.Samples)
	case rv.Workers != workers:
		return rv, fmt.Errorf("report ran %d workers, %d requested", rv.Workers, workers)
	}
	if exact >= 0 {
		return rv, checkChernoff(s.Estimate, s.Samples, exact, 0)
	}
	return rv, nil
}

// serveRound is what one round of the mix leaves for the per-layer metrics.
type serveRound struct {
	memo, warm, cold []float64 // latencies (ms) by cache outcome
	reportBytes      []float64
	stats            serve.Stats
	distinctKeys     int
	expectedCompiles int
}

type serveWorkload struct {
	hot, cold []*serveModel
	exact     map[*serveModel]float64 // set by prepare
	rounds    []serveRound
	// requests overrides serveRoundRequests (the per-layer probe sends a
	// smaller mix).
	requests int
}

func (w *serveWorkload) setup(b *bench) (time.Duration, error) {
	if w.hot == nil {
		var err error
		if w.hot, w.cold, err = serveModels(); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	d, err := startDaemon(b.nproc)
	if err != nil {
		return 0, err
	}
	took := time.Since(t0)
	return took, d.stop()
}

// serveExactPasses is how many times prepare solves each reference: one
// pass takes about 10 ms, too little to time steadily once per round.
const serveExactPasses = 20

// prepare solves the exact reference of every sensor-filter model the mix
// may name, outside the round's measured window. It starts from a collected
// heap, so the solves do not pay for the previous round's garbage.
func (w *serveWorkload) prepare(b *bench, r *round) error {
	runtime.GC()
	w.exact = make(map[*serveModel]float64)
	for pass := 0; pass < serveExactPasses; pass++ {
		for _, m := range append(append([]*serveModel(nil), w.hot...), w.cold...) {
			if m.sensor {
				w.solve(r, m)
			}
		}
	}
	return nil
}

// solve compiles m and solves its exact reference as one operation of r;
// every pass must give the same answer.
func (w *serveWorkload) solve(r *round, m *serveModel) {
	r.op(opExact, fmt.Sprintf("exact model %d", m.id), func() (int, error) {
		var c *compiled
		var err error
		if l, ok := r.an.(layered); ok {
			c, err = compileLayers(l.tr, l.parent, l.run, "serve-model", m.src)
		} else {
			c, err = compileFacade("serve-model", m.src)
		}
		if err != nil {
			return 0, err
		}
		rep, err := r.an.exact(c, m.goal, m.bound, true)
		if err != nil {
			return 0, err
		}
		if p, ok := w.exact[m]; ok && p != rep.Probability {
			return 0, fmt.Errorf("exact reference %v, earlier %v", rep.Probability, p)
		}
		w.exact[m] = rep.Probability
		return 0, nil
	})
}

func (w *serveWorkload) round(b *bench, r *round) error {
	n := w.requests
	if n == 0 {
		n = serveRoundRequests
	}
	segs, total, err := genMix(r.seed, n, b.nproc, w.hot, w.cold)
	if err != nil {
		return err
	}
	if r.warmup {
		segs, total = prefix(segs, serveWarmupRequests)
	}
	d, err := startDaemon(b.nproc)
	if err != nil {
		return err
	}
	results, wall := sendMix(r, d.url, segs, total, b.nproc)
	stats := d.srv.Stats()
	if err := d.stop(); err != nil {
		return err
	}
	r.reqWall = wall
	w.account(b, r, segs, results, stats)
	return nil
}

// account checks every response and records it as an operation of r.
func (w *serveWorkload) account(b *bench, r *round, segs []*segment, results []serveResult, stats serve.Stats) {
	reqs := make([]serveReq, len(results))
	for _, s := range segs {
		for _, q := range append(append([]serveReq(nil), s.reqs...), s.pair...) {
			reqs[q.id] = q
		}
	}
	sr := serveRound{stats: stats}
	ran := make(map[string][][]byte) // key → report bytes of sampled runs
	hotUsed := make(map[*serveModel]bool)
	keys := make(map[string]bool)
	for i, res := range results {
		q := reqs[i]
		keys[q.key] = true
		if q.model.hot {
			hotUsed[q.model] = true
		} else if q.class != classRepeat {
			sr.expectedCompiles++
		}
		if res.err == nil && !res.resp.ResultCacheHit {
			ran[q.key] = append(ran[q.key], res.resp.Report)
		}
	}
	sr.distinctKeys = len(keys)
	sr.expectedCompiles += len(hotUsed)
	// A pair on a cold model compiles it once when coalesced.
	for _, s := range segs {
		if s.pair != nil && !s.pair[0].model.hot {
			sr.expectedCompiles--
		}
	}
	estimates := make(map[string]float64)
	for i, res := range results {
		q := reqs[i]
		ref := -1.0
		if q.model.sensor {
			ref = w.exact[q.model]
		}
		rv, err := checkResponse(res, b.nproc, ref)
		if err == nil {
			if p, ok := estimates[q.key]; ok && math.Float64bits(p) != math.Float64bits(rv.Sampling.Estimate) {
				err = fmt.Errorf("%s: p̂ %v, earlier %v for the same request", q.key, rv.Sampling.Estimate, p)
			}
			estimates[q.key] = rv.Sampling.Estimate
			r.record(q.key, rv.Sampling.Estimate)
		}
		if err == nil && res.resp.ResultCacheHit && !replays(res.resp.Report, ran[q.key]) {
			err = fmt.Errorf("%s: memo hit does not replay the stored report bytes", q.key)
		}
		paths, sampling := 0, time.Duration(0)
		if err == nil && !res.resp.ResultCacheHit {
			paths = rv.Sampling.Samples
			sampling = time.Duration(rv.Timing.WallClockMS * float64(time.Millisecond))
		}
		r.addOp(opAnalysis, fmt.Sprintf("request %d (%s)", i, q.key), res.lat, paths, sampling, err)
		if err != nil {
			continue
		}
		ms := res.lat.Seconds() * 1000
		switch {
		case res.resp.ResultCacheHit:
			sr.memo = append(sr.memo, ms)
		case res.resp.CompiledCacheHit:
			sr.warm = append(sr.warm, ms)
		default:
			sr.cold = append(sr.cold, ms)
		}
		sr.reportBytes = append(sr.reportBytes, float64(len(res.resp.Report)))
	}
	if !r.warmup { // the warm-up's shorter mix would skew per-round counts
		w.rounds = append(w.rounds, sr)
	}
}

// replays reports whether got equals one of the reports stored for its key
// by a sampled run.
func replays(got []byte, stored [][]byte) bool {
	for _, s := range stored {
		if bytes.Equal(got, s) {
			return true
		}
	}
	return false
}

func (w *serveWorkload) finish(*bench) error { return nil }

// layerMetrics derives the serve.* per-layer metrics from the rounds
// recorded since index from.
func (w *serveWorkload) layerMetrics(from int) map[string]metric {
	var memo, warm, cold, size []float64
	var dupRuns, dupCompiles, compiledHits, compiledTotal, resultHits, resultTotal float64
	rounds := w.rounds[from:]
	for _, sr := range rounds {
		memo = append(memo, sr.memo...)
		warm = append(warm, sr.warm...)
		cold = append(cold, sr.cold...)
		size = append(size, sr.reportBytes...)
		dupRuns += float64(int(sr.stats.Results.Misses) - sr.distinctKeys)
		dupCompiles += float64(int(sr.stats.CompiledModels.Misses) - sr.expectedCompiles)
		compiledHits += float64(sr.stats.CompiledModels.Hits)
		compiledTotal += float64(sr.stats.CompiledModels.Hits + sr.stats.CompiledModels.Misses)
		resultHits += float64(sr.stats.Results.Hits)
		resultTotal += float64(sr.stats.Results.Hits + sr.stats.Results.Misses)
	}
	n := float64(len(rounds))
	return map[string]metric{
		"serve.memo_hit_ms":        {median(memo), "ms"},
		"serve.warm_ms":            {median(warm), "ms"},
		"serve.cold_ms":            {median(cold), "ms"},
		"serve.compiled_hit_rate":  {compiledHits / compiledTotal, "ratio"},
		"serve.result_hit_rate":    {resultHits / resultTotal, "ratio"},
		"serve.duplicate_runs":     {dupRuns / n, "count"},
		"serve.duplicate_compiles": {dupCompiles / n, "count"},
		"serve.report_bytes":       {median(size), "bytes"},
	}
}
