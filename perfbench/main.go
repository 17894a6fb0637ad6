// Command perfbench is the repository's end-to-end benchmark. It boots an
// in-process serve node on a loopback listener, drives one workload against
// /v1/simulate and /v1/sweep with closed-loop clients, checks every reply,
// and prints each metric with its unit and sample count. The last line of
// standard output is one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1).
//
//	go run . -workload dense-cold -seed 1 -seconds 30 -trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// setupRepeats is how many times an untraced run sets the node up; setup_s
// is their median. The last set-up serves the timed phase.
const setupRepeats = 9

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	var o options
	var traceFlag int
	var validate bool
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "timed-phase length in seconds (whole passes only)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the disk store and the span dump")
	flag.BoolVar(&validate, "validate", false, "run the layer-attribution self-check and the known-defect check")
	flag.Parse()
	o.trace = traceFlag == 1

	if validate {
		if err := runValidate(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: validate:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	refused string // why a percentile was not reported
}

// result is one run's outcome.
type result struct {
	workload  string
	trace     bool
	attempted int
	failed    int
	errs      []string
	warns     []string // findings that are not failed checks
	metrics   []metric // every metric, in report order
	json      []string // the metrics the JSON line carries
}

func (r *result) add(name string, v float64, unit string, samples int, inJSON bool) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, samples: samples})
	if inJSON {
		r.json = append(r.json, name)
	}
}

func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "workload %s trace %v: %d attempted, %d failed\n", r.workload, r.trace, r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintln(w, "  check failed:", e)
	}
	for _, e := range r.warns {
		fmt.Fprintln(w, "  warning:", e)
	}
	fmt.Fprintf(w, "  %-28s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, m := range r.metrics {
		if m.refused != "" {
			fmt.Fprintf(w, "  %-28s %14s %-6s %d (%s)\n", m.name, "-", m.unit, m.samples, m.refused)
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %d\n", m.name, m.value, m.unit, m.samples)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jm{}}
	for _, name := range r.json {
		for _, m := range r.metrics {
			if m.name == name {
				out.Metrics[name] = jm{m.value, m.unit}
			}
		}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

// sample is one timed request.
type sample struct {
	class   string
	traced  bool
	latency float64 // seconds; +Inf when the request failed
	points  int     // sweep points (sweeps only)
}

// served is a pass-0 request with its reply, kept for the per-layer
// counts and the direct solver pass.
type served struct {
	it *item
	rp reply
}

// session is one run's shared state.
type session struct {
	w     *workload
	o     options
	k     *checker
	tr    *tracer       // nil when untraced
	eng   *tracedEngine // nil when untraced
	mu    sync.Mutex
	errs  []string
	fails int
	peaks []float64 // peak resident set (MB) over each of client 0's passes
}

func (s *session) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fails++
	if len(s.errs) < 10 {
		s.errs = append(s.errs, err.Error())
	}
}

// setup boots a node and readies it for timed traffic: prewarm, then the
// workload's discarded warm-ups or its replay working set.
func (s *session) setup(idx int) (*node, []*client, float64, error) {
	t0 := time.Now()
	cfg := serve.Config{CacheBytes: s.w.cacheBytes}
	var wrap func(http.Handler) http.Handler
	if s.tr != nil {
		cfg.Engine = s.eng
		wrap = s.tr.middleware
	}
	dir := ""
	if s.w.store {
		dir = filepath.Join(s.o.out, "run", fmt.Sprintf("%d-%d", os.Getpid(), idx))
	}
	n, err := startNode(cfg, dir, wrap)
	if err != nil {
		return nil, nil, 0, err
	}
	clients := make([]*client, s.w.clients)
	for i := range clients {
		clients[i] = newClient(n.url)
	}
	fail := func(err error) (*node, []*client, float64, error) {
		for _, c := range clients {
			c.close()
		}
		n.close()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	for i := range s.w.warmups {
		it, err := simulateItem("warmup", &s.w.warmups[i])
		if err != nil {
			return fail(err)
		}
		it.id = fmt.Sprintf("warmup-%d", i)
		rp, err := clients[0].post(it, false)
		if err == nil {
			err = s.k.check(it, rp)
		}
		if err != nil {
			return fail(err)
		}
	}
	if s.w.replay {
		hot, cold := replaySet(s.o.seed)
		if err := s.fill(clients, append(append([]*serve.Request(nil), cold...), hot...)); err != nil {
			return fail(err)
		}
	}
	return n, clients, time.Since(t0).Seconds(), nil
}

// fill solves the replay working set in order, dealt round-robin to the
// clients.
func (s *session) fill(clients []*client, set []*serve.Request) error {
	errc := make(chan error, len(clients))
	for ci, c := range clients {
		go func(ci int, c *client) {
			for i := ci; i < len(set); i += len(clients) {
				it, err := simulateItem("fill", set[i])
				if err == nil {
					it.id = fmt.Sprintf("fill-%d", i)
					var rp reply
					if rp, err = c.post(it, false); err == nil {
						err = s.k.check(it, rp)
					}
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(ci, c)
	}
	var first error
	for range clients {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counters is a snapshot of the node's counters and the engine decorator's
// totals.
type counters struct {
	requests, cacheHits, diskHits, evictions, diskPuts, coalesced int64
	sweepPoints, sweepCached, solves, encodeNS                    int64
	eng                                                           stageTotals
}

func (s *session) snapshot(n *node) counters {
	m := n.srv.Metrics()
	c := counters{
		requests: m.Requests.Load(), cacheHits: m.CacheHits.Load(), diskHits: m.DiskHits.Load(),
		evictions: m.CacheEvictions.Load(), diskPuts: m.DiskPuts.Load(), coalesced: m.Coalesced.Load(),
		sweepPoints: m.SweepPoints.Load(), sweepCached: m.SweepPointsCached.Load(),
		solves: m.Solves.Load(), encodeNS: m.EncodeNS.Load(),
	}
	if s.eng != nil {
		c.eng = s.eng.totals()
	}
	return c
}

// send posts one request, times it, checks the reply, and records its
// client-side spans when traced.
func (s *session) send(cl *client, it *item, traced bool) (sample, reply) {
	if traced {
		s.tr.expect(it)
		s.tr.add(span{ID: it.id, Name: "serve.canonicalize", Parent: "client.request", Start: it.canonAt, Dur: it.canonNS})
	}
	t0 := nowNS()
	rp, err := cl.post(it, traced)
	lat := nowNS() - t0
	if traced {
		s.tr.add(span{ID: it.id, Name: "client.request", Start: t0, Dur: lat, Note: it.class})
	}
	if err == nil {
		err = s.k.check(it, rp)
	}
	sm := sample{class: it.class, traced: traced, latency: float64(lat) / 1e9, points: len(it.points)}
	if err != nil {
		s.fail(fmt.Errorf("%s: %w", it.id, err))
		sm.latency = failedLatency
	}
	return sm, rp
}

// timed runs the closed-loop timed phase in whole passes, at least two.
// Every client runs pass 0 and the clients meet after it, so the per-layer
// counts are exact for that fixed request set. Untraced, each client then
// runs passes on its own while its next pass is expected to end within the
// budget. Traced, the clients run passes in lockstep and only the even
// passes are traced: on the odd ones the middleware and the engine
// decorator pass straight through, so the traced and untraced halves have
// the same class mix and the difference of their medians is the tracing
// overhead.
func (s *session) timed(n *node, clients []*client) (samples []sample, pass0 []served, c0, c1, cEnd counters, wall float64, err error) {
	var mu sync.Mutex
	gens := make([]*generator, len(clients))
	for ci := range clients {
		gens[ci] = newGenerator(s.w, s.o.seed, ci)
	}
	// runPass sends client ci's next pass.
	runPass := func(ci, pass int, traced bool) error {
		items, err := gens[ci].pass()
		if err != nil {
			return err
		}
		for _, it := range items {
			sm, rp := s.send(clients[ci], it, traced)
			mu.Lock()
			samples = append(samples, sm)
			if pass == 0 {
				pass0 = append(pass0, served{it, rp})
			}
			mu.Unlock()
		}
		if ci == 0 {
			return s.passPeak()
		}
		return nil
	}
	// each runs body once per client, concurrently, and returns the first
	// error.
	each := func(body func(ci int) error) error {
		errc := make(chan error, len(clients))
		for ci := range clients {
			go func(ci int) { errc <- body(ci) }(ci)
		}
		var first error
		for range clients {
			if e := <-errc; e != nil && first == nil {
				first = e
			}
		}
		return first
	}
	traced := s.tr != nil
	budget := time.Duration(s.o.seconds * float64(time.Second))
	c0 = s.snapshot(n)
	start := time.Now()
	if err = each(func(ci int) error { return runPass(ci, 0, traced) }); err != nil {
		return
	}
	c1 = s.snapshot(n)
	firstPass := time.Since(start)
	if traced {
		last := firstPass
		for pass := 1; pass < 2 || time.Since(start)+last <= budget; pass++ {
			on := pass%2 == 0
			s.eng.on.Store(on)
			p0 := time.Now()
			if err = each(func(ci int) error { return runPass(ci, pass, on) }); err != nil {
				return
			}
			last = time.Since(p0)
		}
		s.eng.on.Store(true)
	} else {
		err = each(func(ci int) error {
			last := firstPass
			for pass := 1; pass < 2 || time.Since(start)+last <= budget; pass++ {
				p0 := time.Now()
				if err := runPass(ci, pass, false); err != nil {
					return err
				}
				last = time.Since(p0)
			}
			return nil
		})
		if err != nil {
			return
		}
	}
	wall = time.Since(start).Seconds()
	cEnd = s.snapshot(n)
	return
}

func run(w *workload, o options) (*result, error) {
	s := &session{w: w, o: o, k: newChecker()}
	repeats := setupRepeats
	if o.trace {
		s.tr = newTracer()
		s.eng = newTracedEngine(s.tr)
		repeats = 1
	}
	var setups []float64
	var n *node
	var clients []*client
	for i := 0; i < repeats; i++ {
		if n != nil {
			for _, c := range clients {
				c.close()
			}
			n.close()
		}
		var d float64
		var err error
		if n, clients, d, err = s.setup(i); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
		n.close()
	}()

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	samples, pass0, c0, c1, cEnd, wall, err := s.timed(n, clients)
	if err != nil {
		return nil, err
	}
	r := &result{workload: w.name, trace: o.trace}
	r.attempted = len(samples)
	if o.trace {
		if err := s.layers(r, samples, pass0, c0, c1, cEnd); err != nil {
			return nil, err
		}
		if err := s.tr.write(filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))); err != nil {
			return nil, err
		}
	} else if err := endToEnd(r, samples, setups, wall, s.peaks); err != nil {
		return nil, err
	}
	r.failed = s.fails
	r.errs = s.errs
	return r, nil
}

// latencies returns the request latencies in milliseconds (+Inf for a
// failed request), optionally only the traced or untraced ones.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var ms []float64
	for _, sm := range samples {
		if keep == nil || keep(sm) {
			ms = append(ms, sm.latency*1e3)
		}
	}
	return ms
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(r *result, samples []sample, setups []float64, wall float64, peaks []float64) error {
	r.add("setup_s", median(setups), "s", len(setups), true)
	ms := latencies(samples, nil)
	for _, p := range []float64{50, 90, 99} {
		name := fmt.Sprintf("latency_p%g_ms", p)
		v, err := percentile(ms, p)
		if err != nil {
			if p == 50 {
				return err
			}
			r.metrics = append(r.metrics, metric{name: name, unit: "ms", samples: len(ms), refused: err.Error()})
			continue
		}
		r.add(name, v, "ms", len(ms), p == 50)
	}
	ok := 0
	var sweepMS []float64
	for _, sm := range samples {
		if !math.IsInf(sm.latency, 1) {
			ok++
			if sm.points > 0 {
				sweepMS = append(sweepMS, sm.latency*1e3/float64(sm.points))
			}
		}
	}
	r.add("throughput_rps", float64(ok)/wall, "1/s", ok, true)
	r.add("success_rate", float64(ok)/float64(len(samples)), "ratio", len(samples), true)
	if len(sweepMS) > 0 {
		r.add("sweep_point_ms", median(sweepMS), "ms", len(sweepMS), false)
	}
	r.add("peak_rss_mb", median(peaks), "MB", len(peaks), true)
	r.add("timed_s", wall, "s", 1, false)
	byClass := map[string][]float64{}
	var classes []string
	for _, sm := range samples {
		if byClass[sm.class] == nil {
			classes = append(classes, sm.class)
		}
		byClass[sm.class] = append(byClass[sm.class], sm.latency*1e3)
	}
	for _, c := range classes {
		r.add("class."+c+"_ms", median(byClass[c]), "ms", len(byClass[c]), false)
	}
	return nil
}

// resetPeakRSS returns the set-ups' garbage to the OS and restarts the
// kernel's peak-RSS mark, so the timed phase's peaks leave the set-ups and
// the timing of their GC out.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return clearPeakRSS()
}

// clearPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the current
// resident set.
func clearPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// passPeak records the process's peak resident set since the last mark
// and restarts the mark. Client 0 calls it after each of its passes.
func (s *session) passPeak() error {
	mb, err := peakRSSMB()
	if err == nil {
		err = clearPeakRSS()
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.peaks = append(s.peaks, mb)
	s.mu.Unlock()
	return nil
}

// peakRSSMB is the process's peak resident set since the last mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// layers fills the per-layer metrics of a traced run.
func (s *session) layers(r *result, samples []sample, pass0 []served, c0, c1, cEnd counters) error {
	msOf := func(name, note string) (float64, int) { return s.tr.medianMS(name, note, 0) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	v, k := msOf("serve.handler", "hit")
	r.add("serve.hit_ms", v, "ms", k, true)
	v, k = msOf("serve.handler", "hit-disk")
	r.add("serve.disk_hit_ms", v, "ms", k, true)
	v, k = msOf("serve.canonicalize", "")
	r.add("serve.canonicalize_us", v*1e3, "us", k, true)
	solves := cEnd.solves - c0.solves
	r.add("serve.encode_ms", ratio(cEnd.encodeNS-c0.encodeNS, solves)/1e6, "ms", int(solves), true)
	v, k = msOf("serve.queue_wait", "")
	r.add("serve.queue_wait_ms", v, "ms", k, true)
	req := c1.requests - c0.requests
	r.add("serve.cache_hit_ratio", ratio(c1.cacheHits-c0.cacheHits, req), "ratio", int(req), true)
	r.add("serve.disk_hit_ratio", ratio(c1.diskHits-c0.diskHits, req), "ratio", int(req), true)
	r.add("serve.evictions", float64(c1.evictions-c0.evictions), "count", 1, true)
	r.add("serve.disk_puts", float64(c1.diskPuts-c0.diskPuts), "count", 1, true)
	r.add("serve.coalesced", float64(c1.coalesced-c0.coalesced), "count", 1, true)
	att := c1.eng.n - c0.eng.n
	spd := 1.0
	if att > 0 {
		spd = ratio(c1.eng.useful-c0.eng.useful, att)
	}
	r.add("serve.solves_per_distinct", spd, "ratio", int(att), true)
	pts := c1.sweepPoints - c0.sweepPoints
	r.add("sweep.points_cached_ratio", ratio(c1.sweepCached-c0.sweepCached, pts), "ratio", int(pts), true)
	r.add("engine.build_ms", float64(c1.eng.build-c0.eng.build)/1e6, "ms", int(att), true)
	r.add("engine.ic_ms", float64(c1.eng.ic-c0.eng.ic)/1e6, "ms", int(att), true)
	r.add("engine.solve_ms", float64(c1.eng.solve-c0.eng.solve)/1e6, "ms", int(att), true)

	sup := supervisionTotals(pass0)
	r.add("newton.iterations", float64(sup["newton_iter_total"]), "count", len(pass0), true)
	r.add("newton.chord_reuses", float64(sup["jacobian_reuses"]), "count", len(pass0), true)
	r.add("la.factorizations", float64(sup["jacobian_evals"]), "count", len(pass0), true)
	r.add("core.rescues", float64(sup["rescues"]), "count", len(pass0), true)

	ds, err := s.directPass(r, pass0)
	if err != nil {
		return err
	}
	per := func(x int64) float64 {
		if ds.solves == 0 {
			return 0
		}
		return float64(x) / float64(ds.solves)
	}
	r.add("circuit.eval_calls", float64(ds.evalCalls), "count", ds.solves, true)
	r.add("circuit.eval_ms", float64(ds.evalNS)/1e6, "ms", ds.solves, true)
	r.add("core.ic_ms", float64(ds.icNS)/1e6, "ms", ds.solves, true)
	r.add("core.envelope_ms", float64(ds.envNS)/1e6, "ms", ds.solves, true)
	r.add("core.quasi_ms", float64(ds.quasiNS)/1e6, "ms", ds.solves, true)
	r.add("mpde.ripple_ms", float64(ds.rippNS)/1e6, "ms", ds.solves, true)
	r.add("krylov.gmres_solves", float64(ds.gmresSolves), "count", ds.solves, true)
	r.add("krylov.matvecs", float64(ds.matvecs), "count", ds.solves, true)
	r.add("core.allocs_per_solve", per(ds.mallocs), "count", ds.solves, true)

	factorUS := map[int]float64{}
	for _, n := range luProbeSizes {
		us, err := probeLU(n, 5, s.tr)
		if err != nil {
			return err
		}
		factorUS[n] = us
		r.add(fmt.Sprintf("la.factor_us.n%d", n), us, "us", 5, true)
	}
	// Each probe times its class's factorization count predicts the dense
	// LU share of pass 0's engine solve time; a share near 1 says LU is the
	// layer to speed up.
	predMS, err := predictedFactorMS(pass0, factorUS)
	if err != nil {
		return err
	}
	share := ratio(int64(predMS*1e6), c1.eng.solve-c0.eng.solve)
	r.add("la.predicted_ms", predMS, "ms", len(pass0), false)
	r.add("la.predicted_share", share, "ratio", len(pass0), true)
	if predMS > 0 && share > 1 {
		// Not a failed check: the probe factors a full random matrix, and
		// la's LU skips the zero multipliers the served Jacobians' block
		// structure gives it, so the probe is an upper bound per call.
		r.warns = append(r.warns, fmt.Sprintf("la.predicted_share %.3f > 1: the dense probe over-predicts the served factorizations", share))
	}
	for _, n := range fftProbeSizes {
		r.add(fmt.Sprintf("fourier.fft_us.n%d", n), probeFFT(n, 9, 1000, s.tr), "us", 9, true)
	}

	// The traced and untraced passes hold the same classes, so their
	// medians differ by the tracing alone (and the host's noise).
	tracedMS := latencies(samples, func(sm sample) bool { return sm.traced })
	plainMS := latencies(samples, func(sm sample) bool { return !sm.traced })
	tp, up := median(tracedMS), median(plainMS)
	r.add("trace.latency_p50_ms", tp, "ms", len(tracedMS), false)
	r.add("trace.untraced_p50_ms", up, "ms", len(plainMS), false)
	r.add("trace.overhead_ms", tp-up, "ms", len(tracedMS)+len(plainMS), true)
	r.add("trace.spans", float64(s.tr.count()), "count", 1, true)
	return nil
}

// predictedFactorMS sums, over pass 0's solve bodies, the factorization
// count times the LU probe at the request's bordered size. Sizes without a
// probe (the matrix-free rings) contribute nothing.
func predictedFactorMS(pass0 []served, factorUS map[int]float64) (float64, error) {
	ms := 0.0
	for _, sv := range pass0 {
		if sv.it.canon == nil || sv.rp.status != 200 {
			continue
		}
		var body struct {
			Supervision map[string]int `json:"supervision"`
		}
		if err := json.Unmarshal(sv.rp.body, &body); err != nil {
			return 0, err
		}
		n, err := borderedSize(sv.it.canon)
		if err != nil {
			return 0, err
		}
		ms += float64(body.Supervision["jacobian_evals"]) * factorUS[n] / 1e3
	}
	return ms, nil
}

// supervisionTotals sums the supervision maps of pass-0 solve bodies:
// Newton iterations, chord reuses, Jacobian factorizations and every
// ladder rescue (including t2 step halvings).
func supervisionTotals(pass0 []served) map[string]int {
	tot := map[string]int{}
	for _, sv := range pass0 {
		if sv.it.path != pathSimulate || sv.rp.status != 200 {
			continue
		}
		var body struct {
			Supervision map[string]int `json:"supervision"`
		}
		if json.Unmarshal(sv.rp.body, &body) != nil {
			continue
		}
		for k, v := range body.Supervision {
			tot[k] += v
			if strings.HasSuffix(k, "_rescues") || k == "step_halvings" {
				tot["rescues"] += v
			}
		}
	}
	return tot
}

// directPass re-solves the first pass-0 request of each envelope or QP
// class through the solver packages and checks it reproduces the served
// number bitwise.
func (s *session) directPass(r *result, pass0 []served) (*directStats, error) {
	ds := &directStats{}
	done := map[string]bool{}
	for _, sv := range pass0 {
		c := sv.it.canon
		if c == nil || done[sv.it.class] || sv.rp.status != 200 ||
			(c.Analysis != serve.AnalysisEnvelope && c.Analysis != serve.AnalysisQuasiperiodic) {
			continue
		}
		done[sv.it.class] = true
		var body serve.Response
		if err := json.Unmarshal(sv.rp.body, &body); err != nil || body.Outcome == nil {
			return nil, fmt.Errorf("direct pass: %s: unreadable body", sv.it.id)
		}
		want := servedOmega(body.Outcome)
		r.attempted++
		got, err := directSolve(c, ds, s.tr, "direct-"+sv.it.id)
		if err == nil && math.Float64bits(got) != math.Float64bits(want) {
			err = fmt.Errorf("direct %s reproduces %v, served %v", sv.it.class, got, want)
		}
		if err != nil {
			s.fail(fmt.Errorf("direct pass %s: %w", sv.it.id, err))
		}
	}
	return ds, nil
}
