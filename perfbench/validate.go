package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

// slowEval is the stall the attribution check adds to every tenth
// residual evaluation, through faultinject.SiteSlowEval. It busy-waits
// rather than sleeps, so each firing adds exactly this much busy time.
const (
	slowEval  = 40 * time.Microsecond
	slowEvery = 10
)

// attribution is what one dense-cold pass of the self-check measured.
type attribution struct {
	engineMS, engineICMS       float64 // served: engine IC + solve, and IC alone
	queueMS, canonUS, encodeMS float64 // served: serve-layer numbers
	coreICMS, evalMS           float64 // direct pass
	firedServed, firedDirect   int
}

// runValidate runs the layer-attribution self-check — a traced dense-cold
// pass with and without faultinject.SiteSlowEval armed — and then checks
// that the known ring-vco?stages=9 defect still reproduces.
func runValidate(o options) error {
	s := &session{w: workloads["dense-cold"], o: o, k: newChecker(), tr: newTracer()}
	s.eng = newTracedEngine(s.tr)
	n, clients, _, err := s.setup(0)
	if err != nil {
		return err
	}
	defer n.close()
	cl := clients[0]
	defer cl.close()
	g := newGenerator(s.w, o.seed, 0)

	base, err := s.attributionPass(n, cl, g, nil)
	if err != nil {
		return err
	}
	plan := faultinject.NewPlan().Fail(faultinject.SiteSlowEval, faultinject.Every(slowEvery)).WithSleep(func() {
		for t0 := time.Now(); time.Since(t0) < slowEval; {
		}
	})
	disarm := faultinject.Arm(plan)
	slow, err := s.attributionPass(n, cl, g, plan)
	disarm()
	if err != nil {
		return err
	}
	if s.fails > 0 {
		return fmt.Errorf("%d requests failed their checks: %v", s.fails, s.errs)
	}

	// Each firing adds slowEval of busy time on one worker. Shooting runs
	// its sensitivity integrations on the solver's worker pool, so the wall
	// time a stage gains lies between busy/P and busy for P workers.
	busy := func(fired int) float64 { return float64(fired) * float64(slowEval) / 1e6 }
	p := float64(runtime.GOMAXPROCS(0))
	fmt.Printf("attribution: SiteSlowEval fired %d times in served solves, %d in the direct pass (%v each, %g workers)\n",
		slow.firedServed, slow.firedDirect, slowEval, p)
	var bad []string
	between := func(name string, got, lo, hi float64) {
		ok := got >= lo && got <= hi
		fmt.Printf("  %-34s %+12.3f in [%+.3f, %+.3f] %s\n", name, got, lo, hi, map[bool]string{true: "ok", false: "FAIL"}[ok])
		if !ok {
			bad = append(bad, name)
		}
	}
	served, direct := busy(slow.firedServed), busy(slow.firedDirect)
	// Wall times on a shared machine wander by tens of percent within
	// seconds, so each window is widened by 30% of the stage's own base
	// time. The site sits in the integrator's residual evaluation, one call
	// above the device models: the stall must land in the IC stage, and
	// not in the solve stage or in device evaluation.
	tol := 0.3 * base.engineICMS
	between("Δ engine.ic_ms", slow.engineICMS-base.engineICMS, served/p-tol, served+tol)
	baseSolve := base.engineMS - base.engineICMS
	between("Δ engine.solve_ms", slow.engineMS-slow.engineICMS-baseSolve, -0.3*baseSolve, 0.3*baseSolve)
	tol = 0.3 * base.coreICMS
	between("Δ core.ic_ms", slow.coreICMS-base.coreICMS, direct/p-tol, direct+tol)
	between("Δ circuit.eval_ms", slow.evalMS-base.evalMS, -0.3*base.evalMS, 0.05*direct+0.3*base.evalMS)
	between("Δ serve.queue_wait_ms", slow.queueMS-base.queueMS, -0.5, 0.5)
	between("Δ serve.canonicalize_us", slow.canonUS-base.canonUS, -base.canonUS, base.canonUS)
	tol = math.Max(base.encodeMS, 0.2)
	between("Δ serve.encode_ms", slow.encodeMS-base.encodeMS, -tol, tol)
	if len(bad) > 0 {
		return fmt.Errorf("attribution self-check failed: %s", strings.Join(bad, ", "))
	}
	fmt.Println("attribution self-check passed")
	return knownDefect(s, cl)
}

// attributionPass runs one traced dense-cold pass plus its direct solver
// pass and returns the layer numbers the self-check compares.
func (s *session) attributionPass(n *node, cl *client, g *generator, plan *faultinject.Plan) (attribution, error) {
	var a attribution
	items, err := g.pass()
	if err != nil {
		return a, err
	}
	fired := func() int {
		if plan == nil {
			return 0
		}
		return plan.Fired(faultinject.SiteSlowEval)
	}
	from := s.tr.count()
	c0, f0 := s.snapshot(n), fired()
	var pass []served
	for _, it := range items {
		_, rp := s.send(cl, it, true)
		pass = append(pass, served{it, rp})
	}
	c1, f1 := s.snapshot(n), fired()
	a.firedServed = f1 - f0
	a.engineMS = float64(c1.eng.ic+c1.eng.solve-c0.eng.ic-c0.eng.solve) / 1e6
	a.engineICMS = float64(c1.eng.ic-c0.eng.ic) / 1e6
	a.queueMS, _ = s.tr.medianMS("serve.queue_wait", "", from)
	canonMS, _ := s.tr.medianMS("serve.canonicalize", "", from)
	a.canonUS = canonMS * 1e3
	if solves := c1.solves - c0.solves; solves > 0 {
		a.encodeMS = float64(c1.encodeNS-c0.encodeNS) / float64(solves) / 1e6
	}
	ds, err := s.directPass(&result{}, pass)
	if err != nil {
		return a, err
	}
	a.firedDirect = fired() - f1
	a.coreICMS, a.evalMS = float64(ds.icNS)/1e6, float64(ds.evalNS)/1e6
	fmt.Printf("pass (slow eval %v): engine %.1f ms (IC %.1f), direct core.ic %.1f ms, circuit.eval %.1f ms\n",
		plan != nil, a.engineMS, a.engineICMS, a.coreICMS, a.evalMS)
	return a, nil
}

// knownDefects are requests the solver is known to get wrong. They stay
// out of the timed workloads, which are built so that no operation fails,
// and --validate checks each still reproduces: when one starts passing
// the checks, the defect is fixed and the request can join a workload.
var knownDefects = []struct {
	name string
	req  *serve.Request
}{
	// The IC preamble's autonomous shooting stagnates at a residual of
	// ≈8e-4 (matfree-cold's left-out class).
	{"ring-vco?stages=9 envelope", envelope("ring-vco?stages=9", 4e-6, 4, 65)},
	// Autonomous HB Newton stagnates at 5.5e-9 against its 1e-9 tolerance.
	{"paper-vco hb at f0 752768.68 Hz", &serve.Request{Circuit: serve.CircuitPaperVCO, Analysis: serve.AnalysisHB,
		Options: serve.RequestOptions{F0: 752768.68315124675}}},
	// Autonomous shooting returns 200 with a 7e16 Hz period.
	{"paper-vco shooting at f0 756000 Hz", &serve.Request{Circuit: serve.CircuitPaperVCO, Analysis: serve.AnalysisShooting,
		Options: serve.RequestOptions{F0: 756000}}},
}

// knownDefect posts every known-defect request and requires each to fail
// or to fail its checks.
func knownDefect(s *session, cl *client) error {
	for i, d := range knownDefects {
		it, err := simulateItem("known-defect", d.req)
		if err != nil {
			return err
		}
		it.id = fmt.Sprintf("known-defect-%d", i)
		rp, err := cl.post(it, false)
		if err != nil {
			return err
		}
		cerr := s.k.check(it, rp)
		if cerr == nil {
			return fmt.Errorf("%s now solves and passes the checks: the known defect is fixed — add it to a workload", d.name)
		}
		fmt.Printf("known defect reproduces: %s: %.160s\n", d.name, cerr)
	}
	return nil
}
