package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/mpde"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/shooting"
	"repro/internal/transient"
)

// matrixFreeCutover mirrors serve's bordered-system size above which the
// served envelope and QP paths switch to the matrix-free operator. The
// bitwise final_omega check below fails if the mirror drifts.
const matrixFreeCutover = 1500

// countingSystem decorates a compiled circuit: it counts and times every
// device evaluation (Q, F, JQ, JF) the solver stack asks for. The solver
// evaluates collocation points in parallel, so the counters are atomic and
// evalNS sums busy time across workers.
type countingSystem struct {
	*circuit.System
	calls, evalNS atomic.Int64
}

// Each method times its call inline: a closure here would allocate on
// every evaluation and swamp the allocation count the pass reports.
func (s *countingSystem) done(t0 int64) {
	s.evalNS.Add(nowNS() - t0)
	s.calls.Add(1)
}

func (s *countingSystem) Q(x, q []float64) {
	t0 := nowNS()
	s.System.Q(x, q)
	s.done(t0)
}

func (s *countingSystem) F(x, u, f []float64) {
	t0 := nowNS()
	s.System.F(x, u, f)
	s.done(t0)
}

func (s *countingSystem) JQ(x []float64, j *la.Dense) {
	t0 := nowNS()
	s.System.JQ(x, j)
	s.done(t0)
}

func (s *countingSystem) JF(x, u []float64, j *la.Dense) {
	t0 := nowNS()
	s.System.JF(x, u, j)
	s.done(t0)
}

// buildSystem compiles a canonical request's circuit the way serve's
// engine does.
func buildSystem(c *serve.Canonical) (*circuit.System, error) {
	ckt := c.Circuit
	switch {
	case c.Netlist != "":
		return compile(c.Netlist, nil)
	case ckt == serve.CircuitPaperVCO || ckt == serve.CircuitPaperVCOAir:
		p := circuit.DefaultVCOParams()
		if ckt == serve.CircuitPaperVCOAir {
			p = circuit.AirVCOParams()
		}
		if c.VCtlDC != 0 {
			p.VCtl = circuit.DC(c.VCtlDC)
		}
		vco, err := circuit.NewVCO(p)
		if err != nil {
			return nil, err
		}
		return vco.System, nil
	case strings.HasPrefix(ckt, serve.CircuitRingVCO+"?stages="):
		stages, err := strconv.Atoi(strings.TrimPrefix(ckt, serve.CircuitRingVCO+"?stages="))
		if err != nil {
			return nil, err
		}
		return compile(netlist.RingVCO(stages, c.VCtlDC))
	}
	fsw, ok := converterFsw(ckt)
	if !ok {
		return nil, fmt.Errorf("direct pass: unsupported circuit %q", ckt)
	}
	ds, _, _ := strings.Cut(strings.TrimPrefix(ckt[strings.Index(ckt, "?"):], "?duty="), "&")
	duty, err := strconv.ParseFloat(ds, 64)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(ckt, serve.CircuitBoostConverter) {
		return compile(netlist.BoostConverter(duty, fsw))
	}
	return compile(netlist.BuckConverter(duty, fsw))
}

func compile(src string, err error) (*circuit.System, error) {
	if err != nil {
		return nil, err
	}
	ckt, err := netlist.Parse(src)
	if err != nil {
		return nil, err
	}
	return ckt.Build()
}

// directStats are the per-layer numbers of the direct solver pass.
type directStats struct {
	solves                        int
	evalCalls                     int64
	evalNS                        int64
	icNS, envNS, quasiNS, rippNS  int64
	gmresSolves, matvecs, mallocs int64
}

// directSolve re-runs one served request straight through the solver
// packages with the served options, around a counting system, and returns
// the result the body's final_omega (envelope) or omega_mean (QP) must
// equal bitwise.
func directSolve(c *serve.Canonical, ds *directStats, t *tracer, id string) (float64, error) {
	base, err := buildSystem(c)
	if err != nil {
		return 0, err
	}
	sys := &countingSystem{System: base}
	ctx := context.Background()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := nowNS()
	stage := func(name string, acc *int64, f func() error) error {
		t0 := nowNS()
		err := f()
		d := nowNS() - t0
		*acc += d
		t.add(span{ID: id, Name: name, Parent: "direct.solve", Start: t0, Dur: d})
		return err
	}
	var omega float64
	var gm, mv int
	if fsw, ok := converterFsw(c.Circuit); ok {
		opt := mpde.RippleOptions(c.N1, fsw, 1)
		opt.H2 = c.TStop / float64(c.Steps)
		opt.Ctx = ctx
		err = stage("mpde.ripple", &ds.rippNS, func() error {
			res, err := mpde.RippleEnvelope(sys, make([]float64, c.N1*sys.Dim()), fsw, c.TStop, opt)
			if err == nil {
				omega, gm, mv = res.Omega[len(res.Omega)-1], res.GMRESSolves, res.GMRESMatVecs
			}
			return err
		})
	} else {
		var xhat0 []float64
		var omega0 float64
		err = stage("core.ic", &ds.icNS, func() error {
			xg := make([]float64, sys.Dim())
			if err := transient.DCOperatingPoint(sys, 0, xg, transient.DCOptions{}); err != nil {
				return err
			}
			xg[sys.OscVar()] += 0.5
			var err error
			xhat0, omega0, err = core.InitialCondition(sys, xg, 1/c.F0, core.ICOptions{N1: c.N1, Shooting: shooting.Options{Ctx: ctx}})
			return err
		})
		if err == nil && c.Analysis == serve.AnalysisEnvelope {
			eopt := core.EnvelopeOptions{N1: c.N1, H2: c.TStop / float64(c.Steps), Trap: true, Ctx: ctx}
			if c.N1*sys.Dim()+1 > matrixFreeCutover {
				eopt.Linear = core.LinearMatrixFree
			}
			err = stage("core.envelope", &ds.envNS, func() error {
				res, err := core.Envelope(sys, xhat0, omega0, c.TStop, eopt)
				if err == nil {
					omega, gm, mv = res.Omega[len(res.Omega)-1], res.GMRESSolves, res.GMRESMatVecs
				}
				return err
			})
		} else if err == nil {
			omega, gm, mv, err = directQuasi(c, sys, xhat0, omega0, ds, stage)
		}
	}
	runtime.ReadMemStats(&ms1)
	t.add(span{ID: id, Name: "direct.solve", Start: start, Dur: nowNS() - start, Note: c.Circuit + " " + c.Analysis})
	if err != nil {
		return 0, err
	}
	ds.solves++
	ds.evalCalls += sys.calls.Load()
	ds.evalNS += sys.evalNS.Load()
	ds.gmresSolves += int64(gm)
	ds.matvecs += int64(mv)
	ds.mallocs += int64(ms1.Mallocs - ms0.Mallocs)
	return omega, nil
}

// directQuasi mirrors serve's quasiperiodic path: one control period of
// envelope following seeds the global QP solve.
func directQuasi(c *serve.Canonical, sys *countingSystem, xhat0 []float64, omega0 float64, ds *directStats,
	stage func(string, *int64, func() error) error) (omega float64, gm, mv int, err error) {
	ctx := context.Background()
	eopt := core.EnvelopeOptions{N1: c.N1, H2: c.Period / 100, Trap: true, Ctx: ctx}
	if c.N1*sys.Dim()+1 > matrixFreeCutover {
		eopt.Linear = core.LinearMatrixFree
	}
	var env *core.EnvelopeResult
	if err = stage("core.envelope", &ds.envNS, func() error {
		var err error
		env, err = core.Envelope(sys, xhat0, omega0, c.Period, eopt)
		return err
	}); err != nil {
		return
	}
	guess, err := core.GuessFromEnvelope(env, c.Period, c.N1, c.N2)
	if err != nil {
		return
	}
	qopt := core.QPOptions{N1: c.N1, N2: c.N2, Ctx: ctx}
	if c.N1*c.N2*sys.Dim()+c.N2 > matrixFreeCutover {
		qopt.Linear = core.LinearMatrixFree
	}
	err = stage("core.quasi", &ds.quasiNS, func() error {
		res, err := core.Quasiperiodic(sys, c.Period, guess, qopt)
		if err == nil {
			omega, gm, mv = res.OmegaMean(), env.GMRESSolves+res.GMRESSolves, env.GMRESMatVecs+res.GMRESMatVecs
		}
		return err
	})
	return
}

// servedOmega extracts the number a direct solve must reproduce from a
// served body.
func servedOmega(o *serve.Outcome) float64 {
	switch {
	case o.Envelope != nil:
		return o.Envelope.FinalOmega
	case o.Quasi != nil:
		return o.Quasi.OmegaMean
	}
	return math.NaN()
}
