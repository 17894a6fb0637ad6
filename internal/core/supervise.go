package core

import (
	"errors"

	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/solverr"
	"repro/internal/sparse"
)

// This file holds the solve-supervision machinery shared by the envelope and
// quasiperiodic solvers: the linear escalation ladder and the counters both
// result types report. The paper leaves the per-step nonlinear solve open
// ("any numerical method ... such as Newton-Raphson or continuation", §4.1);
// supervision is what makes that freedom safe at scale — a failed rung
// reports a structured solverr.Error and the layer above escalates instead of
// silently degrading. See DESIGN.md, "Failure semantics".

// linearStats accumulates the linear ladder's activity across all solves of
// a run. The envelope/quasi solvers copy it into their result types so
// iterative-path failures are visible to callers (they used to be discarded).
type linearStats struct {
	solves, matvecs         int
	stagnations, breakdowns int // iterative-rung failures observed
	gmresRescues, luRescues int // rungs entered after a failure
}

// linearLadder adapts the iterative Krylov solvers to newton.LinearSolveErr
// with escalation: recycled GMRESDR first, deflation-free GMRES on failure,
// and a sparse direct factorization as the last rung. It is the supervised
// replacement for the old gmresSolver adapter, which discarded the GMRESDR
// error entirely and handed Newton whatever partial iterate the stagnated
// solve left behind.
//
// The operator is matrix-free (SpectralOp); the direct rung asks it to emit
// its entries into a triplet on demand and factors them with the sparse LU.
// A dense O(n³) fallback would rebuild exactly the wall the matrix-free
// path exists to avoid and make every large-N failure pathological.
//
// The ladder is persistent (one per assembler/solve): the Krylov workspace
// and the sparse fallback factors (including the symbolic pattern) are
// pooled across solves, so the unarmed hot path allocates nothing after
// warmup.
type linearLadder struct {
	op      krylov.Operator
	asm     func(tr *sparse.Triplet) // sparse assembly for the direct rung
	prec    krylov.Preconditioner
	tol     float64
	rec     *krylov.Recycler // nil when recycling is off
	ws      *krylov.Workspace
	trip    *sparse.Triplet
	slu     *sparse.LU // sparse direct-solve rung; symbolic pattern reused
	restart int        // GMRES restart length
	stats   *linearStats
}

// gmresLadderMaxIter bounds each iterative rung, matching the historical
// adapter's budget.
const gmresLadderMaxIter = 400

// Matrix-free restart sizing: GMRES(50) is plenty at the paper's sizes, but
// on large bordered systems the harmonic preconditioner weakens (the t1-
// averaged JF misses ever-stronger waveform-dependent conductance as the
// circuit grows) and a 50-vector cycle stagnates. The ladder therefore
// scales the restart length with the operator dimension — an extra basis
// vector costs O(total) memory, nothing next to the dense Jacobian the path
// exists to avoid.
const (
	matFreeRestartMax = 200
	matFreeRestartDiv = 8
)

func matFreeRestart(total int) int {
	r := total / matFreeRestartDiv
	if r < 50 {
		r = 50
	}
	if r > matFreeRestartMax {
		r = matFreeRestartMax
	}
	return r
}

func newLinearLadder(tol float64, rec *krylov.Recycler, stats *linearStats) *linearLadder {
	return &linearLadder{tol: tol, rec: rec, ws: krylov.NewWorkspace(), stats: stats}
}

// reset points the ladder at a matrix-free operator; asm emits the
// operator's entries into a triplet when (and only when) the direct-rescue
// rung needs a factorization.
func (g *linearLadder) reset(op krylov.Operator, prec krylov.Preconditioner, asm func(tr *sparse.Triplet)) {
	g.op = op
	g.asm = asm
	g.prec = prec
	g.restart = matFreeRestart(op.Dim())
}

// note classifies one iterative-rung failure into the stats.
func (g *linearLadder) note(err error) {
	if solverr.IsKind(err, solverr.KindBreakdown) {
		g.stats.breakdowns++
	} else {
		g.stats.stagnations++
	}
}

// SolveErr runs the ladder: GMRESDR → deflation-free GMRES → sparse LU.
// A rung that fails is counted, the next one starts from scratch, and only
// when every rung has failed does the (structured, trail-carrying) error
// reach Newton.
func (g *linearLadder) SolveErr(b, x []float64) error {
	g.stats.solves++
	la.Fill(x, 0)
	opt := krylov.Options{Tol: g.tol, Prec: g.prec, MaxIter: gmresLadderMaxIter, Restart: g.restart, Work: g.ws}
	if opt.MaxIter < 2*opt.Restart {
		// Keep at least two full cycles available at enlarged restart lengths.
		opt.MaxIter = 2 * opt.Restart
	}
	res, err := krylov.GMRESDR(g.op, b, x, opt, g.rec)
	g.stats.matvecs += res.MatVecs
	if err == nil {
		return nil
	}
	g.note(err)
	firstErr := err

	// Rung 2: deflation-free GMRES. The carried deflation space (if any)
	// participated in the failure, so it is discarded, and the restart runs
	// the plain recurrence from a zero guess.
	g.stats.gmresRescues++
	g.rec.Invalidate()
	la.Fill(x, 0)
	res, err = krylov.GMRES(g.op, b, x, opt)
	g.stats.matvecs += res.MatVecs
	if err == nil {
		return nil
	}
	g.note(err)
	secondErr := err

	// Rung 3: a sparse direct factorization — the rung of last resort before
	// Newton-level rescue, trading factorization work for a guaranteed
	// direction whenever the Jacobian is nonsingular.
	g.stats.luRescues++
	if ferr := g.sparseFactor(g.op.Dim()); ferr != nil {
		e := solverr.Wrap(propagateLadderKind(ferr), "core.linear", ferr).
			WithMsg("linear ladder exhausted (gmresdr: %v; gmres: %v)", firstErr, secondErr)
		e.Attempt("gmresdr").Attempt("gmres").Attempt("sparse-lu")
		return e
	}
	g.slu.Solve(b, x)
	return nil
}

// sparseFactor assembles the current operator sparsely and (re)factors it,
// reusing the symbolic pattern when the structure is unchanged. The
// operator's own assembly emits exactly the entries its Apply evaluates.
func (g *linearLadder) sparseFactor(n int) error {
	if g.trip == nil || g.trip.Rows != n {
		g.trip = sparse.NewTriplet(n, n)
	}
	g.trip.Reset()
	g.asm(g.trip)
	csr := g.trip.ToCSR()
	if g.slu != nil && g.slu.N() == n {
		err := g.slu.Refactor(csr)
		if err == nil {
			return nil
		}
		if !errors.Is(err, sparse.ErrPatternChanged) {
			return err
		}
	}
	slu, err := sparse.FactorLU(csr)
	if err != nil {
		return err
	}
	g.slu = slu
	return nil
}

// Solve satisfies the legacy newton.LinearSolve interface; Newton prefers
// SolveErr, so this path only serves callers that cannot observe errors.
func (g *linearLadder) Solve(b, x []float64) { _ = g.SolveErr(b, x) }

// propagateLadderKind keeps the direct rung's classification (singular,
// bad-input) when it has one.
func propagateLadderKind(err error) solverr.Kind {
	if k := solverr.KindOf(err); k != solverr.KindUnknown {
		return k
	}
	return solverr.KindSingular
}

// nonlinearStats counts the envelope/quasi nonlinear ladder's activity:
// how many step solves needed each rescue rung, and how many exhausted the
// ladder entirely and fell back to step halving.
type nonlinearStats struct {
	fullRescues         int // rung 2: full (per-iteration refresh) Newton
	deepRescues         int // rung 3: deep damped Newton
	continuationRescues int // rung 4: source-stepping continuation
	stepHalvings        int // ladder exhausted; t2 step halved and reset
}

// checkState rejects non-finite solver states at a stage boundary with a
// diagnostic naming the offending unknown. stage is dotted-path style.
func checkState(stage string, x []float64) error {
	if i := solverr.FirstNonFinite(x); i >= 0 {
		return solverr.New(solverr.KindNonFinite, stage,
			"state became non-finite (%v)", x[i]).WithUnknown(i)
	}
	return nil
}
