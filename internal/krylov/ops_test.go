package krylov

import "repro/internal/la"

// DenseOp adapts *la.Dense to the Operator interface, so the solvers can be
// checked against small assembled matrices with known direct solutions.
type DenseOp struct{ M *la.Dense }

// Dim returns the operator dimension.
func (d DenseOp) Dim() int { return d.M.Rows }

// Apply computes y = M x.
func (d DenseOp) Apply(x, y []float64) { d.M.MulVec(x, y) }
