package main

import (
	"fmt"
	"math/rand"

	"repro/internal/fourier"
	"repro/internal/la"
	"repro/internal/serve"
)

// luProbeSizes are dense-cold's bordered system sizes: N1·n+1 for the
// 25-point paper VCOs (101) and ring-5 (376), N1·n for the forced buck
// (33 points) and boost (65 points) ripple envelopes, and N1·N2·n+N2 for
// the paper QP. TestProbeSizesMatchDenseCold pins them to the catalog.
var luProbeSizes = []int{101, 376, 198, 390, 1035}

// borderedSize is the order of the dense system a request's envelope or QP
// Newton step factors: N1·n, plus one frequency unknown for an autonomous
// envelope, or N1·N2·n plus N2 for a QP. Other analyses return 0.
func borderedSize(c *serve.Canonical) (int, error) {
	if c.Analysis != serve.AnalysisEnvelope && c.Analysis != serve.AnalysisQuasiperiodic {
		return 0, nil
	}
	sys, err := buildSystem(c)
	if err != nil {
		return 0, err
	}
	n := c.N1 * sys.Dim()
	switch {
	case c.Analysis == serve.AnalysisQuasiperiodic:
		n = n*c.N2 + c.N2
	case sys.OscVar() >= 0:
		n++
	}
	return n, nil
}

// fftProbeSizes are the t1 grids the workloads run (25 paper envelopes, 33
// buck, 65 boost, 49/81 the matrix-free rings) plus the radix-2 references.
var fftProbeSizes = []int{25, 33, 49, 65, 81, 32, 64}

// probeLU times la.NewLU(n).FactorInto on a fixed diagonally dominant
// matrix and returns the median of reps factorizations, in microseconds.
func probeLU(n, reps int, t *tracer) (float64, error) {
	rng := rand.New(rand.NewSource(int64(n)))
	a := la.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.Float64()-0.5)
		}
		a.Add(i, i, float64(n))
	}
	f := la.NewLU(n)
	us := make([]float64, reps)
	for r := range us {
		t0 := nowNS()
		if err := f.FactorInto(a); err != nil {
			return 0, fmt.Errorf("la probe n=%d: %w", n, err)
		}
		d := nowNS() - t0
		us[r] = float64(d) / 1e3
		t.add(span{ID: "probe", Name: fmt.Sprintf("la.factor.n%d", n), Start: t0, Dur: d})
	}
	return median(us), nil
}

// probeFFT times fourier.PlanFFT(n).Forward in batches and returns the
// median per-transform time over the batches, in microseconds.
func probeFFT(n, batches, perBatch int, t *tracer) float64 {
	p := fourier.PlanFFT(n)
	rng := rand.New(rand.NewSource(int64(n)))
	src := make([]complex128, n)
	dst := make([]complex128, n)
	for i := range src {
		src[i] = complex(rng.Float64(), rng.Float64())
	}
	us := make([]float64, batches)
	for b := range us {
		t0 := nowNS()
		for k := 0; k < perBatch; k++ {
			p.Forward(dst, src)
		}
		d := nowNS() - t0
		us[b] = float64(d) / 1e3 / float64(perBatch)
		t.add(span{ID: "probe", Name: fmt.Sprintf("fourier.fft.n%d", n), Start: t0, Dur: d})
	}
	return median(us)
}
