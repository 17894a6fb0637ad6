package main

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/serve"
)

// histogram counts a pass's requests per class.
func histogram(items []*item) map[string]int {
	h := map[string]int{}
	for _, it := range items {
		h[it.class]++
	}
	return h
}

func wantHistogram(w *workload) map[string]int {
	h := map[string]int{}
	for _, c := range w.classes {
		h[c.name] = c.count
	}
	return h
}

func drawPasses(t *testing.T, w *workload, seed int64, client, passes int) [][]*item {
	t.Helper()
	g := newGenerator(w, seed, client)
	var out [][]*item
	for p := 0; p < passes; p++ {
		items, err := g.pass()
		if err != nil {
			t.Fatalf("%s seed %d pass %d: %v", w.name, seed, p, err)
		}
		out = append(out, items)
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a := drawPasses(t, w, 7, 0, 3)
		b := drawPasses(t, w, 7, 0, 3)
		for p := range a {
			if len(a[p]) != len(b[p]) {
				t.Fatalf("%s pass %d: %d vs %d requests", name, p, len(a[p]), len(b[p]))
			}
			for i := range a[p] {
				if a[p][i].id != b[p][i].id || !bytes.Equal(a[p][i].body, b[p][i].body) {
					t.Fatalf("%s pass %d request %d differs between two draws of one seed", name, p, i)
				}
			}
			if got, want := histogram(a[p]), wantHistogram(w); !equalCounts(got, want) {
				t.Errorf("%s pass %d histogram %v, want %v", name, p, got, want)
			}
		}
	}
}

func TestNewSeedNewHashes(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		seen := map[string]bool{}
		for _, items := range drawPasses(t, w, 1, 0, 2) {
			for _, it := range items {
				seen[it.hash] = true
			}
		}
		for p, items := range drawPasses(t, w, 2, 0, 2) {
			if got, want := histogram(items), wantHistogram(w); !equalCounts(got, want) {
				t.Errorf("%s seed 2 pass %d histogram %v, want %v", name, p, got, want)
			}
			for _, it := range items {
				if seen[it.hash] {
					t.Errorf("%s: seed 2 repeats seed 1's %s request %s", name, it.class, it.hash[:12])
				}
			}
		}
	}
}

// TestClientsDrawOwnHashes pins that serve-mix's two clients never share a
// fresh hash, so coalescing cannot depend on timing.
func TestClientsDrawOwnHashes(t *testing.T) {
	w := workloads["serve-mix"]
	fresh := func(client int) map[string]bool {
		m := map[string]bool{}
		for _, items := range drawPasses(t, w, 3, client, 3) {
			for _, it := range items {
				if it.class == "replay.memory" || it.class == "replay.disk" {
					continue
				}
				m[it.hash] = true
				for _, h := range it.points {
					m[h] = true
				}
			}
		}
		return m
	}
	a, b := fresh(0), fresh(1)
	for h := range a {
		if b[h] {
			t.Fatalf("clients share fresh hash %s", h[:12])
		}
	}
}

// TestSweepsFollowTheirSingles pins that each sweep overlaps four single
// requests sent earlier in the same pass.
func TestSweepsFollowTheirSingles(t *testing.T) {
	for _, items := range drawPasses(t, workloads["serve-mix"], 5, 0, 3) {
		sent := map[string]bool{}
		for _, it := range items {
			if it.path != pathSweep {
				sent[it.hash] = true
				continue
			}
			overlap := 0
			for _, h := range it.points {
				if sent[h] {
					overlap++
				}
			}
			if len(it.points) != 8 || overlap != 4 {
				t.Fatalf("sweep %s: %d points, %d already requested; want 8 and 4", it.id, len(it.points), overlap)
			}
		}
	}
}

func equalCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	if v, err := percentile(seq(100), 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, err)
	}
	if _, err := percentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples has only 9 beyond it and must be refused")
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples must be refused")
	}
	if v, err := percentile(seq(3), 50); err != nil || v != 2 {
		t.Errorf("median of 1..3 = %v, %v; want 2", v, err)
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := seq(100)
	xs[0] = failedLatency // the fastest request failed
	v, err := percentile(xs, 90)
	if err != nil || v != 91 {
		t.Errorf("p90 with one failure = %v, %v; want 91 (the failure sorts last)", v, err)
	}
	// Fixing the failure never makes a percentile worse.
	fixed := seq(100)
	fixed[0] = 1000
	for _, p := range []float64{50, 90} {
		before, _ := percentile(xs, p)
		after, _ := percentile(fixed, p)
		if after > before {
			t.Errorf("p%g rose from %v to %v when a failure was fixed", p, before, after)
		}
	}
	for i := 0; i < 51; i++ {
		xs[i] = math.Inf(1)
	}
	if _, err := percentile(xs, 50); err == nil {
		t.Error("a median that lands on a failed request must be refused")
	}
}

func TestCheckerRejectsWrongBodies(t *testing.T) {
	it, err := simulateItem("t", transientReq(serve.CircuitPaperVCO, 0, 2e-6, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	good := []byte(`{"hash":"` + it.hash + `","analysis":"transient","transient":{"steps":1,"t_end":1,"var":"v","t":[0,1],"x":[0,1],"final":[1]}}`)
	k := newChecker()
	if err := k.check(it, reply{status: 200, body: good}); err != nil {
		t.Fatalf("good body rejected: %v", err)
	}
	if err := k.check(it, reply{status: 200, body: bytes.Replace(good, []byte(`[1]}`), []byte(`[2]}`), 1)}); err == nil {
		t.Error("a replay that differs from the first body served must fail")
	}
	other, _ := simulateItem("t", transientReq(serve.CircuitPaperVCO, 0, 3e-6, 1e-8))
	if err := newChecker().check(other, reply{status: 200, body: good}); err == nil {
		t.Error("a body carrying another request's hash must fail")
	}
	if err := newChecker().check(it, reply{status: 500, body: []byte(`{}`)}); err == nil {
		t.Error("a non-200 reply must fail")
	}
}

// TestProbeSizesMatchDenseCold pins the LU probe sizes to the bordered
// systems dense-cold's classes actually factor.
func TestProbeSizesMatchDenseCold(t *testing.T) {
	w := workloads["dense-cold"]
	var sizes []int
	for _, c := range w.classes {
		it, err := simulateItem(c.name, c.draw(newGenerator(w, 1, 0)))
		if err != nil {
			t.Fatal(err)
		}
		n, err := borderedSize(it.canon)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, n)
	}
	want := append([]int(nil), luProbeSizes...)
	sort.Ints(sizes)
	sort.Ints(want)
	sizes = dedupe(sizes)
	if len(sizes) != len(want) {
		t.Fatalf("dense-cold bordered sizes %v, probe sizes %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("dense-cold bordered sizes %v, probe sizes %v", sizes, want)
		}
	}
}

func dedupe(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// TestExactCountsRepeat runs each workload's traced run twice with one
// seed and requires the exact per-pass counts to repeat, and the traced and
// untraced halves of each run to be the same size.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload traced twice")
	}
	exact := []string{"newton.iterations", "la.factorizations", "krylov.matvecs", "serve.solves_per_distinct", "serve.disk_puts"}
	for _, name := range workloadNames() {
		var runs [2]map[string]float64
		for i := range runs {
			r, err := run(workloads[name], options{workload: name, seed: 4, seconds: 0.1, trace: true, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if r.failed != 0 {
				t.Fatalf("%s: %d failed: %v", name, r.failed, r.errs)
			}
			runs[i] = map[string]float64{}
			samples := map[string]int{}
			for _, m := range r.metrics {
				runs[i][m.name] = m.value
				samples[m.name] = m.samples
			}
			// A short run times one traced and one untraced pass, so the
			// overhead compares halves of one size and class mix.
			if tr, un := samples["trace.latency_p50_ms"], samples["trace.untraced_p50_ms"]; tr == 0 || tr != un {
				t.Errorf("%s: %d traced and %d untraced samples", name, tr, un)
			}
		}
		for _, m := range exact {
			if runs[0][m] != runs[1][m] {
				t.Errorf("%s %s: %v then %v", name, m, runs[0][m], runs[1][m])
			}
		}
	}
}
