package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/netlist"
	"repro/internal/serve"
)

// checker verifies every reply. It keeps the SHA-256 of the first body
// served for each content hash (not the body, so its memory does not grow
// with the run and show in peak_rss_mb): a later reply for that hash — a
// replay, a sweep point — must match it byte for byte.
type checker struct {
	mu    sync.Mutex
	first map[string][sha256.Size]byte
}

func newChecker() *checker { return &checker{first: map[string][sha256.Size]byte{}} }

// check returns nil when rp is a 200 whose content passes every check.
func (k *checker) check(it *item, rp reply) error {
	if rp.status != 200 {
		return fmt.Errorf("%s: status %d: %.200s", it.class, rp.status, rp.body)
	}
	if it.path == pathSweep {
		return k.checkSweep(it, rp.body)
	}
	return k.checkBody(it.canon, it.hash, rp.body)
}

// checkBody checks one solve body: its hash is the benchmark's own
// Canonicalize().Hash(), it repeats the first body served for that hash
// exactly, and its numbers are physical.
func (k *checker) checkBody(c *serve.Canonical, hash string, body []byte) error {
	sum := sha256.Sum256(body)
	k.mu.Lock()
	prev, seen := k.first[hash]
	if !seen {
		k.first[hash] = sum
	}
	k.mu.Unlock()
	if seen {
		if prev != sum {
			return fmt.Errorf("%s %s: body differs from the first body served for %.12s", c.Circuit, c.Analysis, hash)
		}
		return nil
	}
	var r serve.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s %s: %w", c.Circuit, c.Analysis, err)
	}
	if r.Hash != hash {
		return fmt.Errorf("%s %s: hash %.12s, want %.12s", c.Circuit, c.Analysis, r.Hash, hash)
	}
	if r.Outcome == nil || r.Analysis != c.Analysis || r.Partial {
		return fmt.Errorf("%s %s: no complete %s outcome", c.Circuit, c.Analysis, c.Analysis)
	}
	if err := checkOutcome(c, r.Outcome); err != nil {
		return fmt.Errorf("%s %s: %w", c.Circuit, c.Analysis, err)
	}
	return nil
}

func checkOutcome(c *serve.Canonical, o *serve.Outcome) error {
	lo, hi := tuningBand(c.Circuit)
	inBand := func(what string, f float64) error {
		if !(f >= lo && f <= hi) {
			return fmt.Errorf("%s %g Hz outside the tuning band [%g, %g]", what, f, lo, hi)
		}
		return nil
	}
	switch c.Analysis {
	case serve.AnalysisEnvelope:
		e := o.Envelope
		if e == nil || len(e.T2) < 2 {
			return fmt.Errorf("empty envelope")
		}
		if err := finite(e.T2, e.Omega, e.Phi); err != nil {
			return err
		}
		if fsw, ok := converterFsw(c.Circuit); ok {
			if e.FinalOmega != fsw {
				return fmt.Errorf("ripple envelope ω %g, want the pinned fsw %g", e.FinalOmega, fsw)
			}
			return nil
		}
		return inBand("final_omega", e.FinalOmega)
	case serve.AnalysisQuasiperiodic:
		if o.Quasi == nil {
			return fmt.Errorf("empty quasiperiodic outcome")
		}
		if err := finite(o.Quasi.Omega); err != nil {
			return err
		}
		return inBand("omega_mean", o.Quasi.OmegaMean)
	case serve.AnalysisTransient:
		t := o.Transient
		if t == nil || len(t.T) < 2 {
			return fmt.Errorf("empty transient")
		}
		return finite(t.T, t.X, t.Final)
	case serve.AnalysisShooting:
		if o.Shooting == nil {
			return fmt.Errorf("empty shooting outcome")
		}
		return inBand("freq", o.Shooting.Freq)
	case serve.AnalysisHB:
		if o.HB == nil {
			return fmt.Errorf("empty hb outcome")
		}
		return inBand("freq", o.HB.Freq)
	}
	return fmt.Errorf("unchecked analysis %q", c.Analysis)
}

// tuningBand is the oscillation-frequency range a circuit's control can
// reach, with margin: the paper VCO tunes up from 0.55 MHz at zero plate
// displacement (its envelopes, QP and shooting land at 0.72–0.98 MHz); a
// generated ring follows RingVCONominalFreq over its 1.5 ± 0.5 V default
// control.
func tuningBand(ckt string) (lo, hi float64) {
	if rest, ok := strings.CutPrefix(ckt, serve.CircuitRingVCO+"?stages="); ok {
		stages, _ := strconv.Atoi(rest)
		return 0.8 * netlist.RingVCONominalFreq(stages, 1.0), 1.2 * netlist.RingVCONominalFreq(stages, 2.0)
	}
	return 0.5e6, 2.5e6
}

// converterFsw returns the switching frequency of a canonical converter
// circuit name.
func converterFsw(ckt string) (float64, bool) {
	if !strings.HasPrefix(ckt, serve.CircuitBuckConverter+"?") && !strings.HasPrefix(ckt, serve.CircuitBoostConverter+"?") {
		return 0, false
	}
	_, f, ok := strings.Cut(ckt, "&fsw=")
	if !ok {
		return 0, false
	}
	fsw, err := strconv.ParseFloat(f, 64)
	return fsw, err == nil
}

func finite(series ...[]float64) error {
	for _, s := range series {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("non-finite value %g", v)
			}
		}
	}
	return nil
}

// checkSweep checks an NDJSON sweep stream: one record per point, each
// with the point's own content hash and a body that passes checkBody (so
// points that repeat earlier single requests repeat their bytes), then a
// clean trailer.
func (k *checker) checkSweep(it *item, stream []byte) error {
	var (
		header struct {
			Sweep *struct{ Points int } `json:"sweep"`
		}
		done struct {
			Done *struct{ Emitted, Errors int } `json:"done"`
		}
		got = map[int]bool{}
	)
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for line := 0; sc.Scan(); line++ {
		b := sc.Bytes()
		if line == 0 {
			if err := json.Unmarshal(b, &header); err != nil || header.Sweep == nil || header.Sweep.Points != len(it.points) {
				return fmt.Errorf("sweep: bad header %.200s", b)
			}
			continue
		}
		if bytes.HasPrefix(b, []byte(`{"done"`)) {
			if err := json.Unmarshal(b, &done); err != nil {
				return fmt.Errorf("sweep: bad trailer: %w", err)
			}
			continue
		}
		var rec struct {
			Seq    int             `json:"seq"`
			VCtlDC float64         `json:"vctl_dc"`
			Hash   string          `json:"hash"`
			Body   json.RawMessage `json:"body"`
		}
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("sweep: bad record: %w", err)
		}
		if rec.Seq < 0 || rec.Seq >= len(it.points) || got[rec.Seq] {
			return fmt.Errorf("sweep: unexpected record seq %d", rec.Seq)
		}
		got[rec.Seq] = true
		if rec.Hash != it.points[rec.Seq] || len(rec.Body) == 0 {
			return fmt.Errorf("sweep point %d: hash %.12s, want %.12s (or no body)", rec.Seq, rec.Hash, it.points[rec.Seq])
		}
		c := &serve.Canonical{Circuit: it.req.Circuit, VCtlDC: rec.VCtlDC, Analysis: it.req.Analysis}
		if err := k.checkBody(c, rec.Hash, rec.Body); err != nil {
			return fmt.Errorf("sweep point %d: %w", rec.Seq, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if done.Done == nil || done.Done.Errors != 0 || done.Done.Emitted != len(it.points) || len(got) != len(it.points) {
		return fmt.Errorf("sweep: incomplete stream (%d of %d points)", len(got), len(it.points))
	}
	return nil
}
