package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Headers the benchmark's client sets so its own middleware can tie spans
// to requests. The node ignores both.
const (
	headerRequestID = "X-Bench-Request-Id"
	headerTrace     = "X-Bench-Trace"
)

var clockStart = time.Now()

// nowNS is the monotonic time since the process started, in nanoseconds.
func nowNS() int64 { return int64(time.Since(clockStart)) }

// span is one timed interval at a layer boundary. Spans of one request
// share ID; Parent names the span that caused this one.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Note   string `json:"note,omitempty"`
}

// tracer keeps spans in memory until the run ends. Only requests the
// client marked traced are recorded; everything else passes through.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	byHash map[string]string // fresh content hash → traced request ID
	entry  map[string]int64  // traced request ID → handler entry
	sweep  map[string]bool   // traced request IDs that are sweeps
}

func newTracer() *tracer {
	return &tracer{byHash: map[string]string{}, entry: map[string]int64{}, sweep: map[string]bool{}}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// expect registers the content hashes a traced request may make the
// engine solve, so the engine decorator can attribute the solve.
func (t *tracer) expect(it *item) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if it.path == pathSweep {
		t.sweep[it.id] = true
		for _, h := range it.points {
			t.byHash[h] = it.id
		}
		return
	}
	t.byHash[it.hash] = it.id
}

// spansNamed returns the durations (ns) of every span called name recorded
// at or after index from, and the notes alongside.
func (t *tracer) spansNamed(name string, from int) (durs []float64, notes []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans[from:] {
		if s.Name == name {
			durs = append(durs, float64(s.Dur))
			notes = append(notes, s.Note)
		}
	}
	return durs, notes
}

// medianMS is the median duration, in milliseconds, of the spans called
// name (and noted note, when note is not empty) recorded at or after index
// from, with their count.
func (t *tracer) medianMS(name, note string, from int) (float64, int) {
	durs, notes := t.spansNamed(name, from)
	var xs []float64
	for i, d := range durs {
		if note == "" || notes[i] == note {
			xs = append(xs, d/1e6)
		}
	}
	return median(xs), len(xs)
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// middleware wraps the node's handler: for a traced request it records the
// handler span, tagged with the cache tier that answered (X-Cache) or the
// status, and the entry time the engine decorator measures queue wait
// from.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(headerRequestID)
		if id == "" || r.Header.Get(headerTrace) == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := nowNS()
		t.mu.Lock()
		t.entry[id] = start
		t.mu.Unlock()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		note := w.Header().Get("X-Cache")
		if sw.status != http.StatusOK {
			note = http.StatusText(sw.status)
		}
		t.add(span{ID: id, Name: "serve.handler", Parent: "client.request", Start: start, Dur: nowNS() - start, Note: note})
	})
}

// statusWriter records the status code; it forwards Flush so the sweep
// handler still streams.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracedEngine decorates serve's engine: it sums the per-stage Stats of
// every solve and, for a solve a traced request caused, records the engine
// span with build/IC/solve children and the queue wait before it. While on
// is false it passes every solve straight through.
type tracedEngine struct {
	t  *tracer
	on atomic.Bool
	// Running totals in nanoseconds, the solve count, and the solves that
	// produced a body for a hash no earlier solve had produced.
	build, ic, solve, n, useful atomic.Int64

	mu     sync.Mutex
	solved map[string]bool
}

func newTracedEngine(t *tracer) *tracedEngine {
	e := &tracedEngine{t: t, solved: map[string]bool{}}
	e.on.Store(true)
	return e
}

func (e *tracedEngine) Solve(ctx context.Context, c *serve.Canonical) (*serve.Outcome, serve.Stats, error) {
	if !e.on.Load() {
		return serve.CircuitEngine{}.Solve(ctx, c)
	}
	start := nowNS()
	out, st, err := serve.CircuitEngine{}.Solve(ctx, c)
	end := nowNS()
	e.build.Add(st.BuildNS)
	e.ic.Add(st.ICNS)
	e.solve.Add(st.SolveNS)
	e.n.Add(1)
	hash := c.Hash()
	if err == nil {
		e.mu.Lock()
		if !e.solved[hash] {
			e.solved[hash] = true
			e.useful.Add(1)
		}
		e.mu.Unlock()
	}

	e.t.mu.Lock()
	id, ok := e.t.byHash[hash]
	entry, sweep := e.t.entry[id], e.t.sweep[id]
	e.t.mu.Unlock()
	if !ok {
		return out, st, err
	}
	note := ""
	if err != nil {
		note = "error"
	}
	e.t.add(span{ID: id, Name: "engine.solve", Parent: "serve.handler", Start: start, Dur: end - start, Note: note})
	at := start
	for _, stage := range []struct {
		name string
		ns   int64
	}{{"engine.build", st.BuildNS}, {"engine.ic", st.ICNS}, {"engine.stage_solve", st.SolveNS}} {
		e.t.add(span{ID: id, Name: stage.name, Parent: "engine.solve", Start: at, Dur: stage.ns})
		at += stage.ns
	}
	if !sweep && entry > 0 {
		e.t.add(span{ID: id, Name: "serve.queue_wait", Parent: "serve.handler", Start: entry, Dur: start - entry})
	}
	return out, st, err
}

// stageTotals is a snapshot of the decorator's running totals.
type stageTotals struct{ build, ic, solve, n, useful int64 }

func (e *tracedEngine) totals() stageTotals {
	return stageTotals{e.build.Load(), e.ic.Load(), e.solve.Load(), e.n.Load(), e.useful.Load()}
}
