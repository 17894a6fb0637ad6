package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/circuit"
	"repro/internal/serve"
)

// Request paths of the served node.
const (
	pathSimulate = "/v1/simulate"
	pathSweep    = "/v1/sweep"
)

// item is one generated request: the exact bytes a client posts, plus what
// the checks expect back.
type item struct {
	id    string // request ID, shared by every span of this request
	class string
	path  string
	body  []byte
	// req and canon are the single request and its canonical form
	// (simulate only); hash is the content address the node must answer
	// with.
	req   *serve.Request
	canon *serve.Canonical
	hash  string
	// points are a sweep's per-point content addresses, in plan order,
	// and sweepVals its vctl_dc values.
	points    []string
	sweepVals []float64
	// canonAt and canonNS are when the client-side
	// DecodeRequest+Canonicalize+Hash started and how long it took.
	canonAt, canonNS int64
}

// class is one request class of a workload: how many of it a pass holds
// and how to draw a fresh member of it.
type class struct {
	name  string
	count int
	// draw returns the next request of the class. It may consult and
	// extend g's state (replay sets, sweep overlap); every value it varies
	// comes from g.rng, so one seed gives one sequence.
	draw func(g *generator) *serve.Request
	// sweep, when set, replaces draw: the class is an 8-point vctl_dc
	// sweep over half already-requested and half new values.
	sweep bool
}

// workload is one named benchmark workload.
type workload struct {
	name    string
	clients int
	classes []class
	// warmups are the discarded requests each set-up sends once the node
	// is ready; they warm lazily built state on every code path the timed
	// classes take, at a fraction of their cost.
	warmups []serve.Request
	// replay, when set, makes the set-up fill the replay working set,
	// cold then hot, so the hot set is the most recently used at the first
	// timed request.
	replay bool
	// cacheBytes overrides the node's memory-cache budget (0 = default),
	// and store gives the node a disk tier.
	cacheBytes int64
	store      bool
}

// Paper-circuit control period: §5 sweeps the control 30× slower than the
// 0.75 MHz nominal oscillation.
const paperControlPeriod = 30 / circuit.VCONominalFreq

// Replay working set of serve-mix. The memory tier holds the hot set plus
// room for the fresh bodies written between two reads of one hot key; the
// cold set is far larger than that room, so its reads fall through to the
// disk tier.
const (
	hotReplays   = 64
	coldReplays  = 512
	mixCacheSize = 1 << 20
)

// jitter returns 1 + a·u with u uniform in [0,1): the small seeded change
// that gives every timed request its own content hash.
func (g *generator) jitter(a float64) float64 { return 1 + a*g.rng.Float64() }

// steps returns base plus a seeded offset in [0, base/20].
func (g *generator) steps(base int) int { return base + g.rng.Intn(base/20+1) }

func envelope(circuit string, tstop float64, steps, n1 int) *serve.Request {
	return &serve.Request{Circuit: circuit, Analysis: serve.AnalysisEnvelope,
		Options: serve.RequestOptions{TStop: tstop, Steps: steps, N1: n1}}
}

func converterEnvelope(base string, duty, tstop float64) *serve.Request {
	return &serve.Request{Circuit: fmt.Sprintf("%s?duty=%g&fsw=1e5", base, duty),
		Analysis: serve.AnalysisEnvelope, Options: serve.RequestOptions{TStop: tstop}}
}

func transientReq(circuit string, vctl, tstop, h float64) *serve.Request {
	return &serve.Request{Circuit: circuit, VCtlDC: vctl, Analysis: serve.AnalysisTransient,
		Options: serve.RequestOptions{TStop: tstop, H: h}}
}

// drawEnvelope scales tstop with the seeded step count, so the t2 step
// stays the class's and the cost per request stays put.
func drawEnvelope(circuit string, tstop float64, steps, n1 int) func(*generator) *serve.Request {
	return func(g *generator) *serve.Request {
		s := g.steps(steps)
		return envelope(circuit, tstop*float64(s)/float64(steps)*g.jitter(1e-3), s, n1)
	}
}

// paperVCONetlist is the §5 vacuum VCO (circuit.DefaultVCOParams) as netlist
// text: the same elements in the same order as circuit.NewVCO, with the
// 25 kHz sine control.
func paperVCONetlist() string {
	p := circuit.DefaultVCOParams()
	return fmt.Sprintf("L1 tank 0 %.17g esr=%.17g\nN1 tank 0 g1=%.17g g3=%.17g\n"+
		"M1 tank 0 c0=%.17g d0=%.17g m=%.17g b=%.17g k=%.17g gamma=%.17g ctl=SIN(1.5 3.3 %.17g)\n.oscvar tank\n",
		p.L, p.ESR, p.G1, p.G3, p.C0, p.D0, p.M, p.B, p.K, p.Gamma, 1/paperControlPeriod)
}

// drawPaperNetlist returns a fresh request for the paper VCO as an inline
// netlist whose only change is a comment naming the seed, client and draw.
// The content hash is new every time and the solve is the same every time:
// the autonomous shooting, HB and QP preambles are fragile in the frequency
// guess (see README.md, "Known defects"), so the classes that run them vary
// nothing the solver sees.
func drawPaperNetlist(analysis string, opt serve.RequestOptions) func(*generator) *serve.Request {
	return func(g *generator) *serve.Request {
		g.draws++
		return &serve.Request{Netlist: fmt.Sprintf("%s* perfbench seed %d client %d draw %d\n", paperVCONetlist(), g.seed, g.client, g.draws),
			Analysis: analysis, Options: opt}
	}
}

// drawDuty is the converters' seeded duty ratio, in [0.45, 0.6]: a
// mid-range slice of the catalog's duty bounds, narrow enough that the
// per-request Newton work stays within ±10% (the boost converter needs 770
// iterations at duty 0.3 and 440–540 from 0.45 up).
func (g *generator) drawDuty() float64 { return 0.45 + 0.15*g.rng.Float64() }

func drawConverter(base string, tstop float64) func(*generator) *serve.Request {
	return func(g *generator) *serve.Request { return converterEnvelope(base, g.drawDuty(), tstop) }
}

var workloads = map[string]*workload{
	// dense-cold: one client, every request a distinct miss on a catalog
	// circuit below the matrix-free cutover. Per pass the classes sort by
	// latency as paper-vco < air < QP < converters < ring-5, so with 4+4 of
	// the first two out of 12 the median sits mid-class in paper-vco-air.
	"dense-cold": {
		name:    "dense-cold",
		clients: 1,
		classes: []class{
			{name: "paper-vco.envelope", count: 4, draw: drawEnvelope(serve.CircuitPaperVCO, 60e-6, 400, 0)},
			{name: "paper-vco-air.envelope", count: 4, draw: drawEnvelope(serve.CircuitPaperVCOAir, 3e-3, 600, 0)},
			{name: "paper-vco.quasiperiodic", count: 1, draw: drawPaperNetlist(serve.AnalysisQuasiperiodic, serve.RequestOptions{Period: paperControlPeriod})},
			{name: "ring-vco-5.envelope", count: 1, draw: drawEnvelope("ring-vco?stages=5", 20e-6, 100, 0)},
			{name: "buck.ripple", count: 1, draw: drawConverter(serve.CircuitBuckConverter, 2e-3)},
			{name: "boost.ripple", count: 1, draw: drawConverter(serve.CircuitBoostConverter, 1e-3)},
		},
		warmups: []serve.Request{
			*envelope(serve.CircuitPaperVCO, 6e-6, 40, 0),
			*envelope(serve.CircuitPaperVCOAir, 3e-4, 60, 0),
			{Circuit: serve.CircuitPaperVCO, Analysis: serve.AnalysisQuasiperiodic,
				Options: serve.RequestOptions{Period: paperControlPeriod, N2: 5}},
			*envelope("ring-vco?stages=5", 2e-6, 10, 0),
			*converterEnvelope(serve.CircuitBuckConverter, 0.45, 2e-4),
			*converterEnvelope(serve.CircuitBoostConverter, 0.45, 1e-4),
		},
	},
	// matfree-cold: one client, ring VCOs with the default sine control and
	// n1 just above the 1500-unknown cutover, so the served path runs the
	// matrix-free spectral operator. Two ring-7 per ring-11 put the median
	// mid-class in ring-7.
	"matfree-cold": {
		name:    "matfree-cold",
		clients: 1,
		classes: []class{
			{name: "ring-vco-7.matfree", count: 2, draw: drawEnvelope("ring-vco?stages=7", 4e-6, 4, 81)},
			{name: "ring-vco-11.matfree", count: 1, draw: drawEnvelope("ring-vco?stages=11", 4e-6, 4, 49)},
		},
		warmups: []serve.Request{*envelope("ring-vco?stages=7", 1e-6, 1, 81)},
	},
	// serve-mix: two clients against a node with a disk store. Per client
	// pass of 100: the median falls mid-class in memory replays (0–73%),
	// p90 in buck transients (87–95%), p99 in hb (97–100%).
	"serve-mix": {
		name:       "serve-mix",
		clients:    2,
		replay:     true,
		store:      true,
		cacheBytes: mixCacheSize,
		classes: []class{
			{name: "replay.memory", count: 73, draw: func(g *generator) *serve.Request { return g.hot[g.rng.Intn(len(g.hot))] }},
			{name: "replay.disk", count: 4, draw: func(g *generator) *serve.Request { return g.cold[g.rng.Intn(len(g.cold))] }},
			{name: "paper-vco.transient.vctl", count: 8, draw: func(g *generator) *serve.Request {
				return transientReq(serve.CircuitPaperVCO, g.vctl(), 2e-6, 1e-8)
			}},
			{name: "sweep.vctl", count: 2, sweep: true},
			{name: "buck.transient", count: 8, draw: func(g *generator) *serve.Request {
				return transientReq(fmt.Sprintf("%s?duty=%g&fsw=1e5", serve.CircuitBuckConverter, g.drawDuty()), 0, 2e-4, 5e-8)
			}},
			{name: "paper-vco.shooting", count: 2, draw: drawPaperNetlist(serve.AnalysisShooting, serve.RequestOptions{})},
			{name: "paper-vco.hb", count: 3, draw: drawPaperNetlist(serve.AnalysisHB, serve.RequestOptions{})},
		},
	},
}

// workloadNames lists the workloads in a fixed order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// replaySpan is the shortest span of a replay-set transient. At 2000–4000
// steps each fill solve costs about 3 ms, so the fill makes serve-mix's
// set-up last seconds, while the body stays at the node's 256-point series
// cap and a replay costs what a shorter solve's would.
const replaySpan = 2e-5

// replaySet returns serve-mix's replay working set: paper-circuit
// transients with distinct spans, hot then cold. It depends only on seed,
// so both clients (and every set-up of a run) share it.
func replaySet(seed int64) (hot, cold []*serve.Request) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	all := make([]*serve.Request, hotReplays+coldReplays)
	for i := range all {
		ckt := serve.CircuitPaperVCO
		if i%2 == 1 {
			ckt = serve.CircuitPaperVCOAir
		}
		all[i] = transientReq(ckt, 0, replaySpan*(1+rng.Float64()), 1e-8)
	}
	return all[:hotReplays], all[hotReplays:]
}

// generator draws one client's request stream.
type generator struct {
	w      *workload
	rng    *rand.Rand
	seed   int64
	client int
	seq    int
	draws  int             // netlist draws so far
	seen   map[string]bool // fresh hashes this client has drawn
	hot    []*serve.Request
	cold   []*serve.Request
	// sweepSeeds are vctl values of this pass's single requests, consumed
	// four at a time by the pass's sweeps.
	sweepSeeds []float64
}

func newGenerator(w *workload, seed int64, client int) *generator {
	g := &generator{w: w, seed: seed, client: client, seen: map[string]bool{},
		rng: rand.New(rand.NewSource(seed*7919 + int64(client)))}
	if w.replay {
		g.hot, g.cold = replaySet(seed)
	}
	return g
}

func (g *generator) vctl() float64 { return 1 + 2*g.rng.Float64() }

// pass draws the next pass: exactly class.count requests of each class, in
// a seeded order where every sweep follows the single requests it
// overlaps.
func (g *generator) pass() ([]*item, error) {
	g.sweepSeeds = g.sweepSeeds[:0]
	var singles, sweeps []*item
	for _, c := range g.w.classes {
		for k := 0; k < c.count; k++ {
			if c.sweep {
				sweeps = append(sweeps, &item{class: c.name})
				continue
			}
			it, err := g.fresh(c)
			if err != nil {
				return nil, err
			}
			singles = append(singles, it)
		}
	}
	g.rng.Shuffle(len(singles), func(i, j int) { singles[i], singles[j] = singles[j], singles[i] })
	out := singles
	for k, sw := range sweeps {
		if err := g.fillSweep(sw, k); err != nil {
			return nil, err
		}
		// Insert after the last single whose value the sweep reuses.
		last := -1
		for i, it := range out {
			if it.req != nil && it.req.VCtlDC != 0 && containsValue(sw.sweepVals, it.req.VCtlDC) {
				last = i
			}
		}
		at := last + 1 + g.rng.Intn(len(out)-last)
		out = append(out[:at], append([]*item{sw}, out[at:]...)...)
	}
	for _, it := range out {
		it.id = fmt.Sprintf("%s-c%d-%d", g.w.name, g.client, g.seq)
		g.seq++
	}
	return out, nil
}

// fresh draws a request of class c, redrawing fresh classes until the
// content hash is new to this client (replays repeat by design).
func (g *generator) fresh(c class) (*item, error) {
	replay := c.name == "replay.memory" || c.name == "replay.disk"
	for try := 0; try < 100; try++ {
		req := c.draw(g)
		it, err := simulateItem(c.name, req)
		if err != nil {
			return nil, err
		}
		if replay || !g.seen[it.hash] {
			g.seen[it.hash] = true
			if v := req.VCtlDC; v != 0 {
				g.sweepSeeds = append(g.sweepSeeds, v)
			}
			return it, nil
		}
	}
	return nil, fmt.Errorf("class %s: no fresh request in 100 draws", c.name)
}

// simulateItem encodes req and canonicalizes the encoded bytes exactly as
// the node will, timing DecodeRequest+Canonicalize+Hash.
func simulateItem(class string, req *serve.Request) (*item, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	t0 := nowNS()
	dec, err := serve.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("class %s: %w", class, err)
	}
	c, err := dec.Canonicalize()
	if err != nil {
		return nil, fmt.Errorf("class %s: %w", class, err)
	}
	hash := c.Hash()
	return &item{class: class, path: pathSimulate, body: body, req: req, canon: c, hash: hash, canonAt: t0, canonNS: nowNS() - t0}, nil
}

// fillSweep builds the k-th sweep of the pass: four values this pass
// already requested singly, four new ones.
func (g *generator) fillSweep(sw *item, k int) error {
	vals := append([]float64(nil), g.sweepSeeds[4*k:4*k+4]...)
	for len(vals) < 8 {
		vals = append(vals, g.vctl())
	}
	sreq := &serve.SweepRequest{
		Request: *transientReq(serve.CircuitPaperVCO, 0, 2e-6, 1e-8),
		Sweep:   serve.SweepSpec{Param: serve.SweepParamVCtl, Values: vals},
	}
	body, err := json.Marshal(sreq)
	if err != nil {
		return err
	}
	t0 := nowNS()
	dec, err := serve.DecodeSweepRequest(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	job, err := dec.Canonicalize()
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	sw.canonAt, sw.canonNS = t0, nowNS()-t0
	sw.path = pathSweep
	sw.body = body
	sw.req = &sreq.Request
	sw.points = append([]string(nil), job.Hashes...)
	sw.hash = job.Hash()
	sw.sweepVals = vals
	for _, h := range sw.points {
		g.seen[h] = true
	}
	return nil
}

func containsValue(vals []float64, v float64) bool {
	for _, x := range vals {
		if x == v {
			return true
		}
	}
	return false
}
