package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adhocsim/internal/metrics"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// The traced run attributes time and work to the program's modules from
// outside: every probe below wraps a public boundary (a propagation model,
// a phy.Receiver, a network.Protocol, a metrics.Sink, a dist.Store, an
// http.RoundTripper) or times a public call. Nothing inside the program is
// changed, and the traced run's results must equal the untraced run's.

var epoch = time.Now()

// nowNs is a monotonic clock reading in nanoseconds.
func nowNs() int64 { return int64(time.Since(epoch)) }

// clockNs is the cost of one clock reading, which every timed interval
// includes once; sampled per-event timings subtract it, since the calls
// they time take only a few times as long.
var clockNs = func() int64 {
	xs := make([]float64, 10001)
	prev := nowNs()
	for i := range xs {
		t := nowNs()
		xs[i] = float64(t - prev)
		prev = t
	}
	return int64(median(xs))
}()

// elapsed is the time since t0, less one clock reading.
func elapsed(t0 int64) int64 { return max(nowNs()-t0-clockNs, 0) }

// span is one coarse boundary crossing: a set-up stage, a run, a campaign
// unit, an HTTP call or a cache operation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// spanLog keeps spans in memory; it is written out once, at exit.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span under parent (0 = root) and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	t := nowNs()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: t})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	t := nowNs()
	l.mu.Lock()
	l.spans[id-1].End = t
	l.mu.Unlock()
}

// add records an already-timed span.
func (l *spanLog) add(name string, parent int, start, end int64) {
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	l.mu.Unlock()
}

// under returns the spans named name that descend from root.
func (l *spanLog) under(root int, name string) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	in := map[int]bool{root: true}
	var out []span
	for _, s := range l.spans { // parents always precede their children
		if in[s.Parent] {
			in[s.ID] = true
			if s.Name == name {
				out = append(out, s)
			}
		}
	}
	return out
}

// total sums the durations of the spans named name under root.
func (l *spanLog) total(root int, name string) float64 {
	var sum float64
	for _, s := range l.under(root, name) {
		sum += s.seconds()
	}
	return sum
}

// durationsMs lists the durations of the spans named name under root.
func (l *spanLog) durationsMs(root int, name string) []float64 {
	var out []float64
	for _, s := range l.under(root, name) {
		out = append(out, float64(s.End-s.Start)/1e6)
	}
	return out
}

// write stores every span as JSON at path.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Per-event boundaries are far too frequent for spans. Each keeps a call
// count and times every sampleEvery-th call; a boundary's busy time is the
// sampled time scaled by calls/sampled. Calls made while no other wrapped
// boundary is open are also tallied as top-level, so the event loop's
// residual (time under no wrapped boundary) can be derived without double
// counting nested calls.
const sampleEvery = 32

type boundary int

const (
	bProp boundary = iota
	bMacRecv
	bMacCarrier
	bRouteRecv
	bRouteSnoop
	bRouteSendData
	bRouteMacSent
	bRouteMacFailed
	bRouteStart
	bSink
	nBoundaries
)

func (b boundary) routing() bool { return b >= bRouteRecv && b <= bRouteStart }

// tally is one boundary's counters. The fields are atomics only because the
// propagation wrapper may declare itself concurrency-safe (see propTap); all
// other boundaries run on the simulation goroutine.
type tally struct {
	calls, sampled, ns          atomic.Int64
	topCalls, topSampled, topNs atomic.Int64
}

func scaled(ns, calls, sampled int64) float64 {
	if sampled == 0 {
		return 0
	}
	return float64(ns) / 1e9 * float64(calls) / float64(sampled)
}

// tallyVals is a reading of a tally; readings subtract, so a run's event
// loop can be told apart from its set-up.
type tallyVals struct {
	calls, sampled, ns          int64
	topCalls, topSampled, topNs int64
}

func (t *tally) load() tallyVals {
	return tallyVals{t.calls.Load(), t.sampled.Load(), t.ns.Load(),
		t.topCalls.Load(), t.topSampled.Load(), t.topNs.Load()}
}

func (v tallyVals) sub(o tallyVals) tallyVals {
	return tallyVals{v.calls - o.calls, v.sampled - o.sampled, v.ns - o.ns,
		v.topCalls - o.topCalls, v.topSampled - o.topSampled, v.topNs - o.topNs}
}

// seconds estimates the boundary's total busy time.
func (v tallyVals) seconds() float64 { return scaled(v.ns, v.calls, v.sampled) }

// topSeconds estimates its busy time outside every other wrapped boundary.
func (v tallyVals) topSeconds() float64 { return scaled(v.topNs, v.topCalls, v.topSampled) }

// runRec records the per-event boundaries of one simulation run.
type runRec struct {
	t     [nBoundaries]tally
	depth atomic.Int32

	// While a sampled MAC OnReceive is open, every nested routing call is
	// timed so the MAC's self time can exclude it.
	inMac     bool
	nestedNs  int64
	macSelfNs int64
	startNs   int64 // Protocol.Start, timed on every call
}

// token carries one open boundary crossing from enter to exit.
type token struct {
	t0        int64 // start time, or -1 when the call is not timed
	own, top  bool  // sampled for its own tally; opened at top level
	forNested bool  // timed only to be subtracted from the MAC's self time
}

func (r *runRec) enter(b boundary) token {
	tl := &r.t[b]
	n := tl.calls.Add(1)
	tok := token{t0: -1, top: r.depth.Add(1) == 1}
	if tok.top {
		tl.topCalls.Add(1)
	}
	tok.own = n%sampleEvery == 0
	tok.forNested = b.routing() && r.inMac // the propagation wrapper never reads inMac
	if tok.own || tok.forNested || b == bRouteStart {
		tok.t0 = nowNs()
	}
	return tok
}

func (r *runRec) exit(b boundary, tok token) {
	r.depth.Add(-1)
	if tok.t0 < 0 {
		return
	}
	d := elapsed(tok.t0)
	if b == bRouteStart {
		r.startNs += d
	}
	if tok.forNested {
		// The nested call's own two clock readings fall inside the MAC's
		// interval too.
		r.nestedNs += d + 2*clockNs
	}
	if !tok.own {
		return
	}
	tl := &r.t[b]
	tl.sampled.Add(1)
	tl.ns.Add(d)
	if tok.top {
		tl.topSampled.Add(1)
		tl.topNs.Add(d)
	}
}

// readings returns every boundary's current tally.
func (r *runRec) readings() [nBoundaries]tallyVals {
	var out [nBoundaries]tallyVals
	for b := range r.t {
		out[b] = r.t[b].load()
	}
	return out
}

// ---- propagation ----

// propTap wraps the scenario's propagation model. It keeps exactly the
// wrapped model's optional interfaces (wrapProp picks the matching type), so
// the channel takes the same paths it would take unwrapped.
type propTap struct {
	inner phy.Propagation
	link  phy.LinkPropagation
	rec   *runRec
}

func (p *propTap) RxPower(txPower, d float64) float64 {
	tok := p.rec.enter(bProp)
	v := p.inner.RxPower(txPower, d)
	p.rec.exit(bProp, tok)
	return v
}

type linkMix struct{ p *propTap }

func (m linkMix) LinkRxPower(txPower, d float64, from, to pkt.NodeID, txSeq uint64) float64 {
	tok := m.p.rec.enter(bProp)
	v := m.p.link.LinkRxPower(txPower, d, from, to, txSeq)
	m.p.rec.exit(bProp, tok)
	return v
}

type gainMix struct{ g phy.GainBounded }

func (m gainMix) MaxGainLinear() float64 { return m.g.MaxGainLinear() }

type concMix struct{}

func (concMix) ConcurrentSafe() {}

// wrapProp returns a counting propagation model with the same optional
// interfaces as inner.
func wrapProp(inner phy.Propagation, rec *runRec) phy.Propagation {
	link, l := inner.(phy.LinkPropagation)
	gain, g := inner.(phy.GainBounded)
	_, c := inner.(phy.ConcurrentPropagation)
	p := &propTap{inner: inner, link: link, rec: rec}
	lm, gm := linkMix{p}, gainMix{gain}
	switch {
	case l && g && c:
		return struct {
			*propTap
			linkMix
			gainMix
			concMix
		}{p, lm, gm, concMix{}}
	case l && g:
		return struct {
			*propTap
			linkMix
			gainMix
		}{p, lm, gm}
	case l && c:
		return struct {
			*propTap
			linkMix
			concMix
		}{p, lm, concMix{}}
	case g && c:
		return struct {
			*propTap
			gainMix
			concMix
		}{p, gm, concMix{}}
	case l:
		return struct {
			*propTap
			linkMix
		}{p, lm}
	case g:
		return struct {
			*propTap
			gainMix
		}{p, gm}
	case c:
		return struct {
			*propTap
			concMix
		}{p, concMix{}}
	}
	return p
}

// ---- MAC ----

// macTap sits between a radio and its MAC (installed with
// Radio.SetReceiver after the world is built).
type macTap struct {
	inner phy.Receiver
	rec   *runRec
}

func (m *macTap) OnReceive(payload any, from pkt.NodeID, rxPower float64) {
	r := m.rec
	tok := r.enter(bMacRecv)
	if tok.own {
		r.inMac, r.nestedNs = true, 0
	}
	m.inner.OnReceive(payload, from, rxPower)
	if tok.own {
		r.inMac = false
		r.macSelfNs += elapsed(tok.t0) - r.nestedNs
	}
	r.exit(bMacRecv, tok)
}

func (m *macTap) OnChannelBusy() {
	tok := m.rec.enter(bMacCarrier)
	m.inner.OnChannelBusy()
	m.rec.exit(bMacCarrier, tok)
}

func (m *macTap) OnChannelIdle() {
	tok := m.rec.enter(bMacCarrier)
	m.inner.OnChannelIdle()
	m.rec.exit(bMacCarrier, tok)
}

// ---- routing ----

// protoTap wraps one node's routing agent. wrapFactory forwards the
// optional LifecycleAware and Autoconfigured extensions exactly when the
// wrapped agent has them.
type protoTap struct {
	inner network.Protocol
	rec   *runRec
}

func (p *protoTap) Start(env network.Env) {
	tok := p.rec.enter(bRouteStart)
	p.inner.Start(env)
	p.rec.exit(bRouteStart, tok)
}

func (p *protoTap) SendData(pk *pkt.Packet) {
	tok := p.rec.enter(bRouteSendData)
	p.inner.SendData(pk)
	p.rec.exit(bRouteSendData, tok)
}

func (p *protoTap) Recv(pk *pkt.Packet, from pkt.NodeID, rxPower float64) {
	tok := p.rec.enter(bRouteRecv)
	p.inner.Recv(pk, from, rxPower)
	p.rec.exit(bRouteRecv, tok)
}

func (p *protoTap) Snoop(pk *pkt.Packet, from, to pkt.NodeID, rxPower float64) {
	tok := p.rec.enter(bRouteSnoop)
	p.inner.Snoop(pk, from, to, rxPower)
	p.rec.exit(bRouteSnoop, tok)
}

func (p *protoTap) MacSent(pk *pkt.Packet, to pkt.NodeID) {
	tok := p.rec.enter(bRouteMacSent)
	p.inner.MacSent(pk, to)
	p.rec.exit(bRouteMacSent, tok)
}

func (p *protoTap) MacFailed(pk *pkt.Packet, to pkt.NodeID) {
	tok := p.rec.enter(bRouteMacFailed)
	p.inner.MacFailed(pk, to)
	p.rec.exit(bRouteMacFailed, tok)
}

type lifecycleMix struct{ la network.LifecycleAware }

func (m lifecycleMix) Up(at sim.Time)   { m.la.Up(at) }
func (m lifecycleMix) Down(at sim.Time) { m.la.Down(at) }

type autoconfMix struct{ ac network.Autoconfigured }

func (m autoconfMix) AutoconfState() (uint32, bool, sim.Time) { return m.ac.AutoconfState() }

// wrapFactory wraps every agent the factory builds.
func wrapFactory(f network.ProtocolFactory, rec *runRec) network.ProtocolFactory {
	return func(id pkt.NodeID) network.Protocol {
		inner := f(id)
		p := &protoTap{inner: inner, rec: rec}
		la, l := inner.(network.LifecycleAware)
		ac, a := inner.(network.Autoconfigured)
		switch {
		case l && a:
			return struct {
				*protoTap
				lifecycleMix
				autoconfMix
			}{p, lifecycleMix{la}, autoconfMix{ac}}
		case l:
			return struct {
				*protoTap
				lifecycleMix
			}{p, lifecycleMix{la}}
		case a:
			return struct {
				*protoTap
				autoconfMix
			}{p, autoconfMix{ac}}
		}
		return p
	}
}

// ---- metric sinks ----

type sinkTap struct {
	inner metrics.Sink
	rec   *runRec
}

func (s sinkTap) Record(sm metrics.Sample) {
	tok := s.rec.enter(bSink)
	s.inner.Record(sm)
	s.rec.exit(bSink, tok)
}

// ---- helpers ----

// quantile returns the q-quantile of xs by linear interpolation (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
