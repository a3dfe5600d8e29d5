package main

import (
	"context"
	"math"
	"reflect"
	"testing"

	"adhocsim/internal/campaign"
	"adhocsim/internal/core"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
)

type baseProp struct{}

func (baseProp) RxPower(tx, d float64) float64 { return tx / (1 + d) }

type linkProp struct{ baseProp }

func (linkProp) LinkRxPower(tx, d float64, _, _ pkt.NodeID, _ uint64) float64 { return tx / (2 + d) }

type gainProp struct{ baseProp }

func (gainProp) MaxGainLinear() float64 { return 4 }

type concProp struct{ baseProp }

func (concProp) ConcurrentSafe() {}

type allProp struct {
	linkProp
	gainProp
	concProp
}

func (allProp) RxPower(tx, d float64) float64 { return tx / (1 + d) }

func interfaces(p phy.Propagation) [3]bool {
	_, l := p.(phy.LinkPropagation)
	_, g := p.(phy.GainBounded)
	_, c := p.(phy.ConcurrentPropagation)
	return [3]bool{l, g, c}
}

// The propagation wrapper must expose exactly the wrapped model's optional
// interfaces and return its values.
func TestWrapPropKeepsInterfaces(t *testing.T) {
	for _, inner := range []phy.Propagation{baseProp{}, linkProp{}, gainProp{}, concProp{}, allProp{},
		phy.DefaultParams().Prop} {
		rec := &runRec{}
		w := wrapProp(inner, rec)
		if got, want := interfaces(w), interfaces(inner); got != want {
			t.Errorf("%T: wrapper interfaces %v, want %v", inner, got, want)
		}
		if w.RxPower(1, 3) != inner.RxPower(1, 3) {
			t.Errorf("%T: RxPower differs", inner)
		}
		if lp, ok := w.(phy.LinkPropagation); ok && lp.LinkRxPower(1, 3, 0, 1, 9) != inner.(phy.LinkPropagation).LinkRxPower(1, 3, 0, 1, 9) {
			t.Errorf("%T: LinkRxPower differs", inner)
		}
		if phy.MaxGain(w) != phy.MaxGain(inner) {
			t.Errorf("%T: MaxGain differs", inner)
		}
		if n := rec.t[bProp].calls.Load(); n < 1 {
			t.Errorf("%T: %d calls counted", inner, n)
		}
	}
}

type plainProto struct{}

func (plainProto) Start(network.Env)                                  {}
func (plainProto) SendData(*pkt.Packet)                               {}
func (plainProto) Recv(*pkt.Packet, pkt.NodeID, float64)              {}
func (plainProto) Snoop(*pkt.Packet, pkt.NodeID, pkt.NodeID, float64) {}
func (plainProto) MacSent(*pkt.Packet, pkt.NodeID)                    {}
func (plainProto) MacFailed(*pkt.Packet, pkt.NodeID)                  {}

type lcProto struct{ plainProto }

func (lcProto) Up(sim.Time)   {}
func (lcProto) Down(sim.Time) {}

type acProto struct{ plainProto }

func (acProto) AutoconfState() (uint32, bool, sim.Time) { return 7, true, 3 }

type bothProto struct{ plainProto }

func (bothProto) Up(sim.Time)                             {}
func (bothProto) Down(sim.Time)                           {}
func (bothProto) AutoconfState() (uint32, bool, sim.Time) { return 7, true, 3 }

// The routing wrapper must forward LifecycleAware and Autoconfigured exactly
// when the wrapped agent has them.
func TestWrapFactoryKeepsExtensions(t *testing.T) {
	for _, inner := range []network.Protocol{plainProto{}, lcProto{}, acProto{}, bothProto{}} {
		w := wrapFactory(func(pkt.NodeID) network.Protocol { return inner }, &runRec{})(0)
		_, wl := w.(network.LifecycleAware)
		_, il := inner.(network.LifecycleAware)
		wa, wac := w.(network.Autoconfigured)
		_, iac := inner.(network.Autoconfigured)
		if wl != il || wac != iac {
			t.Errorf("%T: wrapper lifecycle/autoconf %v/%v, want %v/%v", inner, wl, wac, il, iac)
		}
		if wac {
			if addr, ok, _ := wa.AutoconfState(); addr != 7 || !ok {
				t.Errorf("%T: AutoconfState not forwarded", inner)
			}
		}
	}
}

// The traced composition must reproduce core.Run exactly.
func TestTracedRunMatchesCoreRun(t *testing.T) {
	spec := scenario.Default()
	spec.Nodes = 12
	spec.Duration = 40 * sim.Second
	spec.Lifecycle = scenario.LifecycleSpec{Name: "onoff-fail"}
	for _, proto := range []string{core.AODV, core.DSR} {
		want, err := core.Run(context.Background(), core.RunConfig{Spec: spec, Protocol: proto, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		log := &spanLog{}
		got, lay, err := tracedRun(context.Background(), log, 0, spec, proto, 3, &runRec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: traced run differs from core.Run:\n got %+v\nwant %+v", proto, got, want)
		}
		if lay.events == 0 || lay.inRun[bProp].calls == 0 || lay.inRun[bMacRecv].calls == 0 {
			t.Fatalf("%s: layers not counted: %+v", proto, lay)
		}
		if len(log.under(0, "scenario.generate")) != 1 {
			t.Fatalf("%s: set-up spans missing", proto)
		}
	}
}

// The traced unit must reproduce Plan.ExecuteUnit exactly, axes included.
func TestTracedUnitMatchesExecuteUnit(t *testing.T) {
	nodes, dur := 12, 40.0
	plan, err := campaign.Spec{
		Protocols: []string{core.AODV},
		Base:      campaign.ScenarioPatch{Nodes: &nodes, DurationS: &dur},
		Axes:      []campaign.AxisSpec{{Name: "lifecycle", Models: []string{"static", "onoff-fail"}}},
		MaxReps:   1,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for ci := range plan.Cells {
		want, err := plan.ExecuteUnit(context.Background(), ci, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, lay, err := tracedUnit(context.Background(), &spanLog{}, 0, plan, ci, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d: traced unit differs from ExecuteUnit", ci)
		}
		if lay.inRun[bSink].calls == 0 || lay.streamB == 0 {
			t.Fatalf("cell %d: sinks not traced", ci)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Error("quantile reordered its input")
	}
}
