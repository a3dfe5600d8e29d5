package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"adhocsim/internal/campaign"
	"adhocsim/internal/core"
	"adhocsim/internal/mac"
	"adhocsim/internal/metrics"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
	"adhocsim/internal/topo"
	"adhocsim/internal/traffic"
)

// runLayers is what one traced simulation run reports about its layers.
type runLayers struct {
	protocol   string
	events     uint64  // Engine.Executed
	runS       float64 // World.Run
	depthMax   int     // largest Engine.Len() seen at the interrupt polls
	tx         uint64  // Channel.Transmissions
	inRun      [nBoundaries]tallyVals
	macSelfS   float64
	startS     float64
	residualS  float64
	ctlFrames  uint64 // RTS + CTS + ACK sent
	dataFrames uint64 // MAC data frames sent
	streamB    int    // serialized Results.Streams
	txPackets  uint64 // routing transmissions
	lifecycle  uint64 // joins + leaves applied
}

// depthProbe is the context handed to World.Run in traced runs. World.Run
// installs Err as the engine's interrupt poll (every few thousand events)
// because Done is non-nil, so each poll samples the queue depth without
// adding an event.
type depthProbe struct {
	context.Context
	done <-chan struct{}
	eng  *sim.Engine
	max  int
}

func newDepthProbe(ctx context.Context, eng *sim.Engine) *depthProbe {
	p := &depthProbe{Context: ctx, done: ctx.Done(), eng: eng}
	if p.done == nil {
		p.done = make(chan struct{}) // never closed: the parent cannot be cancelled
	}
	return p
}

func (p *depthProbe) Done() <-chan struct{} { return p.done }

func (p *depthProbe) Err() error {
	if n := p.eng.Len(); n > p.max {
		p.max = n
	}
	return p.Context.Err()
}

// tracedRun is core.Run composed from the same public calls, with each
// set-up stage timed as a span and the propagation model, every radio's
// receiver and every routing agent wrapped. The caller compares its Results
// with an untraced run's, which also proves the composition matches core.Run.
func tracedRun(ctx context.Context, log *spanLog, parent int, spec scenario.Spec, protocol string, seed int64,
	rec *runRec, sinks []metrics.Sink) (stats.Results, runLayers, error) {
	lay := runLayers{protocol: protocol}
	root := log.begin("run", parent)
	defer log.end(root)

	s := log.begin("scenario.generate", root)
	inst, err := spec.Generate(seed)
	log.end(s)
	if err != nil {
		return stats.Results{}, lay, err
	}
	inst.Radio.Prop = wrapProp(inst.Radio.Prop, rec)
	factory, err := core.FactoryFor(protocol, inst.Radio, core.ProtocolTweaks{})
	if err != nil {
		return stats.Results{}, lay, err
	}
	s = log.begin("topo.oracle_build", root)
	oracle := topo.NewOracle(inst.Tracks, inst.Radio.RxRange())
	log.end(s)
	var phyCfg phy.Config
	phyCfg.SINR = spec.Radio.SINR
	s = log.begin("network.world_build", root)
	world, err := network.NewWorld(network.Config{
		Tracks:    inst.Tracks,
		Radio:     inst.Radio,
		Phy:       phyCfg,
		Mac:       mac.Config{},
		Protocol:  wrapFactory(factory, rec),
		Seed:      seed ^ 0x5eed, // as core.Run derives it
		Oracle:    oracle,
		Sinks:     sinks,
		Lifecycle: inst.Lifecycle,
	})
	log.end(s)
	if err != nil {
		return stats.Results{}, lay, err
	}
	for _, n := range world.Nodes {
		n.Radio.SetReceiver(&macTap{inner: n.Mac, rec: rec})
	}
	horizon := sim.Time(0).Add(spec.Duration)
	s = log.begin("traffic.install", root)
	_, err = traffic.Install(world, inst.Connections, horizon)
	log.end(s)
	if err != nil {
		return stats.Results{}, lay, err
	}
	// core.Run's runaway-loop guard, so a broken protocol fails the same way.
	limit := uint64(spec.Duration.Seconds()*2e6) * uint64(spec.Nodes) / 40
	if limit < 10_000_000 {
		limit = 10_000_000
	}
	world.Eng.Limit = limit
	s = log.begin("world.start", root)
	world.Start()
	log.end(s)

	before := rec.readings()
	probe := newDepthProbe(ctx, world.Eng)
	s = log.begin("sim.run", root)
	err = world.Run(probe, horizon)
	log.end(s)
	if err != nil {
		return stats.Results{}, lay, fmt.Errorf("%s seed %d: %w", protocol, seed, err)
	}
	after := rec.readings()
	s = log.begin("stats.finalize", root)
	res := world.Collector.Finalize()
	log.end(s)

	lay.events = world.Eng.Executed
	lay.runS = log.total(root, "sim.run")
	lay.depthMax = probe.max
	lay.tx = world.Channel.Transmissions
	var top float64
	for b := range after {
		lay.inRun[b] = after[b].sub(before[b])
		top += lay.inRun[b].topSeconds()
	}
	lay.residualS = lay.runS - top
	lay.macSelfS = scaled(rec.macSelfNs, lay.inRun[bMacRecv].calls, lay.inRun[bMacRecv].sampled)
	lay.startS = float64(rec.startNs) / 1e9
	for _, n := range world.Nodes {
		st := n.Mac.Stats
		lay.ctlFrames += st.RTSSent + st.CTSSent + st.AckSent
		lay.dataFrames += st.DataSent
	}
	lay.txPackets = res.RoutingTxPackets
	lay.lifecycle = res.Joins + res.Leaves
	return res, lay, nil
}

// cellSpec rebuilds the resolved scenario of one campaign cell from the
// plan's public parts, exactly as Spec.Expand applies its axes.
func cellSpec(plan *campaign.Plan, ci int) (scenario.Spec, error) {
	spec := plan.Base
	for a, as := range plan.Spec.Axes {
		var axis core.Axis
		var err error
		if len(as.Models) > 0 {
			axis, err = core.ModelAxisByName(as.Name, as.Models)
		} else {
			axis, err = core.AxisByName(as.Name, as.Values)
		}
		if err == nil {
			axis, err = axis.Resolved(plan.Base)
		}
		if err != nil {
			return spec, err
		}
		axis.Apply(&spec, plan.Cells[ci].Point[a])
	}
	return spec, nil
}

// tracedUnit is Plan.ExecuteUnit with the run traced and its metric sinks
// wrapped.
func tracedUnit(ctx context.Context, log *spanLog, parent int, plan *campaign.Plan, ci, rep int) (stats.Results, runLayers, error) {
	spec, err := cellSpec(plan, ci)
	if err != nil {
		return stats.Results{}, runLayers{}, err
	}
	rec := &runRec{}
	sk := metrics.NewSketchSink(metrics.DefaultCompression, metrics.SketchedKinds...)
	win := metrics.NewWindow(spec.Duration, metrics.DefaultSeriesBuckets)
	sinks := []metrics.Sink{sinkTap{sk, rec}, sinkTap{win, rec}}
	res, lay, err := tracedRun(ctx, log, parent, spec, plan.Cells[ci].Protocol, plan.SeedFor(ci, rep), rec, sinks)
	if err != nil {
		return res, lay, err
	}
	res.Streams = &metrics.RunStreams{Sketches: sk.States(), Series: win.State()}
	b, err := json.Marshal(res.Streams)
	if err != nil {
		return res, lay, err
	}
	lay.streamB = len(b)
	return res, lay, nil
}

// tracedCampaign is Campaign.Run with each unit executed by tracedUnit: the
// same Start, NextUnit → execute → CompleteUnit pool and Finish, with the
// unit and CompleteUnit calls timed as spans.
func tracedCampaign(ctx context.Context, log *spanLog, parent int, c *campaign.Campaign, workers int) (*campaign.Result, []runLayers, error) {
	if err := c.Start(); err != nil {
		return nil, nil, err
	}
	var mu sync.Mutex
	var layers []runLayers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci, rep, ok := c.NextUnit()
				if !ok {
					return
				}
				u := log.begin("campaign.unit", parent)
				res, lay, err := tracedUnit(ctx, log, u, c.Plan(), ci, rep)
				log.end(u)
				if err != nil {
					c.Abort(err)
					return
				}
				s := log.begin("campaign.complete_unit", parent)
				c.CompleteUnit(ci, rep, res, false)
				log.end(s)
				mu.Lock()
				layers = append(layers, lay)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res, err := c.Finish(ctx)
	return res, layers, err
}
