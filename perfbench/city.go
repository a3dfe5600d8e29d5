package main

import (
	"context"
	"fmt"
	"sync"

	"adhocsim/internal/core"
	"adhocsim/internal/geo"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
)

// The city workload is one run of the `make profile` scene — 2000 nodes on
// 4000×800 m, CBRP, Manhattan mobility — with no sinks and the default
// scheduler, shortened to cityDurationS simulated seconds.
const cityDurationS = 1.0

func cityScene() scenario.Spec {
	spec := scenario.Default()
	spec.Nodes = 2000
	spec.Area = geo.Rect{W: 4000, H: 800}
	spec.Duration = sim.Seconds(cityDurationS)
	spec.Mobility = scenario.MobilitySpec{Name: "manhattan"}
	return spec
}

// setupProbe is the context handed to core.Run in untraced city jobs.
// World.Run asks for Done once, right before it dispatches the first event
// (to decide whether to install its interrupt poll), so the first Done call
// marks the end of set-up: Spec.Generate, topo.NewOracle,
// network.NewWorld, traffic.Install and World.Start.
type setupProbe struct {
	context.Context
	once sync.Once
	at   int64
	done chan struct{}
}

func (p *setupProbe) Done() <-chan struct{} {
	p.once.Do(func() { p.at = nowNs() })
	return p.done
}

func cityWorkload() workload {
	spec := cityScene()
	nodeSec := float64(spec.Nodes) * cityDurationS
	return workload{
		runsPerJob: 1,
		scenes:     3,
		job: func(ctx context.Context, seed int64) (jobResult, error) {
			probe := &setupProbe{Context: ctx, done: make(chan struct{})}
			t := nowNs()
			res, err := core.Run(probe, core.RunConfig{Spec: spec, Protocol: core.CBRP, Seed: seed})
			end := nowNs()
			if err != nil {
				return jobResult{}, err
			}
			if probe.at == 0 {
				return jobResult{}, fmt.Errorf("city: the run never reached its event loop")
			}
			if err := checkResults("city run", res); err != nil {
				return jobResult{}, err
			}
			return jobResult{wallS: float64(end-t) / 1e9, setupS: float64(probe.at-t) / 1e9,
				runs: 1, nodeSec: nodeSec, result: res}, nil
		},
		traced: func(ctx context.Context, log *spanLog, root int, seed int64) (jobResult, layerReport, error) {
			t := nowNs()
			res, lay, err := tracedRun(ctx, log, root, spec, core.CBRP, seed, &runRec{}, nil)
			wall := float64(nowNs()-t) / 1e9
			if err != nil {
				return jobResult{}, nil, err
			}
			if err := checkResults("city run", res); err != nil {
				return jobResult{}, nil, err
			}
			rep, err := runReport(log, root, []runLayers{lay}, spec, seed)
			if err != nil {
				return jobResult{}, nil, err
			}
			return jobResult{wallS: wall, runs: 1, nodeSec: nodeSec, result: res}, rep, nil
		},
	}
}
