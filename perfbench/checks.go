package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"adhocsim/internal/campaign"
	"adhocsim/internal/core"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// checkResults enforces the invariants every run's Results must satisfy.
func checkResults(what string, r stats.Results) error {
	switch {
	case r.PDR < 0 || r.PDR > 1:
		return fmt.Errorf("%s: PDR %v outside [0, 1]", what, r.PDR)
	case r.DataDelivered > r.DataSent:
		return fmt.Errorf("%s: delivered %d > sent %d", what, r.DataDelivered, r.DataSent)
	}
	return nil
}

// checkCampaign checks every cell of a campaign result and that no cell
// stopped short of max_reps (early stopping is off in every workload).
func checkCampaign(res *campaign.Result, maxReps int) error {
	if res == nil {
		return fmt.Errorf("campaign returned no result")
	}
	for _, c := range res.Cells {
		if err := checkResults("cell "+c.Label, c.Merged); err != nil {
			return err
		}
		if c.Reps != maxReps {
			return fmt.Errorf("cell %s: %d reps, want %d", c.Label, c.Reps, maxReps)
		}
	}
	return nil
}

// golden pins the seed-1 study runs (default 40-node scenario, 150 s) to
// the values the repository's parity tests hold them to.
var golden = map[string]struct {
	dataSent, dataDelivered, routingTx, macCtl uint64
	pdr, avgDelay, avgHops                     float64
	drops                                      map[stats.DropReason]uint64
}{
	core.DSR: {3927, 3795, 4788, 42063, 0.9663865546218487, 0.009146865496179183, 2.8086956521739133,
		map[stats.DropReason]uint64{"salvage-failed": 132}},
	core.AODV: {3927, 3837, 6344, 36148, 0.9770817417876242, 0.05005789578707323, 2.799583007557988,
		map[stats.DropReason]uint64{"mac-retries": 86, "no-route": 1}},
}

// checkGolden runs the golden seed-1 study runs and compares them.
func checkGolden(ctx context.Context) (int, error) {
	spec := scenario.Default()
	spec.Duration = 150 * sim.Second
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for proto, want := range golden {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := core.Run(ctx, core.RunConfig{Spec: spec, Protocol: proto, Seed: 1})
			if err == nil {
				err = checkResults(proto+" seed 1", r)
			}
			if err == nil && (r.DataSent != want.dataSent || r.DataDelivered != want.dataDelivered ||
				r.RoutingTxPackets != want.routingTx || r.MacCtlFrames != want.macCtl ||
				r.PDR != want.pdr || r.AvgDelay != want.avgDelay || r.AvgHops != want.avgHops ||
				!reflect.DeepEqual(r.Drops, want.drops)) {
				err = fmt.Errorf("%s seed 1 differs from the golden values: %+v", proto, r)
			}
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return len(golden), errs[0]
	}
	return len(golden), nil
}
