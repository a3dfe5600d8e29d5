package main

import (
	"math"
	"time"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
)

// Layer probes time one public operation in isolation, at the shape the
// workload itself produced: the event queue at the workload's measured
// depth, the spatial grid and the position table on the workload's own
// tracks and query radius.

const probeBudget = 100 * time.Millisecond

// holdProbe runs the classic hold model on a fresh engine holding depth
// pending events: every dispatched event schedules one successor a random
// delay ahead, so the queue stays at depth. It returns ns per hold
// (one pop plus one push).
func holdProbe(depth int, seed int64) float64 {
	depth = max(depth, 1)
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	const holds = 1 << 20
	n := 0
	var fn sim.EventFunc
	fn = func() {
		n++
		if n == holds {
			eng.Stop()
		}
		eng.ScheduleIn(sim.Seconds(rng.Exp(1e-3)), fn)
	}
	for i := 0; i < depth; i++ {
		eng.Schedule(sim.Time(0).Add(sim.Seconds(rng.Exp(1e-3))), fn)
	}
	t := time.Now()
	if err := eng.RunAll(); err != nil {
		return math.NaN()
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// spatialProbe measures FlatGrid.WithinSorted and Table.At on the tracks
// the scenario generates for seed, with the query radius the channel uses
// (carrier-sense range padded by the fastest track over the default 1 s
// reindex interval, plus one metre).
func spatialProbe(spec scenario.Spec, seed int64) (withinNs, candidates, tableAtNs float64, err error) {
	inst, err := spec.Generate(seed)
	if err != nil {
		return 0, 0, 0, err
	}
	tracks := inst.Tracks
	radius := inst.Radio.CSRange() + mobility.MaxTrackSpeed(tracks)*1.0 + 1.0
	const snapshots = 8
	pts := make([][]geo.Point, snapshots)
	for k := range pts {
		at := sim.Time(0).Add(spec.Duration * sim.Duration(k) / snapshots)
		pts[k] = make([]geo.Point, len(tracks))
		for i, tr := range tracks {
			pts[k][i] = tr.At(at)
		}
	}
	grid := geo.NewFlatGrid(radius)
	var dst []int32
	var queries, found int
	start := time.Now()
	for time.Since(start) < probeBudget {
		for k := range pts {
			grid.Rebuild(pts[k])
			for i, c := range pts[k] {
				dst = grid.WithinSorted(c, radius, int32(i), dst[:0])
				found += len(dst)
			}
			queries += len(pts[k])
		}
	}
	withinNs = float64(time.Since(start).Nanoseconds()) / float64(queries)
	candidates = float64(found) / float64(queries)

	// Table.At at successive 1 ms timestamps, every node once per
	// timestamp: the lookups a transmit burst makes at a new instant.
	tab := mobility.NewTable(tracks)
	var calls int
	var sink float64
	at := sim.Time(0)
	start = time.Now()
	for time.Since(start) < probeBudget {
		for step := 0; step < 64; step++ {
			at = at.Add(sim.Millisecond)
			if at > sim.Time(0).Add(spec.Duration) {
				at = 0
			}
			for i := range tracks {
				sink += tab.At(i, at).X
			}
			calls += len(tracks)
		}
	}
	tableAtNs = float64(time.Since(start).Nanoseconds()) / float64(calls)
	if math.IsNaN(sink) {
		tableAtNs = math.NaN()
	}
	return withinNs, candidates, tableAtNs, nil
}
