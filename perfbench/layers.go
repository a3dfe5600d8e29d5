package main

import (
	"os"

	"adhocsim/internal/scenario"
)

// runReport turns the traced simulation runs of one job into the sim, phy,
// mac, routing, set-up, metrics and lifecycle metrics, and adds the layer
// probes at the job's own shapes (probeSpec/probeSeed select the tracks).
func runReport(log *spanLog, root int, runs []runLayers, probeSpec scenario.Spec, probeSeed int64) (layerReport, error) {
	r := layerReport{}
	var in [nBoundaries]tallyVals
	var tx, ctl, data uint64
	depth := 0
	for _, l := range runs {
		r["sim.events"] += float64(l.events)
		r["sim.run_s"] += l.runS
		r["sim.residual_s"] += l.residualS
		depth = max(depth, l.depthMax)
		for b := range in {
			in[b].calls += l.inRun[b].calls
		}
		r["phy.rxpower_s"] += l.inRun[bProp].seconds()
		r["mac.on_receive_s"] += l.inRun[bMacRecv].seconds()
		r["mac.self_s"] += l.macSelfS
		r["routing.recv_s"] += l.inRun[bRouteRecv].seconds()
		r["routing."+l.protocol+".recv_s"] += l.inRun[bRouteRecv].seconds()
		r["routing.start_s"] += l.startS
		r["routing.tx_packets"] += float64(l.txPackets)
		r["metrics.record_s"] += l.inRun[bSink].seconds()
		r["metrics.stream_state_bytes"] += float64(l.streamB)
		r["lifecycle.transitions"] += float64(l.lifecycle)
		tx += l.tx
		ctl += l.ctlFrames
		data += l.dataFrames
	}
	r["sim.queue_depth_max"] = float64(depth)
	if r["sim.events"] > 0 {
		r["sim.ns_per_event"] = r["sim.run_s"] / r["sim.events"] * 1e9
	}
	r["sim.hold_ns"] = holdProbe(depth, probeSeed)
	r["phy.rxpower_calls"] = float64(in[bProp].calls)
	if tx > 0 {
		r["phy.legs_per_tx"] = float64(in[bProp].calls) / float64(tx)
	}
	if in[bProp].calls > 0 {
		r["phy.decode_ratio"] = float64(in[bMacRecv].calls) / float64(in[bProp].calls)
	}
	r["mac.on_receive_calls"] = float64(in[bMacRecv].calls)
	r["mac.carrier_events"] = float64(in[bMacCarrier].calls)
	if data > 0 {
		r["mac.ctl_per_data"] = float64(ctl) / float64(data)
	}
	r["routing.recv_calls"] = float64(in[bRouteRecv].calls)
	r["routing.send_data_calls"] = float64(in[bRouteSendData].calls)
	r["routing.mac_failed_calls"] = float64(in[bRouteMacFailed].calls)
	r["metrics.record_calls"] = float64(in[bSink].calls)

	for metric, stage := range map[string]string{
		"scenario.generate_s":   "scenario.generate",
		"topo.oracle_build_s":   "topo.oracle_build",
		"network.world_build_s": "network.world_build",
		"traffic.install_s":     "traffic.install",
		"stats.finalize_s":      "stats.finalize",
	} {
		r[metric] = log.total(root, stage)
	}

	within, cands, tableAt, err := spatialProbe(probeSpec, probeSeed)
	if err != nil {
		return nil, err
	}
	r["geo.within_ns"], r["geo.candidates_per_query"], r["mobility.table_at_ns"] = within, cands, tableAt
	return r, nil
}

// campaignReport adds the campaign metrics of a traced in-process campaign.
func campaignReport(r layerReport, log *spanLog, root int, units int, committed int, journal string, expandS float64) {
	units = max(units, 1)
	ms := log.durationsMs(root, "campaign.unit")
	r["campaign.expand_s"] = expandS
	r["campaign.unit_p50_ms"] = quantile(ms, 0.5)
	r["campaign.unit_p90_ms"] = quantile(ms, 0.9)
	r["campaign.complete_unit_s"] = log.total(root, "campaign.complete_unit")
	r["campaign.useful_ratio"] = float64(committed) / float64(units)
	if journal != "" {
		if fi, err := os.Stat(journal); err == nil {
			r["campaign.journal_bytes"] = float64(fi.Size())
		}
	}
}
