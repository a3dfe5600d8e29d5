package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"adhocsim/internal/campaign"
	"adhocsim/internal/core"
	"adhocsim/internal/scenario"
	"adhocsim/internal/stats"
)

var workloads = map[string]workload{
	"study":   studyWorkload(),
	"city":    cityWorkload(),
	"service": serviceWorkload(),
}

// benchProtocols are the study protocols the campaign workloads (study and
// service) compare: all but CBRP. CBRP can loop forever inside one event
// (MacFailed → Env.FlushNextHop → Mac.FlushDest → MacSendFailed →
// MacFailed → local repair …) on about 1 in 40 20-node onoff-fail scenes
// and on some static 20- and 40-node scenes, and a run that never returns
// cannot be measured. The city workload still runs CBRP: its 2000-node,
// 1 s scene has not been seen to hit the loop.
func benchProtocols() []string {
	return slices.DeleteFunc(core.StudyProtocols(), func(p string) bool { return p == core.CBRP })
}

// The study workload is the paper's comparison: benchProtocols ×
// studyReps replications on the default study scenario at pause 0,
// shortened to studyDurationS (every CBR source starts by 90 s).
const (
	studyReps      = 2
	studyDurationS = 100.0
	setupRepeats   = 5 // campaign.New is timed this often per job; the median is setup_s
)

func studySpec(seed int64) campaign.Spec {
	pause, dur := 0.0, studyDurationS
	return campaign.Spec{
		Name:      "study",
		Protocols: benchProtocols(),
		Base:      campaign.ScenarioPatch{PauseS: &pause, DurationS: &dur},
		BaseSeed:  seed,
		MaxReps:   studyReps,
	}
}

func studyWorkload() workload {
	runs := len(benchProtocols()) * studyReps
	nodeSec := float64(runs) * float64(scenario.Default().Nodes) * studyDurationS
	journal := func() string { return filepath.Join(runDir, "study.jsonl") }
	return workload{
		runsPerJob: runs,
		scenes:     5,
		check:      checkGolden,
		job: func(ctx context.Context, seed int64) (jobResult, error) {
			spec := studySpec(seed)
			path := journal()
			os.Remove(path)
			var c *campaign.Campaign
			var setups []float64
			for i := 0; i < setupRepeats; i++ {
				t := nowNs()
				var err error
				if c, err = campaign.New(spec, campaign.Options{JournalPath: path}); err != nil {
					return jobResult{}, err
				}
				setups = append(setups, float64(nowNs()-t)/1e9)
			}
			t := nowNs()
			res, err := c.Run(ctx)
			wall := float64(nowNs()-t)/1e9 + setups[len(setups)-1]
			if err != nil {
				return jobResult{}, err
			}
			if err := checkStudy(res, path); err != nil {
				return jobResult{}, err
			}
			return jobResult{wallS: wall, setupS: median(setups), runs: runs, nodeSec: nodeSec, result: res}, nil
		},
		traced: func(ctx context.Context, log *spanLog, root int, seed int64) (jobResult, layerReport, error) {
			spec := studySpec(seed)
			path := journal()
			os.Remove(path)
			expandS := timeExpand(spec)
			t := nowNs()
			c, err := campaign.New(spec, campaign.Options{JournalPath: path})
			if err != nil {
				return jobResult{}, nil, err
			}
			res, layers, err := tracedCampaign(ctx, log, root, c, runtime.NumCPU())
			wall := float64(nowNs()-t) / 1e9
			if err != nil {
				return jobResult{}, nil, err
			}
			if err := checkStudy(res, path); err != nil {
				return jobResult{}, nil, err
			}
			probeSpec, err := cellSpec(c.Plan(), 0)
			if err != nil {
				return jobResult{}, nil, err
			}
			rep, err := runReport(log, root, layers, probeSpec, c.Plan().SeedFor(0, 0))
			if err != nil {
				return jobResult{}, nil, err
			}
			campaignReport(rep, log, root, len(layers), c.Snapshot().RunsDone, path, expandS)
			return jobResult{wallS: wall, runs: runs, nodeSec: nodeSec, result: res}, rep, nil
		},
	}
}

// timeExpand is the median time of Spec.Expand over setupRepeats calls.
func timeExpand(spec campaign.Spec) float64 {
	var xs []float64
	for i := 0; i < setupRepeats; i++ {
		t := nowNs()
		if _, err := spec.Expand(); err != nil {
			return 0
		}
		xs = append(xs, float64(nowNs()-t)/1e9)
	}
	return median(xs)
}

// checkStudy checks the campaign result and every run the journal holds.
func checkStudy(res *campaign.Result, journal string) error {
	if err := checkCampaign(res, studyReps); err != nil {
		return err
	}
	n, err := eachJournalRun(journal, func(what string, r stats.Results) error { return checkResults(what, r) })
	if err != nil {
		return err
	}
	if want := len(res.Cells) * studyReps; n != want {
		return fmt.Errorf("journal holds %d runs, want %d", n, want)
	}
	return nil
}

// eachJournalRun calls f on every run recorded in a campaign journal.
func eachJournalRun(path string, f func(what string, r stats.Results) error) (int, error) {
	fh, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	n := 0
	for sc.Scan() {
		var e struct {
			Cell    int            `json:"cell"`
			Rep     int            `json:"rep"`
			Results *stats.Results `json:"results"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return n, fmt.Errorf("journal %s: %w", path, err)
		}
		if e.Results == nil {
			continue // the header line
		}
		if err := f(fmt.Sprintf("cell %d rep %d", e.Cell, e.Rep), *e.Results); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}
