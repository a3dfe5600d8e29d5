// Command perfbench is the repository's benchmark. It runs one workload —
// the paper's protocol comparison as an in-process campaign (study), one
// city-scale single run (city), or a campaign served over HTTP by the
// distributed coordinator (service) — for a fixed time, checks every
// output, and prints its metrics as one JSON line. With --trace 1 it runs
// the workload traced from outside and prints the per-layer metrics instead.
// See README.md for the metric table and how to run it.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"adhocsim/internal/sim"
)

// jobResult is one execution of a workload's job.
type jobResult struct {
	wallS, setupS float64
	resubmitS     float64 // service only
	runs          int     // committed runs
	nodeSec       float64 // Σ nodes × simulated seconds of committed runs
	allocB        uint64
	peakHeapB     uint64
	// result is the job's output, compared across jobs of one seed and
	// between traced and untraced jobs with reflect.DeepEqual.
	result any
}

// layerReport is a traced job's per-layer metrics plus the exact counts
// that must repeat across traced jobs of one seed.
type layerReport map[string]float64

// tripwire names the counts that must repeat exactly across runs of a seed.
var tripwire = []string{"sim.events", "phy.rxpower_calls", "mac.on_receive_calls", "routing.tx_packets", "campaign.committed_runs"}

// workload is one benchmark workload. Its job takes the scene seed of one
// job; see sceneSeed.
type workload struct {
	runsPerJob int
	// scenes is how many different input seeds a run cycles through.
	scenes int
	// check, when set, runs once per invocation, untimed (golden values and
	// the like), and reports how many runs it made.
	check func(ctx context.Context) (int, error)
	// job runs the workload untraced; traced runs it traced under root.
	job    func(ctx context.Context, seed int64) (jobResult, error)
	traced func(ctx context.Context, log *spanLog, root int, seed int64) (jobResult, layerReport, error)
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"runs_per_s", "1/s"},
	{"node_s_per_s", "node-s/s"}, {"alloc_mb", "MB"}, {"peak_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"sim.events", "count"}, {"sim.run_s", "s"}, {"sim.ns_per_event", "ns"},
	{"sim.queue_depth_max", "count"}, {"sim.residual_s", "s"}, {"sim.hold_ns", "ns"},
	{"phy.rxpower_calls", "count"}, {"phy.rxpower_s", "s"}, {"phy.legs_per_tx", "ratio"},
	{"phy.decode_ratio", "ratio"},
	{"geo.within_ns", "ns"}, {"geo.candidates_per_query", "count"}, {"mobility.table_at_ns", "ns"},
	{"mac.on_receive_calls", "count"}, {"mac.on_receive_s", "s"}, {"mac.self_s", "s"},
	{"mac.carrier_events", "count"}, {"mac.ctl_per_data", "ratio"},
	{"routing.recv_calls", "count"}, {"routing.recv_s", "s"}, {"routing.send_data_calls", "count"},
	{"routing.mac_failed_calls", "count"}, {"routing.tx_packets", "count"}, {"routing.start_s", "s"},
	{"routing.DSR.recv_s", "s"}, {"routing.AODV.recv_s", "s"}, {"routing.PAODV.recv_s", "s"},
	{"routing.CBRP.recv_s", "s"}, {"routing.DSDV.recv_s", "s"},
	{"scenario.generate_s", "s"}, {"topo.oracle_build_s", "s"}, {"network.world_build_s", "s"},
	{"traffic.install_s", "s"}, {"stats.finalize_s", "s"},
	{"metrics.record_calls", "count"}, {"metrics.record_s", "s"}, {"metrics.stream_state_bytes", "bytes"},
	{"campaign.expand_s", "s"}, {"campaign.unit_p50_ms", "ms"}, {"campaign.unit_p90_ms", "ms"},
	{"campaign.complete_unit_s", "s"}, {"campaign.journal_bytes", "bytes"}, {"campaign.useful_ratio", "ratio"},
	{"campaign.committed_runs", "count"},
	{"dist.lease_calls", "count"}, {"dist.lease_empty_share", "ratio"}, {"dist.lease_p50_ms", "ms"},
	{"dist.commit_calls", "count"}, {"dist.commit_p50_ms", "ms"}, {"dist.commit_p90_ms", "ms"},
	{"dist.http_bytes", "bytes"}, {"dist.cache_get_calls", "count"}, {"dist.cache_hit_share", "ratio"},
	{"dist.cache_get_s", "s"}, {"dist.cache_put_s", "s"}, {"dist.sse_events", "count"},
	{"dist.resubmit_s", "s"},
	{"lifecycle.transitions", "count"},
	{"trace.overhead_share", "ratio"},
}

// runDir is this invocation's scratch directory (journals, caches) under
// the checkout's .bench_build.
var runDir string

func main() {
	name := flag.String("workload", "", "workload: study, city or service")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	traceMode := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *traceMode == 1))
}

func run(name string, seed int64, seconds int, traced bool) int {
	ctx := context.Background()
	w, ok := workloads[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (study, city, service)\n", name)
		return 2
	}
	var err error
	if err = os.MkdirAll(".bench_build", 0o755); err == nil {
		runDir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(runDir)
	host := fingerprint()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %v on %v\n", name, seed, traced, host)

	var out outcome
	if w.check != nil {
		if runs, err := w.check(ctx); err != nil {
			out.fail(fmt.Errorf("check: %w", err), max(runs, 1))
		} else {
			out.attempted += runs
		}
	}
	var values map[string]float64
	if traced {
		values = runTraced(ctx, w, name, seed, &out)
	} else {
		values = runUntraced(ctx, w, seed, seconds, &out)
	}

	record := map[string]any{"workload": name, "seed": seed, "trace": traced, "host": host, "values": values}
	if b, err := json.Marshal(record); err == nil {
		fmt.Println(string(b))
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[d.name] = value{v, d.unit}
	}
	last, _ := json.Marshal(map[string]any{
		"correct": out.failed == 0, "attempted": max(out.attempted, 1), "failed": out.failed, "metrics": ms,
	})
	fmt.Println(string(last))
	if out.failed > 0 {
		return 1
	}
	return 0
}

// outcome counts attempted and failed runs; a run fails when it errors or
// a check rejects it.
type outcome struct{ attempted, failed int }

func (o *outcome) fail(err error, runs int) {
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	o.attempted += runs
	o.failed += runs
}

// jobDeadline bounds one job, which normally takes 1–6 s on a 2-core host.
// A simulation event that never returns cannot be interrupted from outside,
// so a job still running at the deadline is reported as failed, with every
// goroutine's stack on stderr, and the process exits, which ends it.
const jobDeadline = 30 * time.Second

// timedJob runs one job after a GC, adding its allocation and peak heap.
func timedJob(f func() (jobResult, error)) (jobResult, error) {
	runtime.GC()
	watch := watchHeap()
	before := readMetric("/gc/heap/allocs:bytes")
	type finished struct {
		jr  jobResult
		err error
	}
	done := make(chan finished, 1)
	go func() {
		jr, err := f()
		done <- finished{jr, err}
	}()
	select {
	case o := <-done:
		o.jr.allocB = readMetric("/gc/heap/allocs:bytes") - before
		o.jr.peakHeapB = watch.stop()
		return o.jr, o.err
	case <-time.After(jobDeadline):
		watch.stop()
		buf := make([]byte, 1<<20)
		os.Stderr.Write(buf[:runtime.Stack(buf, true)])
		return jobResult{}, fmt.Errorf("job still running after %v: a simulation run never returned (stacks above)", jobDeadline)
	}
}

// sceneSeed is the input seed of job k of a run: a run cycles through
// `scenes` inputs derived from its --seed, so each median spans several
// scenes, and jobs `scenes` apart repeat an input exactly.
func sceneSeed(seed int64, k, scenes int) int64 {
	return sim.DeriveSeed(seed, "perfbench|scene="+strconv.Itoa(k%scenes))
}

// runUntraced repeats the untraced job for the measuring time — at least
// one full cycle of scenes and one repeated scene, so the repeat check
// always runs — and reports the median of each end-to-end metric.
func runUntraced(ctx context.Context, w workload, seed int64, seconds int, out *outcome) map[string]float64 {
	var jobs []jobResult
	start := time.Now()
	var longest float64
	for {
		el := time.Since(start).Seconds()
		if len(jobs) > w.scenes && el+longest > float64(seconds) {
			break
		}
		k := len(jobs)
		t := time.Now()
		jr, err := timedJob(func() (jobResult, error) { return w.job(ctx, sceneSeed(seed, k, w.scenes)) })
		longest = math.Max(longest, time.Since(t).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: job %d: %.2fs, wall_s %.4f, setup_s %.5f\n", k, time.Since(t).Seconds(), jr.wallS, jr.setupS)
		if err != nil {
			out.fail(err, w.runsPerJob)
			break
		}
		// Keep a digest, not the result, so the live heap a later job starts
		// from does not grow with the number of jobs before it.
		jr.result = digest(jr.result)
		if k >= w.scenes && jobs[k-w.scenes].result != jr.result {
			out.fail(fmt.Errorf("job %d repeated the input of job %d with a different result", k, k-w.scenes), w.runsPerJob)
		} else {
			out.attempted += w.runsPerJob
		}
		jobs = append(jobs, jr)
	}
	pick := func(f func(jobResult) float64) float64 {
		xs := make([]float64, len(jobs))
		for i, j := range jobs {
			xs[i] = f(j)
		}
		return median(xs)
	}
	return map[string]float64{
		"wall_s":       pick(func(j jobResult) float64 { return j.wallS }),
		"setup_s":      pick(func(j jobResult) float64 { return j.setupS }),
		"runs_per_s":   pick(func(j jobResult) float64 { return float64(j.runs) / j.wallS }),
		"node_s_per_s": pick(func(j jobResult) float64 { return j.nodeSec / j.wallS }),
		"alloc_mb":     pick(func(j jobResult) float64 { return float64(j.allocB) / 1e6 }),
		"peak_heap_mb": pick(func(j jobResult) float64 { return float64(j.peakHeapB) / 1e6 }),
		"jobs":         float64(len(jobs)),
	}
}

// runTraced alternates untraced and traced jobs (two of each) on the run's
// first scene, checks that traced results equal untraced ones and that the
// tripwire counts repeat, and reports the traced jobs' per-layer metrics.
func runTraced(ctx context.Context, w workload, name string, seed int64, out *outcome) map[string]float64 {
	scene := sceneSeed(seed, 0, w.scenes)
	log := &spanLog{}
	var plain, traced []jobResult
	var reports []layerReport
	for i := 0; i < 2; i++ {
		jr, err := timedJob(func() (jobResult, error) { return w.job(ctx, scene) })
		if err != nil {
			out.fail(err, w.runsPerJob)
			return nil
		}
		out.attempted += w.runsPerJob
		plain = append(plain, jr)
		root := log.begin("job", 0)
		var rep layerReport
		tr, err := timedJob(func() (jobResult, error) {
			res, r, err := w.traced(ctx, log, root, scene)
			rep = r
			return res, err
		})
		log.end(root)
		if err != nil {
			out.fail(err, w.runsPerJob)
			return nil
		}
		switch {
		case !reflect.DeepEqual(jr.result, tr.result):
			out.fail(fmt.Errorf("traced job %d: results differ from the untraced job", i), w.runsPerJob)
		case i > 0 && !reflect.DeepEqual(plain[0].result, jr.result):
			out.fail(fmt.Errorf("untraced job %d of one seed produced a different result", i), w.runsPerJob)
		default:
			out.attempted += w.runsPerJob
		}
		rep["campaign.committed_runs"] = float64(tr.runs)
		traced = append(traced, tr)
		reports = append(reports, rep)
	}
	for _, k := range tripwire {
		if reports[0][k] != reports[1][k] {
			out.fail(fmt.Errorf("count %s drifted across runs of one seed: %v then %v", k, reports[0][k], reports[1][k]), w.runsPerJob)
		}
	}
	values := map[string]float64{}
	for k := range reports[0] {
		values[k] = (reports[0][k] + reports[1][k]) / 2
	}
	wall := func(js []jobResult) []float64 {
		xs := make([]float64, len(js))
		for i, j := range js {
			xs[i] = j.wallS
		}
		return xs
	}
	// A workload whose traced wrappers run outside its wall_s span reports
	// its own overhead (see replayService).
	if _, own := values["trace.overhead_share"]; !own {
		values["trace.overhead_share"] = median(wall(traced))/median(wall(plain)) - 1
	}
	values["dist.resubmit_s"] = (plain[0].resubmitS + plain[1].resubmitS) / 2

	dir := filepath.Join(".bench_build", "traces")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := os.MkdirAll(dir, 0o755); err == nil {
		err = log.write(path)
		if err == nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		}
	}
	return values
}

// digest is the SHA-256 of v's JSON encoding, which is canonical for the
// results the jobs return (map keys are sorted, floats exact). Should the
// encoding fail, it digests v's printed form, whose pointers differ from
// job to job, so the comparison fails loudly instead of passing.
func digest(v any) [sha256.Size]byte {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%+v", v))
	}
	return sha256.Sum256(b)
}

// ---- host and memory ----

func fingerprint() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out revision from .git when the working
// directory is a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapWatch samples the live heap left by each GC cycle and keeps the peak.
type heapWatch struct {
	quit, done chan struct{}
	peak       uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan struct{}), peak: readMetric("/gc/heap/live:bytes")}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				h.peak = max(h.peak, readMetric("/gc/heap/live:bytes"))
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak live heap in bytes.
func (h *heapWatch) stop() uint64 {
	close(h.quit)
	<-h.done
	return max(h.peak, readMetric("/gc/heap/live:bytes"))
}
