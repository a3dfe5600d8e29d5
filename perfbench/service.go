package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"adhocsim/internal/campaign"
	"adhocsim/internal/dist"
	"adhocsim/internal/stats"
)

// The service workload submits a campaign of many small units over loopback
// HTTP to a dist.Server that executes nothing itself (LocalWorkers -1) and
// keeps a filesystem result cache; one in-process dist.RunWorker with nproc
// slots executes it. The identical spec is then resubmitted and must be
// answered entirely from the cache.
const (
	serviceNodes     = 20
	serviceDurationS = 30.0
	serviceReps      = 3
	// A coordinator start with its POST takes 1–3 ms, so each job times
	// it this often and reports the median as setup_s.
	serviceSetupRepeats = 15
)

var serviceLifecycles = []string{"static", "onoff-fail"}

func serviceSpec(seed int64) campaign.Spec {
	nodes, dur := serviceNodes, serviceDurationS
	return campaign.Spec{
		Name:      "service",
		Protocols: benchProtocols(),
		Base:      campaign.ScenarioPatch{Nodes: &nodes, DurationS: &dur},
		Axes:      []campaign.AxisSpec{{Name: "lifecycle", Models: serviceLifecycles}},
		BaseSeed:  seed,
		MaxReps:   serviceReps,
	}
}

func serviceWorkload() workload {
	runs := len(benchProtocols()) * len(serviceLifecycles) * serviceReps
	nodeSec := float64(runs) * serviceNodes * serviceDurationS
	return workload{
		runsPerJob: runs,
		scenes:     8,
		job: func(ctx context.Context, seed int64) (jobResult, error) {
			jr, err := serviceJob(ctx, serviceSpec(seed), nil)
			jr.nodeSec = nodeSec
			return jr, err
		},
		traced: func(ctx context.Context, log *spanLog, root int, seed int64) (jobResult, layerReport, error) {
			spec := serviceSpec(seed)
			tap := &distTap{log: log, root: root}
			jr, err := serviceJob(ctx, spec, tap)
			jr.nodeSec = nodeSec
			if err != nil {
				return jr, nil, err
			}
			rep, err := replayService(ctx, log, root, spec, jr.result)
			if err != nil {
				return jr, nil, err
			}
			tap.report(rep, runs)
			return jr, rep, nil
		},
	}
}

// coordinator is one dist.Server (LocalWorkers -1) with a fresh
// filesystem result cache, served on a loopback port.
type coordinator struct {
	dir    string
	fs     *dist.FSStore
	srv    *dist.Server
	hs     *http.Server
	served chan struct{}
	own    *http.Transport
	client *http.Client
	base   string
}

// startCoordinator starts a coordinator; tap, when non-nil, wraps its cache.
func startCoordinator(tap *distTap) (*coordinator, error) {
	dir, err := os.MkdirTemp(runDir, "service-")
	if err != nil {
		return nil, err
	}
	fs, err := dist.NewFSStore(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	var store dist.Store = fs
	if tap != nil {
		store = &storeTap{inner: fs, tap: tap}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &coordinator{
		dir:    dir,
		fs:     fs,
		srv:    dist.NewServer(dist.ServerOptions{LocalWorkers: -1, Cache: store}),
		served: make(chan struct{}),
		own:    http.DefaultTransport.(*http.Transport).Clone(),
		base:   "http://" + ln.Addr().String(),
	}
	c.hs = &http.Server{Handler: c.srv.Handler()}
	c.client = &http.Client{Transport: c.own}
	go func() {
		defer close(c.served)
		_ = c.hs.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	return c, nil
}

// close stops the HTTP server, then the coordinator, and deletes its cache
// directory, so the run directory holds at most one cache at a time.
func (c *coordinator) close() {
	c.own.CloseIdleConnections()
	c.hs.Close()
	<-c.served
	c.srv.Close()
	os.RemoveAll(c.dir)
}

// serviceJob runs one submit → execute → resubmit cycle against a fresh
// coordinator and cache. tap, when non-nil, traces the dist layer.
//
// setup_s is the median of serviceSetupRepeats timed coordinator starts, each
// with its accepted POST /campaigns; all but the last are closed again
// unused. A traced job starts once, so the tap sees one coordinator.
func serviceJob(ctx context.Context, spec campaign.Spec, tap *distTap) (jobResult, error) {
	var jr jobResult
	body, err := json.Marshal(spec)
	if err != nil {
		return jr, err
	}
	repeats := serviceSetupRepeats
	if tap != nil {
		repeats = 1
	}
	var (
		co      *coordinator
		created createdResponse
		tSubmit int64
		setups  []float64
	)
	for i := 0; i < repeats; i++ {
		if co != nil {
			co.close()
		}
		t0 := nowNs()
		if co, err = startCoordinator(tap); err != nil {
			return jr, err
		}
		tSubmit = nowNs()
		if created, err = submit(ctx, co.client, co.base, body); err != nil {
			co.close()
			return jr, err
		}
		setups = append(setups, float64(nowNs()-t0)/1e9)
	}
	defer co.close()
	jr.setupS = median(setups)
	client, base := co.client, co.base

	// Follow the campaign's SSE stream; the worker starts only once the
	// submission is accepted and the stream is open.
	evCtx, stopEvents := context.WithCancel(ctx)
	defer stopEvents()
	events, err := openEvents(evCtx, client, base+created.Events)
	if err != nil {
		return jr, err
	}
	workerTransport := http.DefaultTransport.(*http.Transport).Clone()
	defer workerTransport.CloseIdleConnections()
	var rt http.RoundTripper = workerTransport
	if tap != nil {
		tap.inner = workerTransport
		rt = tap
	}
	wctx, stopWorker := context.WithCancel(ctx)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- dist.RunWorker(wctx, dist.WorkerOptions{
			Coordinator: base, ID: "perfbench", Slots: runtime.NumCPU(), Client: &http.Client{Transport: rt},
		})
	}()
	done, seen, err := events.untilDone()
	tDone := nowNs()
	stopWorker()
	if werr := <-workerDone; err == nil && werr != nil {
		err = fmt.Errorf("worker: %w", werr)
	}
	if err != nil {
		return jr, err
	}
	jr.wallS = float64(tDone-tSubmit) / 1e9
	if tap != nil {
		tap.sse = seen
	}
	if done.State != campaign.StateDone || done.Snapshot == nil {
		return jr, fmt.Errorf("service campaign ended %s: %s", done.State, done.Err)
	}
	fresh, snap, err := fetchResult(ctx, client, base, created.ID)
	if err != nil {
		return jr, err
	}
	if snap.RunsDone != snap.MaxRuns || snap.RunsFromCache != 0 {
		return jr, fmt.Errorf("service campaign: %d of %d runs done, %d from cache", snap.RunsDone, snap.MaxRuns, snap.RunsFromCache)
	}
	jr.runs = snap.RunsDone
	jr.result = fresh

	// The identical resubmission must be answered from the cache alone.
	tResubmit := nowNs()
	again, err := submit(ctx, client, base, body)
	if err != nil {
		return jr, err
	}
	cached, snap2, err := fetchResult(ctx, client, base, again.ID)
	jr.resubmitS = float64(nowNs()-tResubmit) / 1e9
	if err != nil {
		return jr, err
	}
	if snap2.RunsFromCache != snap2.MaxRuns {
		return jr, fmt.Errorf("resubmission: %d of %d runs from the cache", snap2.RunsFromCache, snap2.MaxRuns)
	}
	if !reflect.DeepEqual(fresh, cached) {
		return jr, errors.New("resubmission: cached result differs from the fresh result")
	}
	return jr, checkService(spec, fresh, co.fs)
}

// checkService checks every cell and every cached unit of a service result.
func checkService(spec campaign.Spec, res *campaign.Result, store dist.Store) error {
	if err := checkCampaign(res, serviceReps); err != nil {
		return err
	}
	plan, err := spec.Expand()
	if err != nil {
		return err
	}
	for ci := range plan.Cells {
		for rep := 0; rep < serviceReps; rep++ {
			r, found, err := store.Get(plan.UnitKey(ci, rep))
			if err == nil && !found {
				err = fmt.Errorf("unit %d/%d missing from the cache", ci, rep)
			}
			if err == nil {
				err = checkResults(fmt.Sprintf("unit %d/%d", ci, rep), r)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

type createdResponse struct {
	ID     string `json:"id"`
	Events string `json:"events"`
}

func submit(ctx context.Context, client *http.Client, base string, body []byte) (createdResponse, error) {
	var created createdResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/campaigns", bytes.NewReader(body))
	if err != nil {
		return created, err
	}
	req.Header.Set("Content-Type", "application/json")
	err = do(client, req, http.StatusCreated, &created)
	return created, err
}

func fetchResult(ctx context.Context, client *http.Client, base, id string) (*campaign.Result, campaign.Snapshot, error) {
	var res campaign.Result
	var snap campaign.Snapshot
	for path, out := range map[string]any{"/campaigns/" + id + "/results": &res, "/campaigns/" + id: &snap} {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return nil, snap, err
		}
		if err := do(client, req, http.StatusOK, out); err != nil {
			return nil, snap, err
		}
	}
	return &res, snap, nil
}

func do(client *http.Client, req *http.Request, want int, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %d: %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}

// eventStream reads one campaign's SSE progress stream.
type eventStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
	n    int
}

// openEvents opens the stream and reads its initial snapshot event, so the
// subscription is in place before any work starts.
func openEvents(ctx context.Context, client *http.Client, url string) (*eventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	s := &eventStream{body: resp.Body, sc: bufio.NewScanner(resp.Body)}
	s.sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if _, err := s.next(); err != nil {
		resp.Body.Close()
		return nil, err
	}
	return s, nil
}

// next returns the stream's next event.
func (s *eventStream) next() (dist.Event, error) {
	var data bytes.Buffer
	for s.sc.Scan() {
		line := s.sc.Text()
		if d, ok := strings.CutPrefix(line, "data:"); ok {
			data.WriteString(strings.TrimSpace(d))
			continue
		}
		if line == "" && data.Len() > 0 {
			var e dist.Event
			err := json.Unmarshal(data.Bytes(), &e)
			s.n++
			return e, err
		}
	}
	if err := s.sc.Err(); err != nil {
		return dist.Event{}, err
	}
	return dist.Event{}, io.ErrUnexpectedEOF
}

// untilDone reads to the terminal event and closes the stream; it reports
// the terminal event and how many events the stream carried.
func (s *eventStream) untilDone() (dist.Event, int, error) {
	defer s.body.Close()
	for {
		e, err := s.next()
		if err != nil {
			return e, s.n, fmt.Errorf("campaign event stream: %w", err)
		}
		if e.Type == dist.EventCampaignDone || e.Type == dist.EventCampaignCancelled {
			return e, s.n, nil
		}
	}
}

// ---- tracing the dist layer ----

// distTap is the worker's HTTP transport and the coordinator's cache in the
// traced service job: it times leases, commits and cache operations as
// spans and counts the bytes that cross HTTP.
type distTap struct {
	log   *spanLog
	root  int
	inner http.RoundTripper

	mu                     sync.Mutex
	leases, empty, commits int
	httpBytes              atomic.Int64
	cacheGets, cacheHits   atomic.Int64
	sse                    int
}

func (t *distTap) RoundTrip(req *http.Request) (*http.Response, error) {
	start := nowNs()
	if req.ContentLength > 0 {
		t.httpBytes.Add(req.ContentLength)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	var name string
	switch req.URL.Path {
	case "/dist/lease":
		name = "dist.lease"
		t.mu.Lock()
		t.leases++
		if resp.StatusCode == http.StatusNoContent {
			t.empty++
		}
		t.mu.Unlock()
	case "/dist/commit":
		name = "dist.commit"
		t.mu.Lock()
		t.commits++
		t.mu.Unlock()
	}
	resp.Body = &tapBody{ReadCloser: resp.Body, tap: t, name: name, start: start}
	return resp, nil
}

// tapBody counts response bytes and closes the call's span when the
// caller has read and closed the body.
type tapBody struct {
	io.ReadCloser
	tap   *distTap
	name  string
	start int64
	once  sync.Once
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tap.httpBytes.Add(int64(n))
	return n, err
}

func (b *tapBody) Close() error {
	err := b.ReadCloser.Close()
	if b.name != "" {
		b.once.Do(func() { b.tap.log.add(b.name, b.tap.root, b.start, nowNs()) })
	}
	return err
}

// storeTap times the coordinator's cache reads and writes.
type storeTap struct {
	inner dist.Store
	tap   *distTap
}

func (s *storeTap) Get(key string) (stats.Results, bool, error) {
	start := nowNs()
	res, found, err := s.inner.Get(key)
	s.tap.log.add("dist.cache_get", s.tap.root, start, nowNs())
	s.tap.cacheGets.Add(1)
	if found {
		s.tap.cacheHits.Add(1)
	}
	return res, found, err
}

func (s *storeTap) Put(key string, res stats.Results) error {
	start := nowNs()
	err := s.inner.Put(key, res)
	s.tap.log.add("dist.cache_put", s.tap.root, start, nowNs())
	return err
}

// report adds the dist and campaign-usefulness metrics.
func (t *distTap) report(r layerReport, runs int) {
	log, root := t.log, t.root
	t.mu.Lock()
	defer t.mu.Unlock()
	r["dist.lease_calls"] = float64(t.leases)
	if t.leases > 0 {
		r["dist.lease_empty_share"] = float64(t.empty) / float64(t.leases)
	}
	r["dist.lease_p50_ms"] = quantile(log.durationsMs(root, "dist.lease"), 0.5)
	commits := log.durationsMs(root, "dist.commit")
	r["dist.commit_calls"] = float64(t.commits)
	r["dist.commit_p50_ms"] = quantile(commits, 0.5)
	r["dist.commit_p90_ms"] = quantile(commits, 0.9)
	r["dist.http_bytes"] = float64(t.httpBytes.Load())
	gets := t.cacheGets.Load()
	r["dist.cache_get_calls"] = float64(gets)
	if gets > 0 {
		r["dist.cache_hit_share"] = float64(t.cacheHits.Load()) / float64(gets)
	}
	r["dist.cache_get_s"] = log.total(root, "dist.cache_get")
	r["dist.cache_put_s"] = log.total(root, "dist.cache_put")
	r["dist.sse_events"] = float64(t.sse)
	if t.commits > 0 {
		r["campaign.useful_ratio"] = float64(runs) / float64(t.commits)
	}
}

// replayService executes the service's campaign in-process with every unit
// traced, for the layers the worker runs out of reach of the dist tap. Its
// result must equal what the service returned.
//
// The per-event wrappers run here, outside the service's submit → done
// span, so on this workload trace.overhead_share is the traced replay's
// time over that of an untraced in-process run of the same campaign (the
// comparison study makes), and the two runs' results must be equal.
func replayService(ctx context.Context, log *spanLog, root int, spec campaign.Spec, served any) (layerReport, error) {
	expandS := timeExpand(spec)
	plain, err := campaign.New(spec, campaign.Options{})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t := nowNs()
	plainRes, err := plain.Run(ctx)
	plainS := float64(nowNs()-t) / 1e9
	if err != nil {
		return nil, err
	}
	c, err := campaign.New(spec, campaign.Options{})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t = nowNs()
	res, layers, err := tracedCampaign(ctx, log, root, c, runtime.NumCPU())
	tracedS := float64(nowNs()-t) / 1e9
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(plainRes, res) {
		return nil, errors.New("traced in-process campaign differs from the untraced one")
	}
	// Compare through JSON, the form the service answers in.
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	var local campaign.Result
	if err := json.Unmarshal(b, &local); err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(&local, served) {
		return nil, errors.New("service result differs from the in-process campaign of the same spec")
	}
	probeSpec, err := cellSpec(c.Plan(), 0)
	if err != nil {
		return nil, err
	}
	rep, err := runReport(log, root, layers, probeSpec, c.Plan().SeedFor(0, 0))
	if err != nil {
		return nil, err
	}
	campaignReport(rep, log, root, len(layers), c.Snapshot().RunsDone, "", expandS)
	rep["trace.overhead_share"] = tracedS/plainS - 1
	return rep, nil
}
