package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"hmcsim/internal/core"
)

// TestMetricsJSONShape pins the JSON exposition: a flat single-line
// object whose scalar keys render exactly as the expvar map they
// replaced, plus the two nested histogram snapshots.
func TestMetricsJSONShape(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	st, err := m.Submit(testSpec("shape", core.Table1Configs()[0], 256))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)

	rsp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if ct := rsp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(rsp.Body)
	raw := buf.Bytes()
	if bytes.ContainsRune(raw, '\n') {
		t.Error("JSON exposition is not a single line")
	}
	var vars map[string]any
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, raw)
	}
	// The scalar keys the expvar map served must all survive.
	for _, key := range []string{
		"jobs_submitted", "jobs_completed", "jobs_failed", "jobs_cancelled",
		"jobs_rejected", "job_panics", "queue_depth", "queue_capacity",
		"workers", "active_workers", "cycles_simulated",
		"requests_simulated", "uptime_seconds", "cycles_per_second",
		"fabric_cubes", "fabric_hops_total", "fabric_intercube_packets_total",
		"jobs_quota_rejected", "sse_streams_active",
		"tenant_jobs_submitted_anonymous",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("metrics missing legacy key %q", key)
		}
	}
	// The histograms are nested snapshot objects with cumulative buckets.
	for _, key := range []string{
		"job_service_seconds", "job_queue_wait_seconds",
		"fabric_intercube_latency_cycles",
	} {
		h, ok := vars[key].(map[string]any)
		if !ok {
			t.Fatalf("%s is %T, want object", key, vars[key])
		}
		for _, f := range []string{"count", "sum", "mean", "p50", "p95", "p99", "buckets"} {
			if _, ok := h[f]; !ok {
				t.Errorf("%s missing field %q", key, f)
			}
		}
	}
	if vars["job_service_seconds"].(map[string]any)["count"].(float64) < 1 {
		t.Error("service histogram did not record the completed job")
	}
}

// promSample matches one Prometheus exposition sample line:
// name{labels} value.
var promSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? [0-9eE+.-]+|\+Inf|NaN$`)

// TestMetricsPrometheusShape scrapes /v1/metrics with a Prometheus-style
// Accept header and validates the text exposition line by line.
func TestMetricsPrometheusShape(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	st, err := m.Submit(testSpec("prom", core.Table1Configs()[0], 256))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if ct := rsp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(rsp.Body)
	body := buf.String()

	seen := map[string]bool{}
	for i, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		s := string(line)
		if s[0] == '#' {
			var name, rest string
			if n, _ := fmt.Sscanf(s, "# TYPE %s %s", &name, &rest); n == 2 {
				seen[name] = true
			}
			continue
		}
		if !promSample.MatchString(s) {
			t.Errorf("line %d is not a valid sample: %q", i+1, s)
		}
	}
	for _, name := range []string{
		"hmcsim_jobs_submitted_total", "hmcsim_jobs_completed_total",
		"hmcsim_workers", "hmcsim_uptime_seconds",
		"hmcsim_job_service_seconds", "hmcsim_job_queue_wait_seconds",
		"hmcsim_fabric_cubes_total", "hmcsim_fabric_hops_total",
		"hmcsim_fabric_intercube_packets_total",
		"hmcsim_fabric_intercube_latency_cycles",
		"hmcsim_jobs_quota_rejected_total", "hmcsim_sse_streams_active",
		"hmcsim_tenant_jobs_submitted_anonymous_total",
	} {
		if !seen[name] {
			t.Errorf("exposition missing # TYPE for %s", name)
		}
	}
	// Histogram series: cumulative buckets ending at +Inf, plus sum/count.
	for _, frag := range []string{
		`hmcsim_job_service_seconds_bucket{le="+Inf"} `,
		"hmcsim_job_service_seconds_sum ",
		"hmcsim_job_service_seconds_count ",
	} {
		if !bytes.Contains([]byte(body), []byte(frag)) {
			t.Errorf("exposition missing %q", frag)
		}
	}

	// application/openmetrics-text negotiates the same rendering; a JSON
	// Accept header falls back to the legacy object.
	req.Header.Set("Accept", "application/json")
	rsp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp2.Body.Close()
	if ct := rsp2.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("JSON Accept negotiated %q", ct)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		queued, workers int
		mean            float64
		want            int
	}{
		{0, 4, 0, 1},      // no service-time data, empty queue: the old default
		{10, 4, 0, 3},     // no data but a deep queue: fallback scales, ceil(1*11/4)
		{63, 1, 0, 60},    // no data, very deep queue: clamped, not the old "1"
		{0, 4, 2.0, 1},    // empty queue: one mean service over 4 workers
		{7, 4, 2.0, 4},    // ceil(2*8/4)
		{63, 1, 30.0, 60}, // clamped to the cap
		{3, 0, 1.0, 4},    // degenerate worker count treated as 1
		{0, 8, 0.001, 1},  // sub-second estimate floors at 1
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.queued, c.workers, c.mean); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d, %g) = %d, want %d",
				c.queued, c.workers, c.mean, got, c.want)
		}
	}
}

// TestRetryAfterHeaderDerived fills the queue and checks the 429 carries
// a Retry-After derived from the observed service time, not the old
// hardcoded 1.
func TestRetryAfterHeaderDerived(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 1,
		runFn: blockingRun(started, release),
	})
	defer shutdownNow(t, m)
	defer close(release) // LIFO: unblock the worker before draining
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// Seed the service histogram as if past jobs took 10s each.
	m.service.Observe(10.0)
	m.service.Observe(10.0)

	cfg := core.Table1Configs()[0]
	if _, err := m.Submit(testSpec("running", cfg, 8)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit(testSpec("queued", cfg, 8)); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(testSpec("rejected", cfg, 8))
	rsp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", rsp.StatusCode)
	}
	secs, err := strconv.Atoi(rsp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer", rsp.Header.Get("Retry-After"))
	}
	// mean 10s, 1 queued, 1 worker: ceil(10*2/1) = 20.
	if secs != 20 {
		t.Errorf("Retry-After = %d, want 20", secs)
	}
}

// TestRunningJobProgress drives a fake executor's probe and checks the
// status endpoint surfaces monotonically increasing live progress while
// the job runs, and drops the block once it settles.
func TestRunningJobProgress(t *testing.T) {
	steps := make(chan uint64)
	stepped := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 2,
		runFn: func(ctx context.Context, spec JobSpec, eo ExecOptions) (Result, error) {
			for c := range steps {
				eo.Probe.Set(c, 2*c, c)
				stepped <- struct{}{}
			}
			return Result{Cycles: 1, Sent: spec.Requests}, nil
		},
	})
	defer shutdownNow(t, m)

	st, err := m.Submit(testSpec("progress", core.Table1Configs()[0], 1000))
	if err != nil {
		t.Fatal(err)
	}

	var last uint64
	for _, c := range []uint64{10, 250, 500} {
		steps <- c
		<-stepped
		got, err := m.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateRunning || got.Progress == nil {
			t.Fatalf("state %s, progress %v; want running with progress", got.State, got.Progress)
		}
		p := got.Progress
		if p.Cycles != c || p.Sent != 2*c || p.Completed != c {
			t.Errorf("progress counters = %d/%d/%d, want %d/%d/%d",
				p.Cycles, p.Sent, p.Completed, c, 2*c, c)
		}
		if p.Cycles <= last && last != 0 {
			t.Errorf("cycles not monotonic: %d after %d", p.Cycles, last)
		}
		last = p.Cycles
		if p.Requests != 1000 {
			t.Errorf("progress target = %d, want 1000", p.Requests)
		}
		if want := 100 * float64(2*c) / 1000; p.Percent != want {
			t.Errorf("percent = %g, want %g", p.Percent, want)
		}
		if p.ElapsedSeconds < 0 {
			t.Errorf("negative elapsed %g", p.ElapsedSeconds)
		}
	}

	close(steps)
	fin := waitTerminal(t, m, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job settled %s", fin.State)
	}
	if fin.Progress != nil {
		t.Error("terminal status still carries a progress block")
	}
}

// counts reads the terminal counters off the manager's registry.
func counts(m *Manager) (submitted, completed, failed, cancelled, rejected uint64) {
	return m.submitted.Value(), m.completed.Value(), m.failed.Value(),
		m.cancelledN.Value(), m.rejected.Value()
}

// TestCancelWhileQueuedNeverRuns races cancellation against the worker
// popping the queue: a job whose Cancel observed the queued state must
// never reach the executor, and the terminal counters must reconcile
// with the job table exactly.
func TestCancelWhileQueuedNeverRuns(t *testing.T) {
	var mu sync.Mutex
	ran := map[string]bool{}
	release := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 2, QueueDepth: 64,
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			mu.Lock()
			ran[spec.Name] = true
			mu.Unlock()
			select {
			case <-release:
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
			return Result{Cycles: 1, Sent: spec.Requests}, nil
		},
	})

	cfg := core.Table1Configs()[0]
	cancelledQueued := map[string]string{} // job ID -> spec name
	var ids []string
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("race-%d", i)
		st, err := m.Submit(testSpec(name, cfg, 8))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		// Cancel every other submission immediately; some are already
		// running, some still queued — Cancel's return tells us which.
		if i%2 == 1 {
			cst, err := m.Cancel(st.ID)
			if err != nil {
				t.Fatalf("cancel %s: %v", st.ID, err)
			}
			if cst.State == StateCancelled {
				cancelledQueued[st.ID] = name
			}
		}
	}
	close(release)
	for _, id := range ids {
		waitTerminal(t, m, id)
	}
	shutdownNow(t, m)

	mu.Lock()
	defer mu.Unlock()
	for id, name := range cancelledQueued {
		if ran[name] {
			t.Errorf("job %s cancelled while queued but its executor ran", id)
		}
		if st, _ := m.Get(id); st.State != StateCancelled {
			t.Errorf("job %s settled %s, want cancelled", id, st.State)
		}
	}

	// Terminal counters reconcile: every accepted job settled exactly
	// once, and the job table agrees with the counters.
	sub, comp, fail, canc, rej := counts(m)
	if rej != 0 {
		t.Errorf("unexpected rejections: %d", rej)
	}
	if sub != comp+fail+canc {
		t.Errorf("counters do not reconcile: submitted %d != %d+%d+%d",
			sub, comp, fail, canc)
	}
	table := map[State]uint64{}
	for _, st := range m.List() {
		table[st.State]++
	}
	if table[StateDone] != comp || table[StateFailed] != fail || table[StateCancelled] != canc {
		t.Errorf("job table %v disagrees with counters done=%d failed=%d cancelled=%d",
			table, comp, fail, canc)
	}
}

// TestCancelDuringDrainReconciles races concurrent submits and cancels
// against shutdown, then checks /v1/metrics totals reconcile:
// submitted = completed + failed + cancelled once everything settles.
func TestCancelDuringDrainReconciles(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 3, QueueDepth: 32})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	cfg := core.Table1Configs()[0]
	var wg sync.WaitGroup
	idc := make(chan string, 128)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				st, err := m.Submit(testSpec(fmt.Sprintf("d%d-%d", g, i), cfg, 512))
				if err != nil {
					continue // queue-full or already draining: both fine
				}
				idc <- st.ID
			}
		}(g)
	}
	// Cancel concurrently with the submitters and the drain.
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for id := range idc {
			m.Cancel(id) // any disposition is legal mid-race
		}
	}()
	wg.Wait()
	close(idc)
	cwg.Wait()
	shutdownNow(t, m)

	sub, comp, fail, canc, _ := counts(m)
	if sub != comp+fail+canc {
		t.Errorf("after drain: submitted %d != completed %d + failed %d + cancelled %d",
			sub, comp, fail, canc)
	}
	var running, queued uint64
	for _, st := range m.List() {
		switch st.State {
		case StateRunning:
			running++
		case StateQueued:
			queued++
		}
	}
	if running != 0 || queued != 0 {
		t.Errorf("jobs left unsettled after drain: %d running, %d queued", running, queued)
	}

	// The same invariant holds through the metrics endpoint.
	rsp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(rsp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	got := vars["jobs_completed"].(float64) + vars["jobs_failed"].(float64) +
		vars["jobs_cancelled"].(float64)
	if vars["jobs_submitted"].(float64) != got {
		t.Errorf("/v1/metrics does not reconcile: submitted %v, settled %v",
			vars["jobs_submitted"], got)
	}
}

// TestPprofOptIn pins that profiling is opt-in: the default handler 404s
// /debug/pprof/, the WithPprof variant serves it alongside the API.
func TestPprofOptIn(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 2})
	defer shutdownNow(t, m)

	plain := httptest.NewServer(NewHandler(m))
	defer plain.Close()
	rsp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusNotFound {
		t.Errorf("default handler serves pprof: HTTP %d", rsp.StatusCode)
	}

	prof := httptest.NewServer(NewHandlerWithOptions(m, HandlerOptions{LegacyPaths: true, Pprof: true}))
	defer prof.Close()
	for _, path := range []string{"/debug/pprof/", "/v1/healthz"} {
		rsp, err := http.Get(prof.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		rsp.Body.Close()
		if rsp.StatusCode != http.StatusOK {
			t.Errorf("pprof handler: GET %s = HTTP %d, want 200", path, rsp.StatusCode)
		}
	}
}

// TestProgressOverHTTP runs one real (small) simulation through the HTTP
// surface polling for a progress block, tolerating the race that a fast
// job may finish before a poll lands mid-run.
func TestProgressOverHTTP(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 2})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	spec := testSpec("live", core.Table1Configs()[0], 1<<17)
	body, _ := json.Marshal(spec)
	rsp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(rsp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()

	var lastCycles uint64
	sawProgress := false
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got Status
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if got.Progress != nil {
			sawProgress = true
			if got.Progress.Cycles < lastCycles {
				t.Fatalf("cycles regressed: %d after %d", got.Progress.Cycles, lastCycles)
			}
			lastCycles = got.Progress.Cycles
		}
		if got.State.Terminal() {
			if got.State != StateDone {
				t.Fatalf("job settled %s (%s)", got.State, got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not settle in 60s")
		}
	}
	if !sawProgress {
		t.Skip("job finished before any poll observed it running")
	}
}
