package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/server/api"
)

func writeRoster(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTenants(t *testing.T) {
	path := writeRoster(t, `[
		{"name": "alice", "key": "s3cret-a", "max_queued": 32, "max_running": 2},
		{"name": "bob",   "key": "s3cret-b", "weight": 2},
		{"name": "anonymous", "max_queued": 8}
	]`)
	ts, err := LoadTenants(path)
	if err != nil {
		t.Fatalf("LoadTenants: %v", err)
	}
	if len(ts) != 3 || ts[0].Name != "alice" || ts[0].MaxQueued != 32 || ts[1].Weight != 2 {
		t.Fatalf("roster parsed as %+v", ts)
	}
	if ts[2].internalName() != "" {
		t.Errorf("anonymous internal name = %q, want empty", ts[2].internalName())
	}
	if ts[0].internalName() != "alice" {
		t.Errorf("alice internal name = %q", ts[0].internalName())
	}

	// A typo'd field must not silently become "unlimited".
	if _, err := LoadTenants(writeRoster(t, `[{"name":"a","key":"k","max_qeued":1}]`)); err == nil {
		t.Error("unknown roster field accepted")
	}
	if _, err := LoadTenants(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing roster file accepted")
	}
}

func TestValidateTenants(t *testing.T) {
	bad := map[string][]TenantConfig{
		"empty name":      {{Name: "", Key: "k"}},
		"duplicate name":  {{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}},
		"duplicate key":   {{Name: "a", Key: "k"}, {Name: "b", Key: "k"}},
		"keyless tenant":  {{Name: "a"}},
		"keyed anonymous": {{Name: AnonymousTenant, Key: "k"}},
		"negative quota":  {{Name: "a", Key: "k", MaxQueued: -1}},
		"negative weight": {{Name: "a", Key: "k", Weight: -2}},
		// "a-b" and "a.b" are distinct names but the same sanitized
		// metric suffix a_b; registering both would panic the obs
		// registry at NewManager.
		"metric collision": {{Name: "a-b", Key: "k1"}, {Name: "a.b", Key: "k2"}},
	}
	for label, roster := range bad {
		if err := ValidateTenants(roster); err == nil {
			t.Errorf("%s: roster %+v validated", label, roster)
		}
	}
	ok := []TenantConfig{
		{Name: "a", Key: "k1", MaxQueued: 4, MaxRunning: 2, Weight: 3},
		{Name: AnonymousTenant, MaxQueued: 8},
	}
	if err := ValidateTenants(ok); err != nil {
		t.Errorf("valid roster rejected: %v", err)
	}
}

func TestMetricTenant(t *testing.T) {
	cases := map[string]string{
		"":         AnonymousTenant,
		"alice":    "alice",
		"team-red": "team_red",
		"a.b/c d":  "a_b_c_d",
		"Alice_9":  "Alice_9",
	}
	for in, want := range cases {
		if got := metricTenant(in); got != want {
			t.Errorf("metricTenant(%q) = %q, want %q", in, got, want)
		}
	}
}

// postJob submits a spec over HTTP with an optional bearer token and
// returns the response; the caller owns the body.
func postJob(t *testing.T, base string, spec JobSpec, token string) *http.Response {
	t.Helper()
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return rsp
}

// getPath issues one GET with an optional bearer token; the caller owns
// the body.
func getPath(t *testing.T, base, path, token string) *http.Response {
	t.Helper()
	return doPath(t, http.MethodGet, base, path, token)
}

func doPath(t *testing.T, method, base, path, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return rsp
}

// TestBearerAuth pins the authentication contract: a configured key
// resolves its tenant (visible in the job view), an unknown or malformed
// credential is 401 unauthorized, and requests without the header keep
// the byte-identical anonymous wire format — no tenant field at all.
func TestBearerAuth(t *testing.T) {
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 8,
		Tenants: []TenantConfig{{Name: "alice", Key: "key-a"}},
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			return Result{Cycles: 1, Sent: spec.Requests}, nil
		},
	})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cfg := core.Table1Configs()[0]

	// Authenticated: the job carries its tenant.
	rsp := postJob(t, srv.URL, testSpec("authed", cfg, 8), "key-a")
	var st Status
	if err := json.NewDecoder(rsp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusAccepted || st.Tenant != "alice" {
		t.Fatalf("authed submit: HTTP %d tenant %q, want 202 alice", rsp.StatusCode, st.Tenant)
	}
	// ...and the status view over HTTP spells it out too — read with
	// alice's own key, since job views are tenant-scoped.
	gr := getPath(t, srv.URL, "/v1/jobs/"+st.ID, "key-a")
	var got Status
	if err := json.NewDecoder(gr.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusOK || got.Tenant != "alice" {
		t.Errorf("status of an authed job: HTTP %d tenant %q, want 200 alice", gr.StatusCode, got.Tenant)
	}

	// Bad credentials: 401 with the unauthorized code.
	for _, hdr := range []string{"Bearer wrong-key", "Basic key-a", "Bearer"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs", nil)
		req.Header.Set("Authorization", hdr)
		rsp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		decErr := json.NewDecoder(rsp.Body).Decode(&e)
		rsp.Body.Close()
		if rsp.StatusCode != http.StatusUnauthorized || decErr != nil || e.Code != api.CodeUnauthorized {
			t.Errorf("Authorization %q: HTTP %d code %q (%v), want 401 unauthorized", hdr, rsp.StatusCode, e.Code, decErr)
		}
	}

	// Anonymous: the pre-tenancy wire format, byte-identical — the word
	// "tenant" never appears in the response.
	rsp = postJob(t, srv.URL, testSpec("anon", cfg, 8), "")
	var raw bytes.Buffer
	raw.ReadFrom(rsp.Body)
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusAccepted {
		t.Fatalf("anonymous submit: HTTP %d", rsp.StatusCode)
	}
	if bytes.Contains(raw.Bytes(), []byte("tenant")) {
		t.Errorf("anonymous job view grew a tenant field: %s", raw.Bytes())
	}
}

// TestTenantQuota pins the MaxQueued quota: a tenant at its queue cap
// gets 429 quota_exceeded (with a Retry-After estimate) while the global
// queue still has room, and the rejection is counted per the
// jobs_quota_rejected and tenant_jobs_submitted_<name> series.
func TestTenantQuota(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 16,
		Tenants: []TenantConfig{{Name: "alice", Key: "key-a", MaxQueued: 2}},
		runFn:   blockingRun(started, release),
	})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cfg := core.Table1Configs()[0]

	// Park the single worker on an anonymous job so alice's submissions
	// stay queued.
	if _, err := m.Submit(testSpec("occupier", cfg, 8)); err != nil {
		t.Fatal(err)
	}
	<-started

	for i := 0; i < 2; i++ {
		rsp := postJob(t, srv.URL, testSpec(fmt.Sprintf("a-%d", i), cfg, 8), "key-a")
		rsp.Body.Close()
		if rsp.StatusCode != http.StatusAccepted {
			t.Fatalf("alice submit %d: HTTP %d", i, rsp.StatusCode)
		}
	}
	rsp := postJob(t, srv.URL, testSpec("a-over", cfg, 8), "key-a")
	var e api.Error
	decErr := json.NewDecoder(rsp.Body).Decode(&e)
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusTooManyRequests || decErr != nil || e.Code != api.CodeQuotaExceeded {
		t.Fatalf("over-quota submit: HTTP %d code %q (%v), want 429 quota_exceeded", rsp.StatusCode, e.Code, decErr)
	}
	if rsp.Header.Get("Retry-After") == "" {
		t.Error("quota rejection carries no Retry-After")
	}

	// The anonymous tenant is not subject to alice's quota.
	rsp = postJob(t, srv.URL, testSpec("anon-ok", cfg, 8), "")
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusAccepted {
		t.Errorf("anonymous submit during alice's quota: HTTP %d", rsp.StatusCode)
	}

	mrsp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.NewDecoder(mrsp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	mrsp.Body.Close()
	if got, _ := vars["jobs_quota_rejected"].(float64); got != 1 {
		t.Errorf("jobs_quota_rejected = %v, want 1", vars["jobs_quota_rejected"])
	}
	if got, _ := vars["tenant_jobs_submitted_alice"].(float64); got != 2 {
		t.Errorf("tenant_jobs_submitted_alice = %v, want 2", vars["tenant_jobs_submitted_alice"])
	}

	close(release)
	for _, js := range m.List() {
		waitTerminal(t, m, js.ID)
	}
}

// TestTenantMaxRunning pins the concurrency cap: with two workers free, a
// MaxRunning=1 tenant's second job waits while another tenant's job runs.
func TestTenantMaxRunning(t *testing.T) {
	started := make(chan string, 3)
	release := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 2, QueueDepth: 8,
		Tenants: []TenantConfig{{Name: "capped", Key: "key-c", MaxRunning: 1}},
		runFn:   blockingRun(started, release),
	})
	defer shutdownNow(t, m)
	cfg := core.Table1Configs()[0]

	var ids []string
	for _, sub := range []struct{ tenant, name string }{
		{"capped", "c0"}, {"capped", "c1"}, {"", "o0"},
	} {
		st, _, err := m.SubmitTenant(testSpec(sub.name, cfg, 8), sub.tenant)
		if err != nil {
			t.Fatalf("submit %s: %v", sub.name, err)
		}
		ids = append(ids, st.ID)
	}

	// Both workers fill, but never with two capped jobs: the dispatcher
	// skips the capped lane and hands the second worker the other
	// tenant's job instead.
	first, second := <-started, <-started
	running := []string{first, second}
	if (first == "c0" || first == "c1") && (second == "c0" || second == "c1") {
		t.Fatalf("both running slots went to the capped tenant: %v", running)
	}
	if !strings.Contains(strings.Join(running, " "), "c") {
		t.Fatalf("capped tenant got no running slot at all: %v", running)
	}
	select {
	case name := <-started:
		t.Fatalf("third job %q started past the MaxRunning cap", name)
	default:
	}

	close(release) // the finishing capped job frees the lane; c1 runs
	if name := <-started; name != "c1" {
		t.Fatalf("post-release start %q, want c1", name)
	}
	for _, id := range ids {
		if st := waitTerminal(t, m, id); st.State != StateDone {
			t.Fatalf("job %s settled %s (%s)", id, st.State, st.Error)
		}
	}
}

// TestTenantIsolation pins the authorization contract on the job
// endpoints: every per-job view — status, listing, event stream,
// cancel — is scoped to the owning tenant, and a cross-tenant (or
// anonymous) access reads as 404 unknown_job, indistinguishable from an
// absent ID. Before this, the guessable sequential IDs let any caller
// read another tenant's specs and results, and cancel its queued or
// running jobs to free queue capacity.
func TestTenantIsolation(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 8,
		Tenants: []TenantConfig{
			{Name: "alice", Key: "key-a"},
			{Name: "bob", Key: "key-b"},
		},
		runFn: blockingRun(started, release),
	})
	defer shutdownNow(t, m)
	defer close(release)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cfg := core.Table1Configs()[0]

	rsp := postJob(t, srv.URL, testSpec("alices-job", cfg, 8), "key-a")
	var st Status
	if err := json.NewDecoder(rsp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice submit: HTTP %d", rsp.StatusCode)
	}
	<-started // alice's job is running
	if rsp := postJob(t, srv.URL, testSpec("anon-job", cfg, 8), ""); rsp.StatusCode != http.StatusAccepted {
		t.Fatalf("anonymous submit: HTTP %d", rsp.StatusCode)
	} else {
		rsp.Body.Close()
	}

	// Every cross-tenant and anonymous view of alice's job is a plain
	// unknown_job 404: status, event stream and cancel alike.
	paths := []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + st.ID},
		{http.MethodGet, "/v1/jobs/" + st.ID + "/events"},
		{http.MethodDelete, "/v1/jobs/" + st.ID},
	}
	for _, token := range []string{"key-b", ""} {
		for _, p := range paths {
			rsp := doPath(t, p.method, srv.URL, p.path, token)
			var e api.Error
			decErr := json.NewDecoder(rsp.Body).Decode(&e)
			rsp.Body.Close()
			if rsp.StatusCode != http.StatusNotFound || decErr != nil || e.Code != api.CodeUnknownJob {
				t.Errorf("token %q %s %s: HTTP %d code %q (%v), want 404 unknown_job",
					token, p.method, p.path, rsp.StatusCode, e.Code, decErr)
			}
		}
	}
	// ...and bob's cancel attempt must not have touched the job.
	if got, err := m.Get(st.ID); err != nil || got.State != StateRunning {
		t.Fatalf("alice's job after cross-tenant cancel attempts: %+v, %v; want still running", got, err)
	}

	// The owner still sees and controls it.
	rsp = getPath(t, srv.URL, "/v1/jobs/"+st.ID, "key-a")
	var own Status
	if err := json.NewDecoder(rsp.Body).Decode(&own); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK || own.Tenant != "alice" || own.State != StateRunning {
		t.Fatalf("owner view: HTTP %d %+v", rsp.StatusCode, own)
	}

	// Listings are scoped the same way: alice sees one job, bob none,
	// anonymous only the anonymous job — each as a JSON array, never null.
	for _, tc := range []struct {
		token string
		want  []string
	}{
		{"key-a", []string{"alices-job"}},
		{"key-b", []string{}},
		{"", []string{"anon-job"}},
	} {
		rsp := getPath(t, srv.URL, "/v1/jobs", tc.token)
		var page []Status
		if err := json.NewDecoder(rsp.Body).Decode(&page); err != nil {
			t.Fatalf("token %q list: %v", tc.token, err)
		}
		rsp.Body.Close()
		var names []string
		for _, js := range page {
			names = append(names, js.Name)
		}
		if page == nil || len(names) != len(tc.want) {
			t.Fatalf("token %q lists %v, want %v", tc.token, names, tc.want)
		}
		for i := range tc.want {
			if names[i] != tc.want[i] {
				t.Fatalf("token %q lists %v, want %v", tc.token, names, tc.want)
			}
		}
	}
}

// TestTenantQuotaCountsRetryParked pins the quota fix: a job parked on
// its retry-backoff timer holds no fair-queue lane slot, but it still
// counts against its tenant's max_queued — before this, a tenant whose
// jobs failed transiently could hold max_queued lane slots plus an
// unbounded set of retry-parked jobs all destined to re-enter the queue.
func TestTenantQuotaCountsRetryParked(t *testing.T) {
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 8, MaxAttempts: 3,
		// Long enough that the parked job stays parked for the whole test.
		RetryBaseDelay: time.Minute, RetryMaxDelay: time.Minute,
		Tenants: []TenantConfig{{Name: "alice", Key: "key-a", MaxQueued: 1}},
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			return Result{}, Transient(errors.New("flaky backend"))
		},
	})
	defer shutdownNow(t, m)
	cfg := core.Table1Configs()[0]

	st, _, err := m.SubmitTenant(testSpec("flaky", cfg, 8), "alice")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for attempt 1 to fail and the job to park on its backoff
	// timer: off the lane, still pending.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		parked, queued := m.fq.lanes["alice"].parked, len(m.fq.lanes["alice"].jobs)
		m.mu.Unlock()
		if parked == 1 {
			if queued != 0 {
				t.Fatalf("parked job still occupies a lane slot")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never parked on its retry timer")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, err := m.SubmitTenant(testSpec("second", cfg, 8), "alice"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("submit while a retry is parked: err = %v, want ErrQuotaExceeded", err)
	}
	// Cancelling the parked job refunds its quota slot immediately.
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SubmitTenant(testSpec("after-cancel", cfg, 8), "alice"); err != nil {
		t.Fatalf("submit after cancelling the parked job: %v", err)
	}
}
