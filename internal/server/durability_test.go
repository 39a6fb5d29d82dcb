package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/host"
	"hmcsim/internal/server/api"
	"hmcsim/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return s
}

// TestIdempotentSubmit pins the dedup contract: two submissions with the
// same key yield one job, at both the manager and HTTP layers (202 for
// the creation, 200 for the replay, header and body spellings alike).
func TestIdempotentSubmit(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8, Store: s})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	spec := testSpec("idem", core.Table1Configs()[0], 256)
	spec.IdempotencyKey = "key-manager"
	st1, created, err := m.SubmitTenant(spec, "")
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	st2, created, err := m.SubmitTenant(spec, "")
	if err != nil || created {
		t.Fatalf("second submit: created=%v err=%v", created, err)
	}
	if st1.ID != st2.ID {
		t.Fatalf("idempotent resubmit created a second job: %s then %s", st1.ID, st2.ID)
	}

	// HTTP: key via header, 202 then 200, same job.
	spec = testSpec("idem-http", core.Table1Configs()[0], 256)
	body, _ := json.Marshal(spec)
	post := func() (*http.Response, Status) {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", "key-http")
		rsp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		json.NewDecoder(rsp.Body).Decode(&st)
		rsp.Body.Close()
		return rsp, st
	}
	rsp1, h1 := post()
	rsp2, h2 := post()
	if rsp1.StatusCode != http.StatusAccepted {
		t.Errorf("creation: HTTP %d, want 202", rsp1.StatusCode)
	}
	if rsp2.StatusCode != http.StatusOK {
		t.Errorf("replay: HTTP %d, want 200", rsp2.StatusCode)
	}
	if h1.ID == "" || h1.ID != h2.ID {
		t.Errorf("HTTP idempotency broken: %q then %q", h1.ID, h2.ID)
	}
	// No duplicated jobs anywhere: two keys, two jobs.
	if l := m.List(); len(l) != 2 {
		t.Errorf("List() has %d jobs, want 2", len(l))
	}
}

// TestRetryTransientFailures drives a runFn that fails transiently twice
// before succeeding and checks the job is requeued with backoff until it
// lands, with the attempt count and retry counter telling the story.
func TestRetryTransientFailures(t *testing.T) {
	var calls atomic.Int32
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 4, MaxAttempts: 3,
		RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			if calls.Add(1) < 3 {
				return Result{}, Transient(errors.New("simulated hiccup"))
			}
			return Result{Config: spec.Name, Cycles: 1, Sent: spec.Requests}, nil
		},
	})
	defer shutdownNow(t, m)

	st, err := m.Submit(testSpec("flaky", core.Table1Configs()[0], 8))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != StateDone {
		t.Fatalf("flaky job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Attempt != 3 {
		t.Errorf("attempt = %d, want 3", fin.Attempt)
	}
	if got := m.retries.Value(); got != 2 {
		t.Errorf("job_retries = %d, want 2", got)
	}

	// A permanently hopeless job exhausts its budget and fails.
	calls.Store(-1 << 30)
	st, err = m.Submit(testSpec("hopeless", core.Table1Configs()[0], 8))
	if err != nil {
		t.Fatal(err)
	}
	fin = waitTerminal(t, m, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("hopeless job finished %s, want failed", fin.State)
	}
	if fin.Attempt != 3 {
		t.Errorf("attempt = %d, want 3", fin.Attempt)
	}
	if fin.Error == "" || !bytes.Contains([]byte(fin.Error), []byte("attempts exhausted")) {
		t.Errorf("error %q does not mention the exhausted budget", fin.Error)
	}
}

// TestRetryDelaySchedule pins the backoff shape: exponential from base,
// capped at max, deterministic for a given (job, attempt).
func TestRetryDelaySchedule(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	var prev time.Duration
	for attempt := 1; attempt <= 6; attempt++ {
		d := retryDelay(base, max, attempt, "job-000042")
		if d != retryDelay(base, max, attempt, "job-000042") {
			t.Fatalf("attempt %d: delay not deterministic", attempt)
		}
		lo := base << uint(attempt-1)
		if lo > max {
			lo = max
		}
		if d < lo || d > max {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, max)
		}
		if d < prev && d != max {
			t.Errorf("attempt %d: delay %v shrank below %v before hitting the cap", attempt, d, prev)
		}
		prev = d
	}
	// Different jobs jitter differently (with overwhelming probability).
	if retryDelay(base, max, 1, "job-000001") == retryDelay(base, max, 1, "job-000002") &&
		retryDelay(base, max, 2, "job-000001") == retryDelay(base, max, 2, "job-000002") {
		t.Error("jitter identical across jobs on two consecutive attempts")
	}
}

// TestJournalRecovery reconstructs a crashed manager's store by hand —
// one job interrupted mid-run, one finished with a persisted result, one
// cancelled, one failed for good — and checks a manager opened over it
// rebuilds exactly that world: terminal jobs keep their outcomes, the
// interrupted job reruns to completion, and the idempotency index
// survives the restart.
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("interrupted", core.Table1Configs()[0], 256)
	spec.IdempotencyKey = "key-recovered"
	specJSON, _ := json.Marshal(spec)
	doneSpec := testSpec("finished", core.Table1Configs()[0], 256)
	doneJSON, _ := json.Marshal(doneSpec)

	s := openStore(t, dir)
	appendRec := func(rec store.Record) {
		t.Helper()
		rec.Time = time.Now()
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(store.Record{Type: store.RecSubmitted, Job: "job-000001", Key: spec.IdempotencyKey, Spec: specJSON})
	appendRec(store.Record{Type: store.RecStarted, Job: "job-000001", Attempt: 1})
	appendRec(store.Record{Type: store.RecSubmitted, Job: "job-000002", Spec: doneJSON})
	wantRes := Result{Config: "finished", Cycles: 99, Sent: 256, ResultDigest: "deadbeefdeadbeef"}
	if err := s.SaveResult("job-000002", &wantRes); err != nil {
		t.Fatal(err)
	}
	appendRec(store.Record{Type: store.RecDone, Job: "job-000002"})
	appendRec(store.Record{Type: store.RecSubmitted, Job: "job-000003", Spec: doneJSON})
	appendRec(store.Record{Type: store.RecCancelled, Job: "job-000003"})
	appendRec(store.Record{Type: store.RecSubmitted, Job: "job-000004", Spec: doneJSON})
	appendRec(store.Record{Type: store.RecFailed, Job: "job-000004", Attempt: 3, Error: "boom"})
	s.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 8, Store: s2})
	defer shutdownNow(t, m)

	// The interrupted job reruns (attempt 2: the journal shows attempt 1
	// never settled) and completes for real.
	fin := waitTerminal(t, m, "job-000001")
	if fin.State != StateDone {
		t.Fatalf("recovered job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Attempt != 2 {
		t.Errorf("recovered job attempt = %d, want 2", fin.Attempt)
	}
	if got := m.recovered.Value(); got != 1 {
		t.Errorf("jobs_recovered = %d, want 1", got)
	}

	st, err := m.Get("job-000002")
	if err != nil || st.State != StateDone || st.Result == nil {
		t.Fatalf("finished job not restored: %+v err=%v", st, err)
	}
	if st.Result.ResultDigest != wantRes.ResultDigest || st.Result.Cycles != wantRes.Cycles {
		t.Errorf("restored result %+v != saved %+v", *st.Result, wantRes)
	}
	if st, _ := m.Get("job-000003"); st.State != StateCancelled {
		t.Errorf("cancelled job restored as %s", st.State)
	}
	st, _ = m.Get("job-000004")
	if st.State != StateFailed || st.Error != "boom" {
		t.Errorf("failed job restored as %s (%q)", st.State, st.Error)
	}

	// The idempotency index survived: the same key maps to the old job.
	rst, created, err := m.SubmitTenant(spec, "")
	if err != nil || created || rst.ID != "job-000001" {
		t.Errorf("key after restart: id=%s created=%v err=%v, want job-000001 replay",
			rst.ID, created, err)
	}
	// And new IDs continue past the recovered sequence, no collisions.
	nst, err := m.Submit(testSpec("fresh", core.Table1Configs()[0], 8))
	if err != nil {
		t.Fatal(err)
	}
	if nst.ID != "job-000005" {
		t.Errorf("next ID after recovery = %s, want job-000005", nst.ID)
	}
}

// TestSuspendResumeDigestIdentical is the crash-safety acceptance test at
// the service layer: a real simulation job is suspended mid-run by a
// store-backed shutdown (final checkpoint through the hook), a second
// manager over the same store resumes it from that checkpoint, and the
// finished result is bit-identical to an uninterrupted run.
func TestSuspendResumeDigestIdentical(t *testing.T) {
	spec := testSpec("suspendable", core.Table1Configs()[0], 1<<20)
	ref, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s := openStore(t, dir)
	m1 := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 4, Store: s, CheckpointEvery: 256,
	})
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least two persisted checkpoints, then suspend. The job
	// runs ~1s wall; checkpoints land every ~30ms.
	deadline := time.Now().Add(30 * time.Second)
	for m1.checkpoints.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoints after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	shutdownNow(t, m1)
	s.Close()

	// The suspended job must be journaled non-terminal with a checkpoint
	// on disk.
	s2 := openStore(t, dir)
	defer s2.Close()
	if !s2.HasCheckpoint(st.ID) {
		t.Fatal("suspended job left no checkpoint")
	}
	m2 := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 4, Store: s2, CheckpointEvery: 256,
	})
	defer shutdownNow(t, m2)
	fin := waitTerminal(t, m2, st.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed job finished %s (%s), want done", fin.State, fin.Error)
	}
	if got := m2.resumed.Value(); got != 1 {
		t.Errorf("jobs_resumed = %d, want 1", got)
	}
	if fin.Result.ResultDigest != ref.ResultDigest {
		t.Errorf("resumed result digest %s != uninterrupted %s",
			fin.Result.ResultDigest, ref.ResultDigest)
	}
	if fin.Result.StateDigest != ref.StateDigest {
		t.Errorf("resumed state digest %s != uninterrupted %s",
			fin.Result.StateDigest, ref.StateDigest)
	}
	if fin.Result.Cycles != ref.Cycles {
		t.Errorf("resumed cycles %d != uninterrupted %d", fin.Result.Cycles, ref.Cycles)
	}
	// The checkpoint is cleaned up once the job lands.
	if s2.HasCheckpoint(st.ID) {
		t.Error("checkpoint not removed after completion")
	}
}

// TestCorruptCheckpointRerunsFromScratch seeds an unreadable checkpoint
// blob for the job ID about to be assigned and checks the manager drops
// it and still completes the job from cycle zero.
func TestCorruptCheckpointRerunsFromScratch(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()
	// job-000001 is the first ID the manager will assign.
	if err := s.SaveCheckpoint("job-000001", map[string]any{"not": "a checkpoint"}); err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Store: s})
	defer shutdownNow(t, m)
	st, err := m.Submit(testSpec("poisoned", core.Table1Configs()[0], 512))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	ref, err := Execute(context.Background(), testSpec("poisoned", core.Table1Configs()[0], 512))
	if err != nil {
		t.Fatal(err)
	}
	if fin.Result.ResultDigest != ref.ResultDigest {
		t.Errorf("digest %s != clean run %s", fin.Result.ResultDigest, ref.ResultDigest)
	}
}

// TestTerminalJobsDropCheckpoints pins that every terminal edge drops the
// job's checkpoint blob — a permanent failure, an exhausted retry budget
// and a cancel while queued, not only done — and that replay reproduces
// each terminal job's state, error text and attempt count.
func TestTerminalJobsDropCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	started := make(chan string, 1)
	release := make(chan struct{})
	run := func(ctx context.Context, spec JobSpec, eo ExecOptions) (Result, error) {
		if err := eo.Checkpoint(&host.Checkpoint{Core: &core.Checkpoint{}}); err != nil {
			return Result{}, err
		}
		switch spec.Name {
		case "permanent":
			return Result{}, errors.New("bad spec")
		case "flaky":
			return Result{}, Transient(errors.New("flaky"))
		}
		started <- spec.Name
		select {
		case <-release:
			return Result{Cycles: 1, Sent: spec.Requests}, nil
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	cfg := ManagerConfig{
		Workers: 1, QueueDepth: 4, Store: s,
		MaxAttempts:    2,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  time.Millisecond,
		runFn:          run,
	}
	m := NewManager(cfg)
	submit := func(name string) Status {
		t.Helper()
		st, err := m.Submit(testSpec(name, core.Table1Configs()[0], 64))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	perm := waitTerminal(t, m, submit("permanent").ID)
	if perm.State != StateFailed || perm.Error != "bad spec" {
		t.Errorf("permanent failure settled %s (%q), want failed (bad spec)", perm.State, perm.Error)
	}
	flaky := waitTerminal(t, m, submit("flaky").ID)
	if want := "server: 2 attempts exhausted: flaky"; flaky.State != StateFailed || flaky.Error != want {
		t.Errorf("exhausted budget settled %s (%q), want failed (%s)", flaky.State, flaky.Error, want)
	}

	// Cancel while queued: job-000004 waits behind the blocked worker
	// with a checkpoint seeded for it.
	if err := s.SaveCheckpoint("job-000004", &host.Checkpoint{Core: &core.Checkpoint{}}); err != nil {
		t.Fatal(err)
	}
	blocker := submit("blocker")
	<-started
	queued := submit("queued")
	if queued.ID != "job-000004" {
		t.Fatalf("queued job is %s, want job-000004", queued.ID)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitTerminal(t, m, blocker.ID)

	pre := make(map[string]Status)
	for _, id := range []string{perm.ID, flaky.ID, queued.ID} {
		st, _ := m.Get(id)
		pre[id] = st
		if s.HasCheckpoint(id) {
			t.Errorf("%s settled %s but kept its checkpoint", id, st.State)
		}
	}
	shutdownNow(t, m)
	s.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	cfg.Store = s2
	m2 := NewManager(cfg)
	defer shutdownNow(t, m2)
	for id, want := range pre {
		got, err := m2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != want.State || got.Error != want.Error || got.Attempt != want.Attempt {
			t.Errorf("%s replayed as %s (%q, attempt %d), want %s (%q, attempt %d)",
				id, got.State, got.Error, got.Attempt, want.State, want.Error, want.Attempt)
		}
	}
}

// TestRecoveringRejectsSubmissions holds recovery open with a full queue
// and checks submissions bounce with ErrRecovering (503 + Retry-After
// over HTTP) until the backlog is requeued.
func TestRecoveringRejectsSubmissions(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("backlog", core.Table1Configs()[0], 64)
	specJSON, _ := json.Marshal(spec)
	s := openStore(t, dir)
	for i := 1; i <= 3; i++ {
		rec := store.Record{
			Type: store.RecSubmitted, Job: jobID(i),
			Time: time.Now(), Spec: specJSON,
		}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 1, Store: s2,
		runFn: blockingRun(nil, release),
	})
	defer shutdownNow(t, m)
	defer unblock()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// NewManager readmits the whole backlog before it returns: three
	// jobs over one queue slot, with the one worker able to take only
	// one of them, keep the manager in recovery.
	if !m.Recovering() {
		t.Fatal("not recovering right after NewManager with a backlog past the queue bound")
	}
	if _, err := m.Submit(spec); !errors.Is(err, ErrRecovering) {
		t.Errorf("submit during recovery: %v, want ErrRecovering", err)
	}
	body, _ := json.Marshal(spec)
	rsp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during recovery: HTTP %d, want 503", rsp.StatusCode)
	}
	if rsp.Header.Get("Retry-After") == "" {
		t.Error("recovery 503 without Retry-After")
	}

	// Releasing the workers drains the backlog and reopens submissions.
	unblock()
	deadline := time.Now().Add(30 * time.Second)
	for m.Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("still recovering after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Recovery ends once the backlog fits the bound, not once it has
	// run: the third backlog job can still hold the one queue slot. Wait
	// for all three.
	for i := 1; i <= 3; i++ {
		waitTerminal(t, m, jobID(i))
	}
	if _, err := m.Submit(spec); err != nil {
		t.Errorf("submit after recovery: %v", err)
	}
}

// TestCacheJournalRecovery pins the cache/journal interaction: every
// completion — cold, coalesced, hit — is journaled with its spec key and
// provenance, replay rebuilds both the job table and the cache index,
// and nothing re-executes. A post-crash resubmission of the same spec is
// served straight from the rebuilt cache.
func TestCacheJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	started := make(chan string, 16)
	verdicts := make(chan error, 16)
	s := openStore(t, dir)
	m := NewManager(ManagerConfig{
		Workers: 2, QueueDepth: 8, Store: s, CacheBytes: cacheMB,
		runFn: gatedRun(&calls, started, verdicts),
	})

	spec := testSpec("durable-leader", core.Table1Configs()[0], 64)
	lead, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	fspec := spec
	fspec.Name = "durable-follower"
	fol, err := m.Submit(fspec)
	if err != nil {
		t.Fatal(err)
	}
	if fol.State != StateQueued {
		t.Fatalf("follower state %s, want queued behind the leader", fol.State)
	}
	verdicts <- nil
	leadFin := waitTerminal(t, m, lead.ID)
	folFin := waitTerminal(t, m, fol.ID)
	if folFin.Result == nil || folFin.Result.Cache != api.CacheCoalesced {
		t.Fatalf("follower result %+v, want coalesced", folFin.Result)
	}
	hspec := spec
	hspec.Name = "durable-hit"
	hspec.IdempotencyKey = "durable-hit-key"
	hit, err := m.Submit(hspec)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != StateDone || hit.Result.Cache != api.CacheHit {
		t.Fatalf("hit submission: state=%s result=%+v", hit.State, hit.Result)
	}
	if calls.Load() != 1 {
		t.Fatalf("pre-crash batch ran %d simulations, want 1", calls.Load())
	}
	shutdownNow(t, m)
	s.Close()

	// The journal's done records carry the spec key and the provenance of
	// each completion.
	s2 := openStore(t, dir)
	done := map[string]store.Record{}
	for _, rec := range s2.Records() {
		if rec.Type == store.RecDone {
			done[rec.Job] = rec
		}
	}
	wantCache := map[string]string{lead.ID: "", fol.ID: api.CacheCoalesced, hit.ID: api.CacheHit}
	if len(done) != len(wantCache) {
		t.Fatalf("journal has %d done records, want %d", len(done), len(wantCache))
	}
	for id, want := range wantCache {
		rec, ok := done[id]
		if !ok {
			t.Errorf("no done record for %s", id)
			continue
		}
		if rec.SpecKey == "" {
			t.Errorf("done record for %s has no spec_key", id)
		}
		if rec.Cache != want {
			t.Errorf("done record for %s: cache=%q, want %q", id, rec.Cache, want)
		}
	}

	// Replay rebuilds the table and the cache; nothing re-executes.
	m2 := NewManager(ManagerConfig{
		Workers: 2, QueueDepth: 8, Store: s2, CacheBytes: cacheMB,
		runFn: gatedRun(&calls, started, verdicts),
	})
	defer shutdownNow(t, m2)
	defer s2.Close()
	for id := range wantCache {
		st, err := m2.Get(id)
		if err != nil {
			t.Fatalf("recovered Get(%s): %v", id, err)
		}
		if st.State != StateDone || st.Result == nil {
			t.Errorf("recovered job %s: state=%s result=%v", id, st.State, st.Result)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("recovery re-ran simulations: %d calls", calls.Load())
	}

	// Idempotency and cache metadata agree across the crash: the keyed
	// resubmit resolves to the original hit job, not a new one.
	again, created, err := m2.SubmitTenant(hspec, "")
	if err != nil || created || again.ID != hit.ID {
		t.Errorf("idempotent resubmit after crash: id=%s created=%v err=%v, want %s/false/nil",
			again.ID, created, err, hit.ID)
	}

	// A fresh spelling of the same spec is served from the rebuilt cache.
	nspec := spec
	nspec.Name = "post-crash"
	st, err := m2.Submit(nspec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result.Cache != api.CacheHit {
		t.Errorf("post-crash submit: state=%s cache=%q, want immediate hit", st.State, st.Result.Cache)
	}
	if st.Result.ResultDigest != leadFin.Result.ResultDigest {
		t.Errorf("post-crash hit digest %s != original %s", st.Result.ResultDigest, leadFin.Result.ResultDigest)
	}
	if calls.Load() != 1 {
		t.Errorf("post-crash hit ran a simulation: %d calls", calls.Load())
	}
}
