package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/store"
)

// TestShutdownSettlesPendingRetry is the regression test for the
// untracked-retry-timer bug: a job parked between attempts (transient
// failure, backoff timer armed) used to stay queued forever when
// Shutdown raced its timer — the drain closed the queue, the timer
// fired into the closed manager and the job never settled; with a long
// backoff the timer itself outlived the manager. Shutdown now stops
// tracked timers and settles their jobs.
func TestShutdownSettlesPendingRetry(t *testing.T) {
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 4,
		MaxAttempts:    3,
		RetryBaseDelay: time.Hour, // the timer must still be pending at Shutdown
		RetryMaxDelay:  time.Hour,
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			return Result{}, Transient(errors.New("flaky backend"))
		},
	})

	st, err := m.Submit(testSpec("parked", core.Table1Configs()[0], 8))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first attempt to fail and the job to park behind its
	// hour-long backoff timer.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := m.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Attempt == 1 && got.State == StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never parked for retry: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	m.mu.Lock()
	timers := len(m.retryTimers)
	m.mu.Unlock()
	if timers != 1 {
		t.Fatalf("%d tracked retry timers, want 1", timers)
	}
	// A parked job is queued again: it keeps neither its failed
	// attempt's start nor a finish stamp.
	if parked, _ := m.Get(st.ID); parked.Started != nil || parked.Finished != nil {
		t.Errorf("parked job has started=%v finished=%v, want both unset", parked.Started, parked.Finished)
	}

	// Shutdown must settle the parked job, not leave it queued behind a
	// timer that will fire into a dead manager an hour from now.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	fin, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed {
		t.Fatalf("parked job settled %s, want failed (retry abandoned)", fin.State)
	}
	if !strings.Contains(fin.Error, "retry abandoned") {
		t.Errorf("error %q does not name the abandoned retry", fin.Error)
	}
	m.mu.Lock()
	timers = len(m.retryTimers)
	m.mu.Unlock()
	if timers != 0 {
		t.Errorf("%d retry timers still tracked after shutdown", timers)
	}
}

// TestCancelledAttemptFailingTransientlySettles is the regression test
// for a stranded job: a running job cancelled just as its attempt failed
// transiently, before it saw its context, was parked for a retry with
// its cancel flag set, and every later path skipped it, so it stayed
// queued forever. A cancel-requested attempt that does not succeed now
// settles cancelled.
func TestCancelledAttemptFailingTransientlySettles(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 4,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  time.Millisecond,
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			started <- spec.Name
			<-release // ignores ctx, like an engine between two interrupt polls
			return Result{}, Transient(errors.New("flaky backend"))
		},
	})
	defer shutdownNow(t, m)
	st, err := m.Submit(testSpec("raced", core.Table1Configs()[0], 8))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if fin := waitTerminal(t, m, st.ID); fin.State != StateCancelled {
		t.Fatalf("cancelled job settled %s (%s), want cancelled", fin.State, fin.Error)
	}
}

// TestListPaging pins the ?limit=/?after= paging of GET /v1/jobs: stable
// ID order, the X-Next-After cursor, and the bad_request rejection of a
// malformed limit. The response body stays a bare JSON array, so
// pre-paging clients decode pages unchanged.
func TestListPaging(t *testing.T) {
	m := NewManager(ManagerConfig{
		Workers: 2, QueueDepth: 16,
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			return Result{Cycles: 1, Sent: spec.Requests}, nil
		},
	})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	cfg := core.Table1Configs()[0]
	for i := 0; i < 5; i++ {
		if _, err := m.Submit(testSpec(fmt.Sprintf("page-%d", i), cfg, 8)); err != nil {
			t.Fatal(err)
		}
	}

	getPage := func(query string) ([]Status, string) {
		t.Helper()
		rsp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer rsp.Body.Close()
		if rsp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s = HTTP %d", query, rsp.StatusCode)
		}
		var page []Status
		if err := json.NewDecoder(rsp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return page, rsp.Header.Get("X-Next-After")
	}

	// Default: everything in one page, no cursor.
	all, next := getPage("")
	if len(all) != 5 || next != "" {
		t.Fatalf("unpaged list: %d jobs, cursor %q; want 5, none", len(all), next)
	}
	for i := 1; i < len(all); i++ {
		if all[i].ID <= all[i-1].ID {
			t.Fatalf("list not in ascending ID order: %s after %s", all[i].ID, all[i-1].ID)
		}
	}

	// Walk the table two at a time; pages concatenate to the full list.
	var walked []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("cursor walk did not terminate")
		}
		q := "?limit=2"
		if cursor != "" {
			q += "&after=" + cursor
		}
		page, n := getPage(q)
		for _, st := range page {
			walked = append(walked, st.ID)
		}
		if n == "" {
			if len(page) == 0 && len(walked) < 5 {
				t.Fatal("empty page before the table was exhausted")
			}
			break
		}
		if want := page[len(page)-1].ID; n != want {
			t.Fatalf("X-Next-After %q, want last ID of page %q", n, want)
		}
		cursor = n
	}
	if len(walked) != 5 {
		t.Fatalf("cursor walk visited %d jobs, want 5", len(walked))
	}
	for i, st := range all {
		if walked[i] != st.ID {
			t.Fatalf("walked[%d] = %s, full list has %s", i, walked[i], st.ID)
		}
	}

	// ?after= past the end is an empty page, not an error.
	if page, n := getPage("?after=" + all[4].ID); len(page) != 0 || n != "" {
		t.Errorf("page past the end: %d jobs, cursor %q", len(page), n)
	}

	// A malformed limit is 400 bad_request.
	rsp, err := http.Get(srv.URL + "/v1/jobs?limit=abc")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=abc: HTTP %d, want 400", rsp.StatusCode)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(rsp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "bad_request" {
		t.Errorf("limit=abc: code %q, want bad_request", e.Code)
	}

	// So is a malformed cursor.
	rsp, err = http.Get(srv.URL + "/v1/jobs?after=abc")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusBadRequest {
		t.Fatalf("after=abc: HTTP %d, want 400", rsp.StatusCode)
	}
	if err := json.NewDecoder(rsp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "bad_request" {
		t.Errorf("after=abc: code %q, want bad_request", e.Code)
	}
}

// submitPastSixDigits numbers m's next three jobs job-999999,
// job-1000000 and job-1000001, runs them to done and returns their IDs.
func submitPastSixDigits(t *testing.T, m *Manager) []string {
	t.Helper()
	m.mu.Lock()
	m.seq = 999998
	m.mu.Unlock()
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := m.Submit(testSpec(fmt.Sprintf("seven-digits-%d", i), core.Table1Configs()[0], 8))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		if st := waitTerminal(t, m, st.ID); st.State != StateDone {
			t.Fatalf("%s settled %s (%s)", st.ID, st.State, st.Error)
		}
	}
	if want := []string{"job-999999", "job-1000000", "job-1000001"}; strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("issued %v, want %v", ids, want)
	}
	return ids
}

// TestListPastSixDigitJobIDs pins listing order and paging once job
// numbers outgrow six digits: the list stays in submission order, and a
// cursor at job-999999 resumes at job-1000000 instead of ending the walk.
func TestListPastSixDigitJobIDs(t *testing.T) {
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 4,
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			return Result{Cycles: 1, Sent: spec.Requests}, nil
		},
	})
	defer shutdownNow(t, m)
	ids := submitPastSixDigits(t, m)

	var listed []string
	for _, st := range m.List() {
		listed = append(listed, st.ID)
	}
	if strings.Join(listed, " ") != strings.Join(ids, " ") {
		t.Errorf("List() = %v, want submission order %v", listed, ids)
	}
	for _, tc := range []struct{ after, want, next string }{
		{ids[0], ids[1], ids[1]},
		{ids[1], ids[2], ""},
	} {
		page, next := m.ListPage(tc.after, 1)
		if len(page) != 1 || page[0].ID != tc.want || next != tc.next {
			t.Errorf("ListPage(%q, 1) = %d jobs, cursor %q; want [%s], cursor %q",
				tc.after, len(page), next, tc.want, tc.next)
		}
	}
}

// TestRestartPastSixDigitJobIDs pins recovery's reading of seven-digit
// job numbers: the next ID after a restart is past every recovered one,
// so a fresh submission never replaces a recovered job.
func TestRestartPastSixDigitJobIDs(t *testing.T) {
	dir := t.TempDir()
	cfg := ManagerConfig{
		Workers: 1, QueueDepth: 4,
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			return Result{Config: spec.Name, Cycles: 1, Sent: spec.Requests}, nil
		},
	}
	s := openStore(t, dir)
	cfg.Store = s
	m := NewManager(cfg)
	ids := submitPastSixDigits(t, m)
	shutdownNow(t, m)
	s.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	cfg.Store = s2
	m = NewManager(cfg)
	defer shutdownNow(t, m)
	st, err := m.Submit(testSpec("after-restart", core.Table1Configs()[0], 8))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1000002" {
		t.Errorf("next ID after restart = %s, want job-1000002", st.ID)
	}
	for i, id := range ids {
		got, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("seven-digits-%d", i); got.State != StateDone || got.Result == nil || got.Result.Config != want {
			t.Errorf("%s after restart: %s, result %+v; want done with result %q", id, got.State, got.Result, want)
		}
	}
	submitted := 0
	for _, rec := range s2.Records() {
		if rec.Type == store.RecSubmitted && rec.Job == ids[1] {
			submitted++
		}
	}
	if submitted != 1 {
		t.Errorf("journal holds %d submitted records for %s, want 1", submitted, ids[1])
	}
}
