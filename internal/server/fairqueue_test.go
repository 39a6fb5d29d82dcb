package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hmcsim/internal/core"
)

// lockedQueue returns an empty fair queue and the mutex its callers
// hold, locked: the test plays the manager, whose mutex guards the queue.
func lockedQueue() (*fairQueue, *sync.Mutex) {
	mu := new(sync.Mutex)
	mu.Lock()
	return newFairQueue(mu), mu
}

// TestFairShareAlternation is the tentpole acceptance property: two
// tenants, 16 jobs each, a 1-worker server — completions must
// interleave. Tenant A's 16-job burst lands first, but deficit
// round-robin means B's jobs do not wait behind it: once both tenants
// have pending work, neither runs more than twice in a row.
func TestFairShareAlternation(t *testing.T) {
	var mu sync.Mutex
	var order []string
	firstStarted := make(chan struct{})
	gate := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 64,
		Tenants: []TenantConfig{
			{Name: "alice", Key: "key-a"},
			{Name: "bob", Key: "key-b"},
		},
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			mu.Lock()
			order = append(order, spec.Name[:1])
			n := len(order)
			mu.Unlock()
			if n == 1 {
				// Park the first job until the full burst of both tenants
				// is queued, so dispatch order is measured under contention.
				close(firstStarted)
				<-gate
			}
			return Result{Cycles: 1, Sent: spec.Requests}, nil
		},
	})
	defer shutdownNow(t, m)

	cfg := core.Table1Configs()[0]
	var ids []string
	submit := func(tenant, prefix string, n int) {
		for i := 0; i < n; i++ {
			st, _, err := m.SubmitTenant(testSpec(fmt.Sprintf("%s-%d", prefix, i), cfg, 8), tenant)
			if err != nil {
				t.Fatalf("submit %s-%d: %v", prefix, i, err)
			}
			ids = append(ids, st.ID)
		}
	}
	// The whole of alice's burst lands before bob's first job.
	submit("alice", "a", 16)
	<-firstStarted
	submit("bob", "b", 16)
	close(gate)
	for _, id := range ids {
		if st := waitTerminal(t, m, id); st.State != StateDone {
			t.Fatalf("job %s settled %s (%s)", id, st.State, st.Error)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 32 {
		t.Fatalf("ran %d jobs, want 32", len(order))
	}
	// After the first dispatch (which may predate bob's submissions), no
	// tenant may run more than 2 consecutive jobs while both still have
	// pending work. Track remaining counts to know when one tenant's
	// backlog is exhausted — the tail is legitimately a single-tenant run.
	remaining := map[string]int{"a": 16, "b": 16}
	remaining[order[0]]--
	run := 1
	for i := 1; i < len(order); i++ {
		cur := order[i]
		if cur == order[i-1] {
			run++
		} else {
			run = 1
		}
		other := "a"
		if cur == "a" {
			other = "b"
		}
		if run > 2 && remaining[other] > 0 {
			t.Fatalf("tenant %q ran %d in a row at position %d with %d %q jobs pending: %s",
				cur, run, i, remaining[other], other, strings.Join(order, ""))
		}
		remaining[cur]--
	}
}

// TestFairQueueBoundedSkew is the raw DRR property over K equal-weight
// tenants: at every point while all tenants still have queued jobs, the
// served counts differ by at most 1.
func TestFairQueueBoundedSkew(t *testing.T) {
	const tenants, perTenant = 4, 25
	q, _ := lockedQueue()
	remaining := map[string]int{}
	for i := 0; i < perTenant; i++ {
		for k := 0; k < tenants; k++ {
			name := fmt.Sprintf("t%d", k)
			q.add(&job{id: fmt.Sprintf("%s-%d", name, i), tenant: name})
			remaining[name]++
		}
	}
	served := map[string]int{}
	for n := 0; n < tenants*perTenant; n++ {
		allPending := true
		for _, r := range remaining {
			if r == 0 {
				allPending = false
			}
		}
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d returned closed", n)
		}
		served[j.tenant]++
		remaining[j.tenant]--
		q.release(j.tenant)
		if allPending {
			min, max := perTenant+1, -1
			for k := 0; k < tenants; k++ {
				s := served[fmt.Sprintf("t%d", k)]
				if s < min {
					min = s
				}
				if s > max {
					max = s
				}
			}
			if max-min > 1 {
				t.Fatalf("after %d pops, served skew %d (min %d, max %d)", n+1, max-min, min, max)
			}
		}
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d left", q.Len())
	}
}

// TestFairQueueWeights pins the DRR quantum: a weight-2 tenant
// dispatches two jobs per round against a weight-1 tenant's one.
func TestFairQueueWeights(t *testing.T) {
	q, _ := lockedQueue()
	q.configureTenant("heavy", 2, 0)
	q.configureTenant("light", 1, 0)
	for i := 0; i < 6; i++ {
		q.add(&job{id: fmt.Sprintf("h%d", i), tenant: "heavy"})
	}
	for i := 0; i < 3; i++ {
		q.add(&job{id: fmt.Sprintf("l%d", i), tenant: "light"})
	}
	var got []string
	for i := 0; i < 9; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		got = append(got, string(j.tenant[0]))
		q.release(j.tenant)
	}
	want := "hhlhhlhhl"
	if s := strings.Join(got, ""); s != want {
		t.Errorf("weighted dispatch order %s, want %s", s, want)
	}
}

// TestFairQueueRunningCap pins lane skipping: a tenant at its MaxRunning
// cap is passed over (without losing its ring slot) until release.
func TestFairQueueRunningCap(t *testing.T) {
	q, mu := lockedQueue()
	q.configureTenant("capped", 1, 1)
	q.add(&job{id: "c0", tenant: "capped"})
	q.add(&job{id: "c1", tenant: "capped"})
	q.add(&job{id: "o0", tenant: "other"})

	j, _ := q.pop()
	if j.id != "c0" {
		t.Fatalf("first pop %s, want c0", j.id)
	}
	// capped is now at its running cap: the next two pops must skip c1.
	j, _ = q.pop()
	if j.id != "o0" {
		t.Fatalf("pop under cap returned %s, want o0 (lane not skipped)", j.id)
	}
	mu.Unlock()
	done := make(chan *job, 1)
	go func() {
		mu.Lock()
		defer mu.Unlock()
		j, _ := q.pop() // blocks until the cap releases
		done <- j
	}()
	select {
	case j := <-done:
		t.Fatalf("pop returned %s while capped lane was the only pending one", j.id)
	default:
	}
	mu.Lock()
	q.release("capped")
	mu.Unlock()
	if j = <-done; j.id != "c1" {
		t.Fatalf("post-release pop %s, want c1", j.id)
	}
}

// TestFairQueueDrainAfterClose replicates closed-channel semantics: jobs
// queued at close keep being handed out; pop reports ok=false only once
// the queue is empty. The queue never refuses a job: the manager stops
// intake before it closes the queue.
func TestFairQueueDrainAfterClose(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 8})
	shutdownNow(t, m)
	if _, err := m.Submit(testSpec("late", core.Table1Configs()[0], 8)); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after Shutdown: err = %v, want ErrShuttingDown", err)
	}

	q, _ := lockedQueue()
	for i := 0; i < 3; i++ {
		q.add(&job{id: fmt.Sprintf("j%d", i), tenant: "t"})
	}
	q.close()
	for i := 0; i < 3; i++ {
		j, ok := q.pop()
		if !ok || j.id != fmt.Sprintf("j%d", i) {
			t.Fatalf("drain pop %d = (%v, %v)", i, j, ok)
		}
	}
	if j, ok := q.pop(); ok {
		t.Fatalf("pop on drained closed queue returned %s", j.id)
	}
}

// TestFairQueueRemove pins eager cancellation: a removed job frees its
// slot and never dispatches; FIFO order of the rest holds. The bound is
// the manager's intake check: a cancelled queued job's slot is reusable
// at once, and readmitted jobs may hold the queue past QueueDepth while
// new work is refused.
func TestFairQueueRemove(t *testing.T) {
	testFairQueueBoundThroughManager(t)

	q, _ := lockedQueue()
	jobs := []*job{
		{id: "j0", tenant: "t"}, {id: "j1", tenant: "t"}, {id: "j2", tenant: "t"},
	}
	for _, j := range jobs {
		q.add(j)
	}
	if !q.remove(jobs[1]) {
		t.Fatal("remove did not find the queued job")
	}
	if q.remove(jobs[1]) {
		t.Error("second remove of the same job reported found")
	}
	if q.Len() != 2 {
		t.Errorf("Len() = %d after remove, want 2", q.Len())
	}
	q.add(&job{id: "j3", tenant: "t"})
	q.add(&job{id: "r0", tenant: "t"})
	q.add(&job{id: "r1", tenant: "u"})
	if q.Len() != 5 {
		t.Errorf("Len() = %d, want 5", q.Len())
	}
	// Lane order: t's FIFO and u's alternate under equal weights.
	for _, want := range []string{"j0", "r1", "j2", "j3", "r0"} {
		j, ok := q.pop()
		if !ok || j.id != want {
			t.Fatalf("pop = (%v, %v), want %s", j, ok, want)
		}
		q.release(j.tenant)
	}
	if q.Len() != 0 {
		t.Errorf("Len() = %d after draining, want 0", q.Len())
	}
}

// testFairQueueBoundThroughManager is TestFairQueueRemove's intake half:
// one worker held busy, a one-slot queue.
func testFairQueueBoundThroughManager(t *testing.T) {
	started := make(chan string, 8)
	gate := make(chan struct{})
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 1, runFn: blockingRun(started, gate)})
	defer shutdownNow(t, m)
	defer close(gate)
	cfg := core.Table1Configs()[0]
	submit := func(name string) (Status, error) {
		return m.Submit(testSpec(name, cfg, 8))
	}
	if _, err := submit("running"); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := submit("queued")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit("full"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past QueueDepth: err = %v, want ErrQueueFull", err)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := submit("reuses-slot"); err != nil {
		t.Fatalf("slot freed by cancelling a queued job not reusable: %v", err)
	}
	// Readmission ignores the bound: an accepted job always re-enters
	// its lane.
	m.mu.Lock()
	for _, tenant := range []string{"", "u"} {
		m.readmitLocked(&job{id: "readmitted-" + tenant, tenant: tenant, spec: testSpec("readmitted", cfg, 8)})
	}
	depth := m.fq.Len()
	m.mu.Unlock()
	if depth != 3 {
		t.Errorf("queue depth %d after readmitting past QueueDepth 1, want 3", depth)
	}
	if _, err := submit("over"); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit while readmitted jobs hold the queue past QueueDepth: err = %v, want ErrQueueFull", err)
	}
}
