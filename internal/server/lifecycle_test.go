package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hmcsim/internal/core"
)

// Outcomes the ledger scenario's runFn draws per spec.
const (
	outcomeOK = iota
	outcomeTransient
	outcomePermanent
	outcomePanic
	outcomeBlock // runs until its context is cancelled
	numOutcomes
)

// lifecycleViolation names the first way st breaks the stamp rules every
// lifecycle edge must keep, or returns "": Finished is set exactly when
// the job is terminal, and never before Started.
func lifecycleViolation(st Status) string {
	if st.State.Terminal() != (st.Finished != nil) {
		return fmt.Sprintf("%s is %s with finished=%v", st.ID, st.State, st.Finished)
	}
	if st.Started != nil && st.Finished != nil && st.Finished.Before(*st.Started) {
		return fmt.Sprintf("%s finished %v before it started %v", st.ID, *st.Finished, *st.Started)
	}
	return ""
}

// TestLifecycleLedger drives a store-less manager through a seeded mix of
// lifecycle edges — coalesced followers and promotions, cache hits,
// transient retries, permanent failures, panics, cancels while queued and
// while running, and a Shutdown that settles the jobs still blocked —
// and checks the ledger every edge must keep once Shutdown returns:
// every job is terminal, submitted = completed + failed + cancelled +
// coalesced, and each job's stamps pass lifecycleViolation. The stamp
// rules are also checked across every job's view each time an attempt
// starts, which catches a retried job carrying its failed attempt's
// stamps. No assertion depends on timing: the seed fixes the scenario,
// and the checks hold under every interleaving.
func TestLifecycleLedger(t *testing.T) {
	var total struct{ completed, failed, cancelled, coalesced uint64 }
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			m := runLedgerScenario(t, seed)
			total.completed += m.completed.Value()
			total.failed += m.failed.Value()
			total.cancelled += m.cancelledN.Value()
			total.coalesced += m.coalesced.Value()
		})
	}
	// The seeds must exercise every terminal edge the ledger sums, or a
	// lost count on one of them would go unseen.
	if total.completed == 0 || total.failed == 0 || total.cancelled == 0 || total.coalesced == 0 {
		t.Errorf("seeds left a terminal edge unexercised: %+v", total)
	}
}

func runLedgerScenario(t *testing.T, seed int64) *Manager {
	rng := rand.New(rand.NewSource(seed))
	// Six distinct specs (the cache key covers Requests), each with a
	// seed-drawn outcome: every kind once, plus one more that never
	// blocks. Duplicates of the one blocking spec coalesce, so at most
	// one blocked job holds a worker and the rest always progress.
	outcomes := append(rng.Perm(numOutcomes), rng.Intn(outcomeBlock))
	const baseRequests = 8

	var (
		m         *Manager
		mu        sync.Mutex
		violation string
	)
	gate := make(chan struct{})
	runFn := func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
		for _, st := range m.List() {
			if v := lifecycleViolation(st); v != "" {
				mu.Lock()
				if violation == "" {
					violation = v
				}
				mu.Unlock()
			}
		}
		// Hold every attempt until the first batch is in, so duplicates
		// of a running spec coalesce onto it.
		select {
		case <-gate:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		switch outcomes[spec.Requests-baseRequests] {
		case outcomeTransient:
			return Result{}, Transient(errors.New("flaky backend"))
		case outcomePermanent:
			return Result{}, errors.New("bad spec")
		case outcomePanic:
			panic("engine bug")
		case outcomeBlock:
			<-ctx.Done()
			return Result{}, ctx.Err()
		}
		return Result{Cycles: 1, Sent: spec.Requests}, nil
	}
	m = NewManager(ManagerConfig{
		Workers: 4, QueueDepth: 64,
		MaxAttempts:    3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
		CacheBytes:     1 << 20,
		Tenants: []TenantConfig{
			{Name: "alice", Key: "alice-key"},
			{Name: "bob", Key: "bob-key", MaxQueued: 4, MaxRunning: 2},
		},
		runFn: runFn,
	})

	var ids []string
	accepted := uint64(0)
	submit := func(n int) {
		for i := 0; i < n; i++ {
			spec := testSpec("ledger", core.Table1Configs()[0], baseRequests+uint64(rng.Intn(len(outcomes))))
			tenant := [...]string{"alice", "bob"}[rng.Intn(2)]
			if st, _, err := m.SubmitTenant(spec, tenant); err == nil {
				ids = append(ids, st.ID)
				accepted++
			} else if !errors.Is(err, ErrQuotaExceeded) {
				t.Fatalf("submit: %v", err)
			}
			if len(ids) > 0 && rng.Intn(4) == 0 {
				if _, err := m.Cancel(ids[rng.Intn(len(ids))]); err != nil && !errors.Is(err, ErrJobFinished) {
					t.Fatalf("cancel: %v", err)
				}
			}
		}
	}
	// settle waits until every job that can finish on its own has,
	// retries included, so only blocked jobs and their followers remain.
	settle := func() {
		deadline := time.Now().Add(30 * time.Second)
		for {
			var stuck []string
			for _, st := range m.List() {
				if !st.State.Terminal() && outcomes[st.Spec.Requests-baseRequests] != outcomeBlock {
					stuck = append(stuck, st.ID+" "+string(st.State))
				}
			}
			if len(stuck) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("jobs that do not block never settled: %v", stuck)
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit(20)
	close(gate)
	settle()
	submit(20) // now also served from the cache
	settle()
	// A short drain deadline cancels the blocked jobs; Shutdown reports
	// the expired deadline whenever one is left, so its error is no
	// finding.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_ = m.Shutdown(ctx)

	if violation != "" {
		t.Errorf("during the run: %s", violation)
	}
	for _, st := range m.List() {
		if !st.State.Terminal() {
			t.Errorf("%s still %s after Shutdown", st.ID, st.State)
		}
		if v := lifecycleViolation(st); v != "" {
			t.Errorf("after Shutdown: %s", v)
		}
	}
	if got := m.submitted.Value(); got != accepted {
		t.Errorf("jobs_submitted = %d, want %d accepted", got, accepted)
	}
	settled := m.completed.Value() + m.failed.Value() + m.cancelledN.Value() + m.coalesced.Value()
	if settled != m.submitted.Value() {
		t.Errorf("submitted %d != completed %d + failed %d + cancelled %d + coalesced %d",
			m.submitted.Value(), m.completed.Value(), m.failed.Value(), m.cancelledN.Value(), m.coalesced.Value())
	}
	return m
}
