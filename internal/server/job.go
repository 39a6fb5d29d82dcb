// Package server implements simulation-as-a-service: a job manager that
// accepts simulation jobs (device configuration + workload spec + fault
// spec), schedules them onto a bounded worker pool where every worker
// owns an independent simulator instance, and exposes the whole thing
// over a net/http JSON API with expvar-based metrics.
//
// The design leans on one architectural property of the engine, pinned
// by tests in internal/eval: simulator instances share no mutable state,
// so N fixed-seed jobs running side by side produce results bit-identical
// to their serial runs. The serving layer adds the robustness a long-
// lived process needs — per-job context timeouts and cancellation, a
// bounded queue with explicit backpressure, panic recovery that fails a
// single job rather than the daemon, and graceful shutdown that drains
// in-flight jobs.
//
// The wire types (submission payload, status view, result schema, error
// envelope) live in the api subpackage so clients can depend on the
// schema without pulling in the execution machinery; this package
// aliases them under their historical names.
package server

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/host"
	"hmcsim/internal/obs"
	"hmcsim/internal/server/api"
	"hmcsim/internal/server/cache"
	"hmcsim/internal/stats"
)

// State aliases the v1 lifecycle state; see api.State.
type State = api.State

// Job lifecycle states, re-exported from the api package.
const (
	StateQueued    = api.StateQueued
	StateRunning   = api.StateRunning
	StateDone      = api.StateDone
	StateFailed    = api.StateFailed
	StateCancelled = api.StateCancelled
)

// JobSpec aliases the v1 submission payload; see api.SubmitRequest.
type JobSpec = api.SubmitRequest

// Result aliases the v1 result payload; see api.Result.
type Result = api.Result

// Status aliases the v1 job view; see api.JobStatus.
type Status = api.JobStatus

// NewResult assembles the result payload from a driver run and the final
// simulator snapshot. It lives here rather than in api because it pulls
// in the execution packages (host, eval) that wire-schema clients should
// not need.
func NewResult(cfg core.Config, spec JobSpec, r host.Result, snap core.Snapshot, fig5 []stats.Sample) Result {
	return Result{
		Config:            cfg.String(),
		Requests:          spec.Requests,
		Cycles:            r.Cycles,
		Sent:              r.Sent,
		Completed:         r.Completed,
		Errors:            r.Errors,
		ReqsPerCycle:      r.Throughput(),
		LatencyMean:       r.Latency.Mean(),
		LatencyP50:        r.Latency.Percentile(50),
		LatencyP95:        r.Latency.Percentile(95),
		LatencyP99:        r.Latency.Percentile(99),
		LatencyMax:        r.Latency.Max(),
		Engine:            r.Engine,
		IdleCyclesSkipped: r.IdleCyclesSkipped,
		Wakeups:           r.Wakeups,
		ResultDigest:      fmt.Sprintf("%016x", eval.ResultDigest(r)),
		StateDigest:       fmt.Sprintf("%016x", snap.Digest),
		Fig5:              fig5,
	}
}

// jobID renders job number n as its ID: "job-" and at least six
// digits, as many more as n needs past job-999999.
func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }

// parseJobID reads the number back out of an ID jobID rendered; ok is
// false for any other string.
func parseJobID(id string) (n int, ok bool) {
	digits, found := strings.CutPrefix(id, "job-")
	n, err := strconv.Atoi(digits)
	if !found || err != nil || n < 0 || jobID(n) != id {
		return 0, false
	}
	return n, true
}

// job is the manager's internal record. All fields past the immutable
// header are guarded by the manager's mutex.
type job struct {
	seq       int    // job number, in submission order
	id        string // jobID(seq)
	spec      JobSpec
	tenant    string // internal tenant name; "" is the anonymous tenant
	submitted time.Time

	state     state
	attempt   int  // execution attempts so far (retry budget accounting)
	cancelled bool // cancellation requested (queued or running)

	// Content-addressed cache / singleflight fields (DESIGN.md §15).
	specKey   cache.Key // content key of the canonicalized spec
	followers []*job    // identical submits coalesced onto this leader
	leader    *job      // non-nil while attached to a running leader
	verify    bool      // cache hit sampled for re-execution this run
}

// state groups the mutable lifecycle fields of a job.
type state struct {
	phase    State
	err      error
	result   *Result
	started  time.Time
	finished time.Time
	cancel   func()     // non-nil while running
	probe    *obs.Probe // non-nil while running; the driver's live counters
}

// status renders the job under the manager's lock. A running job's view
// carries a Progress block sampled from its probe — the probe side is
// lock-free, so reading it here never contends with the clock loop.
func (j *job) status() Status {
	s := Status{
		ID:        j.id,
		Name:      j.spec.Name,
		Tenant:    j.tenant,
		State:     j.state.phase,
		Submitted: j.submitted,
		Spec:      j.spec,
		Attempt:   j.attempt,
		Result:    j.state.result,
	}
	if j.state.phase == StateRunning && j.state.probe != nil {
		ps := j.state.probe.Snapshot(time.Now())
		s.Progress = &api.Progress{
			Cycles:          ps.Cycles,
			Sent:            ps.Sent,
			Completed:       ps.Completed,
			Requests:        ps.Target,
			Percent:         100 * ps.Fraction,
			ElapsedSeconds:  ps.Elapsed.Seconds(),
			CyclesPerSecond: ps.CyclesPerSec,
			ETASeconds:      ps.ETA.Seconds(),

			IdleCyclesSkipped: ps.IdleCyclesSkipped,
			Wakeups:           ps.Wakeups,
		}
	}
	if j.state.err != nil {
		s.Error = j.state.err.Error()
	}
	if !j.state.started.IsZero() {
		t := j.state.started
		s.Started = &t
	}
	if !j.state.finished.IsZero() {
		t := j.state.finished
		s.Finished = &t
	}
	return s
}
