// Package api defines the stable v1 wire types of the simulation
// service's HTTP API: the submission payload, the job status view, the
// result schema and the error envelope. The package exists so that
// clients (cmd/hmcsim-submit, cmd/hmcsim-table1 -json, external tools)
// and the server share one schema definition that cannot drift.
//
// # Versioning
//
// These types are the v1 contract, served under the /v1/ path prefix:
//
//	POST   /v1/jobs              submit a SubmitRequest -> 202 JobStatus
//	GET    /v1/jobs              list jobs (paged via ?limit=/?after=)
//	                                                    -> 200 [JobStatus]
//	GET    /v1/jobs/{id}         poll one job           -> 200 JobStatus (live Progress while running)
//	GET    /v1/jobs/{id}/events  follow one job         -> 200 text/event-stream (see below)
//	DELETE /v1/jobs/{id}         cancel a job           -> 200 JobStatus
//	GET    /v1/metrics           metrics                -> 200 JSON object, or Prometheus
//	                                                      text under Accept: text/plain
//	GET    /v1/healthz           liveness/drain         -> 200 ok | 503 draining
//
// # Streaming
//
// GET /v1/jobs/{id}/events is a Server-Sent Events stream: while the
// job runs, "progress" events carry Progress snapshots at the requested
// ?interval_ms= cadence; the stream then ends with exactly one terminal
// event — "result" carrying the Result of a done job, or "error"
// carrying an Error envelope for a failed/cancelled job (codes
// job_failed, job_cancelled) or a stream cut short by shutdown
// (shutting_down).
//
// # Tenancy
//
// Requests may authenticate with "Authorization: Bearer <key>"; the key
// maps onto a configured tenant whose quotas and fair-share scheduling
// weight then apply. Requests without the header run as the anonymous
// tenant — the pre-tenancy behavior — and jobs of the anonymous tenant
// serialize without a tenant field, keeping the wire format unchanged.
// An unknown key is 401 unauthorized; a submission beyond the tenant's
// quota is 429 quota_exceeded.
//
// Within v1, fields are only ever added (with omitempty), never renamed,
// retyped or removed; incompatible changes require a /v2/ prefix.
// Submissions are decoded strictly: a field outside this schema is
// rejected with the "unknown_field" error code rather than silently
// ignored. The pre-versioning paths (/api/v1/jobs, /metrics, /healthz)
// remain as aliases that serve identical payloads with "Deprecation:
// true" and "Sunset" response headers announcing their removal date
// (server.LegacySunset); hmcsim-serve -legacy-paths=false unmounts them.
package api

import (
	"fmt"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/fabric"
	"hmcsim/internal/stats"
	"hmcsim/internal/workload"
)

// State is the lifecycle state of a job. The machine is linear with
// three terminal states:
//
//	queued -> running -> done | failed | cancelled
//
// A queued job may also move directly to cancelled without running.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SubmitRequest is the submission payload: everything needed to build
// and run one independent simulator instance. The zero value is not
// valid; at minimum Config and Requests must be set.
type SubmitRequest struct {
	// Name is an optional caller-supplied label echoed in status output.
	Name string `json:"name,omitempty"`
	// Config is the device configuration, including the fault spec
	// (Config.Fault). It is validated at submission time.
	Config core.Config `json:"config"`
	// Workload describes the access stream; the zero value selects the
	// random access workload with seed 0. See workload.Spec.
	Workload workload.Spec `json:"workload"`
	// Requests is the number of accesses to inject.
	Requests uint64 `json:"requests"`
	// Warmup excludes the first Warmup requests from measurement.
	Warmup uint64 `json:"warmup,omitempty"`
	// Posted issues writes as posted requests.
	Posted bool `json:"posted,omitempty"`
	// TimeoutMS bounds the job's wall-clock runtime in milliseconds;
	// zero selects the manager's default. The bound is enforced through
	// the per-job context: an expired job fails, it does not wedge a
	// worker.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Fig5Interval, when non-zero, attaches a Figure-5 collector with
	// this sampling interval (in cycles) and includes the per-interval
	// series in the result payload.
	Fig5Interval uint64 `json:"fig5_interval,omitempty"`
	// Fabric, when non-nil, runs the job as a multi-cube fabric: Config
	// describes one cube (its NumDevs is ignored) and Fabric wires
	// NumCubes of them into the named system graph. The result then
	// carries a Fabric block with the per-cube breakdown. See
	// fabric.Spec.
	Fabric *fabric.Spec `json:"fabric,omitempty"`
	// IdempotencyKey deduplicates submissions: two submissions carrying
	// the same non-empty key return the same job. Clients that retry a
	// submission after a connection failure set a key so an ambiguous
	// outcome (did the first request land?) cannot double-run the job.
	// The key may also arrive via the Idempotency-Key request header.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// Result.Cache provenance values. A cold simulation carries no
// provenance (empty string, omitted on the wire).
const (
	// CacheHit marks a result served from the content-addressed cache
	// without running a simulation.
	CacheHit = "hit"
	// CacheCoalesced marks a result shared from an identical in-flight
	// job the submission attached to as a singleflight follower.
	CacheCoalesced = "coalesced"
	// CacheVerified marks a cache hit that -cache-verify sampling chose
	// to re-execute; the fresh digests matched the cached entry.
	CacheVerified = "verified"
)

// MaxRequestsPerJob bounds a single job's request count, keeping one
// submission from monopolizing a worker for hours. The paper-scale
// experiment (1<<25 requests) fits with headroom.
const MaxRequestsPerJob = 1 << 28

// Validate checks the request at submission time, before it costs a
// queue slot.
func (s SubmitRequest) Validate() error {
	if s.Requests == 0 {
		return fmt.Errorf("api: job needs requests > 0")
	}
	if s.Requests > MaxRequestsPerJob {
		return fmt.Errorf("api: %d requests exceeds the per-job bound %d",
			s.Requests, MaxRequestsPerJob)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("api: negative timeout")
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if s.Fabric != nil {
		if err := s.Fabric.Validate(); err != nil {
			return err
		}
	}
	return s.Workload.Validate()
}

// Result is the result payload of a finished job — the same schema
// cmd/hmcsim-table1 -json emits. Digests are rendered as fixed-width hex
// strings so they survive JSON number precision limits.
type Result struct {
	// Config labels the device configuration the paper's way.
	Config string `json:"config"`
	// Requests is the injected request count.
	Requests uint64 `json:"requests"`
	// Cycles is the simulated runtime in clock cycles (Table I's
	// metric).
	Cycles uint64 `json:"cycles"`
	// Sent, Completed and Errors summarize the driver run.
	Sent      uint64 `json:"sent"`
	Completed uint64 `json:"completed"`
	Errors    uint64 `json:"errors"`
	// ReqsPerCycle is the throughput figure of Table I.
	ReqsPerCycle float64 `json:"reqs_per_cycle"`
	// Latency moments of the round-trip distribution, in cycles.
	LatencyMean float64 `json:"latency_mean"`
	LatencyP50  uint64  `json:"latency_p50"`
	LatencyP95  uint64  `json:"latency_p95"`
	LatencyP99  uint64  `json:"latency_p99"`
	LatencyMax  uint64  `json:"latency_max"`
	// Engine is the simulator's counter snapshot over the measurement
	// window.
	Engine core.Stats `json:"engine"`
	// ResultDigest is eval.ResultDigest over the driver result; it is
	// the determinism witness: a fixed-seed job yields the same value
	// alone or alongside 15 concurrent jobs.
	ResultDigest string `json:"result_digest"`
	// StateDigest is core.StateDigest over the final architectural
	// state of the job's simulator instance.
	StateDigest string `json:"state_digest"`
	// IdleCyclesSkipped and Wakeups report the event-wheel idle-skip
	// activity of the run: cycles bulk-advanced past because no packet
	// could progress, and the number of bulk advances taken. They are
	// observability counters, deliberately excluded from ResultDigest:
	// a walked run and a skipping run of the same spec differ only
	// here. Zero (and omitted) on fully walked runs.
	IdleCyclesSkipped uint64 `json:"idle_cycles_skipped,omitempty"`
	Wakeups           uint64 `json:"wakeups,omitempty"`
	// SpecKey is the 128-bit content key of the job's canonicalized
	// spec (32 hex digits): the identity the result cache indexes by.
	// Present when the serving manager runs with a result cache; absent
	// from offline executions (hmcsim-table1 -json) and cache-disabled
	// services, keeping their payloads byte-identical to earlier
	// releases.
	SpecKey string `json:"spec_key,omitempty"`
	// Cache is the result's provenance: "" for a cold simulation,
	// "hit" when the result was served from the content-addressed
	// cache without simulating, "coalesced" when this job attached as a
	// singleflight follower to an identical in-flight job and shares
	// its result, and "verified" when the submission hit the cache but
	// was re-executed by -cache-verify sampling (and its digests
	// matched the cached entry). Digest fields are byte-identical
	// across all four provenances for one spec — that is the cache's
	// contract.
	Cache string `json:"cache,omitempty"`
	// Fig5 is the optional per-interval series
	// (SubmitRequest.Fig5Interval).
	Fig5 []stats.Sample `json:"fig5,omitempty"`
	// Fabric is the multi-cube breakdown of a fabric job
	// (SubmitRequest.Fabric); absent for single-cube jobs.
	Fabric *FabricResult `json:"fabric,omitempty"`
}

// FabricResult is the fabric block of a multi-cube job's result: system
// totals, the remote-traffic latency moments and the per-cube and
// per-link breakdowns.
type FabricResult struct {
	// Topology is the effective system-graph kind ("mesh", "torus",
	// "ring", "chain" or "custom").
	Topology string `json:"topology"`
	// Cubes is the cube count.
	Cubes int `json:"cubes"`
	// Hops counts inter-cube link crossings: request forwards plus
	// response relays.
	Hops uint64 `json:"hops"`
	// IntercubePackets counts request packets serviced by a cube other
	// than the injection cube.
	IntercubePackets uint64 `json:"intercube_packets"`
	// RemoteCompleted and the RemoteLatency moments summarize the
	// round-trip distribution of requests that targeted a remote cube,
	// in cycles.
	RemoteCompleted   uint64  `json:"remote_completed"`
	RemoteLatencyMean float64 `json:"remote_latency_mean"`
	RemoteLatencyP95  uint64  `json:"remote_latency_p95"`
	RemoteLatencyMax  uint64  `json:"remote_latency_max"`
	// PerCube is the per-cube traffic breakdown, indexed by cube ID.
	PerCube []CubeResult `json:"per_cube"`
	// Links is the per-cable FLIT census, each cable once.
	Links []FabricLink `json:"links,omitempty"`
	// FabricDigest is the fabric-wide traffic digest (fixed-width hex),
	// bit-identical across checkpoint/resume.
	FabricDigest string `json:"fabric_digest"`
}

// CubeResult is one cube's traffic counters (core.CubeStats plus the
// cube ID).
type CubeResult struct {
	Cube       int    `json:"cube"`
	Delivered  uint64 `json:"delivered"`
	Reads      uint64 `json:"reads"`
	Writes     uint64 `json:"writes"`
	Atomics    uint64 `json:"atomics,omitempty"`
	Modes      uint64 `json:"modes,omitempty"`
	Responses  uint64 `json:"responses"`
	ReqRelayed uint64 `json:"req_relayed"`
	RspRelayed uint64 `json:"rsp_relayed"`
}

// FabricLink is one inter-cube cable's FLIT census. FlitsAB counts FLITs
// flowing from cube A toward cube B.
type FabricLink struct {
	A       int    `json:"a"`
	ALink   int    `json:"a_link"`
	B       int    `json:"b"`
	BLink   int    `json:"b_link"`
	FlitsAB uint64 `json:"flits_ab"`
	FlitsBA uint64 `json:"flits_ba"`
}

// Progress is the live view of a running job, sampled from the lock-free
// probe the engine's clock loop updates. It is a point-in-time reading:
// Cycles, Sent and Completed advance monotonically between polls of the
// same running job; the rate and ETA derivations are computed against
// the server's wall clock at render time.
type Progress struct {
	// Cycles is the simulated clock of the job's engine.
	Cycles uint64 `json:"cycles"`
	// Sent and Completed count injected requests and correlated
	// responses so far.
	Sent      uint64 `json:"sent"`
	Completed uint64 `json:"completed"`
	// Requests is the job's total request target (the denominator of
	// Percent).
	Requests uint64 `json:"requests"`
	// Percent is injection progress, 100*Sent/Requests in [0,100].
	Percent float64 `json:"percent"`
	// ElapsedSeconds is wall-clock runtime since the job started.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// CyclesPerSecond is the observed simulation rate.
	CyclesPerSecond float64 `json:"cycles_per_second"`
	// ETASeconds estimates the remaining wall-clock runtime from the
	// observed injection rate; zero while no rate is observable.
	ETASeconds float64 `json:"eta_seconds"`
	// IdleCyclesSkipped and Wakeups mirror the engine's idle-skip
	// counters so far; zero (and omitted) while the run is walking
	// every cycle.
	IdleCyclesSkipped uint64 `json:"idle_cycles_skipped,omitempty"`
	Wakeups           uint64 `json:"wakeups,omitempty"`
}

// JobStatus is the externally visible view of a job, returned by the
// status and list endpoints. Result is present only in StateDone;
// Progress only in StateRunning.
type JobStatus struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Tenant is the authenticated tenant the job was submitted under;
	// absent for jobs of the anonymous tenant, so pre-tenancy payloads
	// are byte-identical.
	Tenant    string        `json:"tenant,omitempty"`
	State     State         `json:"state"`
	Error     string        `json:"error,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Spec      SubmitRequest `json:"spec"`
	// Attempt counts execution attempts so far; values past 1 indicate
	// the job was retried after a transient failure or recovered after a
	// restart.
	Attempt  int       `json:"attempt,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
	Result   *Result   `json:"result,omitempty"`
}

// Machine-readable error codes carried in the Error envelope.
const (
	// CodeInvalidSpec rejects a malformed body or invalid SubmitRequest
	// (HTTP 400).
	CodeInvalidSpec = "invalid_spec"
	// CodeUnknownField rejects a submission whose JSON body carries a
	// field the v1 schema does not define (HTTP 400). Distinguished
	// from CodeInvalidSpec so clients can tell a typo'd field name —
	// which older, lenient servers would have silently ignored — from a
	// value that failed validation.
	CodeUnknownField = "unknown_field"
	// CodeUnknownJob reports a job ID with no record (HTTP 404).
	CodeUnknownJob = "unknown_job"
	// CodeJobFinished rejects cancellation of a job already in a
	// terminal state (HTTP 409).
	CodeJobFinished = "job_finished"
	// CodeQueueFull is the backpressure signal: the bounded queue has no
	// free slot (HTTP 429 with Retry-After).
	CodeQueueFull = "queue_full"
	// CodeShuttingDown rejects submissions after graceful shutdown has
	// begun (HTTP 503).
	CodeShuttingDown = "shutting_down"
	// CodeRecovering rejects submissions while the service is replaying
	// its journal after a restart (HTTP 503 with Retry-After).
	CodeRecovering = "recovering"
	// CodeQuotaExceeded rejects a submission that would push its tenant
	// past a per-tenant quota — max queued or max running jobs (HTTP 429
	// with Retry-After). Distinguished from CodeQueueFull so a client
	// can tell "the service is saturated" from "my tenant is".
	CodeQuotaExceeded = "quota_exceeded"
	// CodeUnauthorized rejects a request whose Authorization header
	// carries a key no configured tenant owns, or is malformed (HTTP
	// 401). Requests without the header run as the anonymous tenant and
	// never see this code.
	CodeUnauthorized = "unauthorized"
	// CodeBadRequest rejects a request whose query parameters do not
	// parse — a non-numeric ?limit=, an out-of-range ?interval_ms=
	// (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeJobFailed and CodeJobCancelled are the terminal "error" event
	// codes of the SSE stream: the followed job settled failed or
	// cancelled (the envelope's message carries the job's error text).
	CodeJobFailed    = "job_failed"
	CodeJobCancelled = "job_cancelled"
	// CodeInternal is an unexpected server-side failure (HTTP 500).
	CodeInternal = "internal"
)

// SSE event names of the GET /v1/jobs/{id}/events stream. Each event's
// data line is a single-line JSON document: a Progress snapshot for
// EventProgress, a Result for EventResult, an Error envelope for
// EventError. A stream carries zero or more progress events followed by
// exactly one terminal event (result or error).
const (
	EventProgress = "progress"
	EventResult   = "result"
	EventError    = "error"
)

// Error is the JSON error envelope of every non-2xx response. Message
// keeps the legacy "error" JSON key so pre-versioning clients that only
// read that field keep working; Code is the machine-readable
// discriminator new clients should switch on.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"error"`
}

// Error implements the error interface.
func (e Error) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return e.Code + ": " + e.Message
}
