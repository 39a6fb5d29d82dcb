package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hmcsim/internal/host"
	"hmcsim/internal/obs"
	"hmcsim/internal/server/api"
	"hmcsim/internal/server/cache"
	"hmcsim/internal/store"
)

// Submission and lifecycle errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is the backpressure signal: the bounded queue has no
	// free slot. The HTTP layer renders it as 429 Too Many Requests;
	// clients should retry after draining completes.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrShuttingDown rejects submissions after Shutdown has begun
	// (503 Service Unavailable).
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrRecovering rejects submissions while the jobs recovered from the
	// journal after a restart still hold the queue past its bound (503
	// with Retry-After).
	ErrRecovering = errors.New("server: recovering journal")
	// ErrUnknownJob reports a job ID with no record (404 Not Found).
	ErrUnknownJob = errors.New("server: unknown job")
	// ErrJobFinished rejects cancellation of a job already in a
	// terminal state (409 Conflict).
	ErrJobFinished = errors.New("server: job already finished")
	// ErrQuotaExceeded rejects a submission that would push its tenant
	// past a per-tenant quota (429 Too Many Requests with the
	// quota_exceeded code, distinguishing "your tenant is saturated"
	// from the service-wide ErrQueueFull).
	ErrQuotaExceeded = errors.New("server: tenant quota exceeded")
)

// ManagerConfig sizes a Manager.
type ManagerConfig struct {
	// Workers is the worker-pool size: the number of simulator
	// instances that run concurrently. Zero selects 4.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker;
	// submissions beyond the bound are rejected with ErrQueueFull. The
	// bound gates intake only: jobs already accepted (expired retries,
	// promoted followers, the recovered backlog) always re-enter the
	// queue, so it may briefly hold more. Zero selects 64.
	QueueDepth int
	// DefaultTimeout bounds a job's wall-clock runtime when its spec
	// does not name one. Zero selects 5 minutes.
	DefaultTimeout time.Duration

	// Store, when non-nil, makes the manager crash-safe: every job
	// state transition is journaled (and synced) before it is
	// acknowledged, results and periodic checkpoints are persisted, and
	// a manager reopened over the same store replays the journal —
	// finished jobs reload their results, interrupted jobs requeue and
	// resume from their last checkpoint (DESIGN.md §12).
	Store *store.Store
	// CheckpointEvery is the periodic checkpoint interval in simulated
	// cycles for store-backed managers. Zero selects 1<<19.
	CheckpointEvery uint64
	// MaxAttempts bounds execution attempts per job: a transient
	// failure requeues the job (with backoff) while attempts remain.
	// Zero selects 3.
	MaxAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the exponential backoff
	// between attempts. Zero selects 250ms and 10s.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// CacheBytes bounds the in-memory content-addressed result cache. A
	// submission whose canonical spec key matches a cached result
	// completes immediately with provenance "hit"; one matching a running
	// job attaches to it and is served its result ("coalesced"). Zero
	// disables caching and coalescing entirely — every submission runs.
	CacheBytes int64
	// CacheVerify is the fraction of cache hits re-executed to revalidate
	// the determinism contract (DESIGN.md §15). Sampling is deterministic
	// — every round(1/fraction)-th hit reruns — and a digest mismatch
	// evicts the entry and fails the sampled job loudly. Zero never
	// verifies; >= 1 reruns every hit.
	CacheVerify float64

	// Tenants is the multi-tenant roster: API keys, per-tenant quotas
	// and fair-share weights (DESIGN.md §16). Empty runs the service
	// exactly as before tenancy: every submission is the anonymous
	// tenant with no quotas. The roster must pass ValidateTenants.
	Tenants []TenantConfig

	// runFn substitutes the job executor, for tests exercising panic
	// recovery, retry and scheduling without paying for real
	// simulations. Nil runs each job on its worker's own engine set.
	runFn func(context.Context, JobSpec, ExecOptions) (Result, error)
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1 << 19
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 250 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 10 * time.Second
	}
	return c
}

// Manager owns the job table, the bounded queue and the worker pool.
// Every worker runs at most one job at a time on its own simulator
// instance; the manager itself never touches simulation state.
type Manager struct {
	cfg   ManagerConfig
	start time.Time
	store *store.Store

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// suspend flips during store-backed shutdown: running jobs take a
	// final checkpoint and stop, queued jobs are left for the next
	// process. Atomic because the per-cycle interrupt hook reads it.
	suspend atomic.Bool

	mu         sync.Mutex
	jobs       map[string]*job
	order      []*job // every job in number order, for stable listings
	idem       map[string]string
	seq        int // number of the last job issued
	closed     bool
	recovering bool

	// fq is the multi-tenant dispatch queue between Submit and the
	// worker pool: per-tenant FIFO lanes drained by deficit round-robin
	// so one tenant's burst cannot starve the others (DESIGN.md §16).
	// It replaced the single FIFO channel. Guarded by mu, like the job
	// table.
	fq *fairQueue

	// Tenant roster, immutable after NewManager: config by internal
	// name ("" is the anonymous tenant) and API key -> name resolution
	// for the HTTP layer.
	tenantCfg  map[string]TenantConfig
	tenantKeys map[string]string

	// retryTimers tracks the pending backoff timer of every job waiting
	// between attempts, keyed by job ID (at most one per job). A job is
	// parked exactly while it has an entry here, and its tenant's lane
	// counts it as parked. Shutdown ends every backoff early instead of
	// leaving jobs parked behind timers that fire into a closed manager.
	// Guarded by mu.
	retryTimers map[string]*time.Timer

	// workersDone closes once the worker pool has fully exited during
	// Shutdown; Shutdown waits on it, and SSE streams select on it so a
	// drain that cannot finish a followed job (store-backed suspend)
	// still terminates its streams.
	workersDone chan struct{}

	// Content-addressed result cache and singleflight table (DESIGN.md
	// §15). cache is always non-nil (a zero budget stores nothing);
	// inflight maps each content key to the job currently computing it,
	// so identical concurrent submits attach as followers instead of
	// re-running. hitSeq counts cache hits and drives the deterministic
	// verify sampling: every verifyEvery-th hit reruns instead of being
	// served. All guarded by mu except cache, which locks itself.
	cache       *cache.LRU
	inflight    map[cache.Key]*job
	hitSeq      uint64
	verifyEvery int

	// Counters and histograms, exposed through the obs registry on
	// /v1/metrics. activeWorkers stays a plain atomic because it is a
	// level, not a monotone count.
	submitted     *obs.Counter
	completed     *obs.Counter
	failed        *obs.Counter
	cancelledN    *obs.Counter
	rejected      *obs.Counter
	panics        *obs.Counter
	cycles        *obs.Counter // simulated cycles, completed jobs
	requests      *obs.Counter // injected requests, completed jobs
	idleSkipped   *obs.Counter // idle cycles bulk-skipped, completed jobs
	recovered     *obs.Counter // jobs requeued from the journal at startup
	resumed       *obs.Counter // runs continued from a persisted checkpoint
	retries       *obs.Counter // transient failures requeued with backoff
	checkpoints   *obs.Counter // persisted checkpoints
	fabricCubes   *obs.Counter // cubes simulated, completed fabric jobs
	fabricHops    *obs.Counter // inter-cube link crossings, completed fabric jobs
	fabricPackets *obs.Counter // requests serviced off their injection cube
	cacheHits     *obs.Counter // submissions served from the result cache
	cacheMisses   *obs.Counter // cache lookups that found nothing
	cacheEvict    *obs.Counter // results evicted under byte-budget pressure
	coalesced     *obs.Counter // submissions served by an in-flight leader
	verifyFails   *obs.Counter // sampled hits whose re-run digest mismatched
	quotaRejected *obs.Counter // submissions rejected by a per-tenant quota
	activeWorkers atomic.Int64

	// tenantSubmitted is the per-tenant accepted-submission counter,
	// keyed by internal tenant name; series are registered up front from
	// the (immutable) roster as tenant_jobs_submitted_<name>.
	tenantSubmitted map[string]*obs.Counter
	// sseActive is the live count of open SSE event streams, exposed as
	// the sse_streams_active gauge.
	sseActive atomic.Int64

	// service and queueWait are the per-job wall-clock distributions:
	// run duration of every settled job, and time spent queued before a
	// worker picked it up. service also feeds the Retry-After estimate.
	// checkpointH times checkpoint persistence (serialize + fsync).
	// fabricLat distributes the mean remote-request round trip of each
	// completed fabric job, in simulated cycles.
	// cacheLookup times the key hash + LRU probe on the submit path —
	// the latency the cache adds to every submission when enabled.
	service     *obs.Histogram
	queueWait   *obs.Histogram
	checkpointH *obs.Histogram
	fabricLat   *obs.Histogram
	cacheLookup *obs.Histogram

	reg *obs.Registry
}

// fabricLatBuckets is the bucket layout for inter-cube round-trip
// latencies in simulated cycles: tens of cycles (local-ish) through
// thousands (deep fabrics under heavy link latency).
var fabricLatBuckets = []float64{
	16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
}

// NewManager starts a manager and its worker pool. With a store
// configured, the journal is replayed before the pool starts: finished
// jobs reappear with their results, interrupted jobs are readmitted to
// the queue (the manager reports Recovering, and rejects submissions
// with ErrRecovering, until that backlog first fits the queue bound).
func NewManager(cfg ManagerConfig) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:         cfg,
		start:       time.Now(),
		store:       cfg.Store,
		baseCtx:     ctx,
		baseCancel:  cancel,
		jobs:        make(map[string]*job),
		idem:        make(map[string]string),
		cache:       cache.NewLRU(cfg.CacheBytes),
		inflight:    make(map[cache.Key]*job),
		tenantCfg:   make(map[string]TenantConfig),
		tenantKeys:  make(map[string]string),
		retryTimers: make(map[string]*time.Timer),
		workersDone: make(chan struct{}),
	}
	m.fq = newFairQueue(&m.mu)
	for _, t := range cfg.Tenants {
		name := t.internalName()
		m.tenantCfg[name] = t
		if t.Key != "" {
			m.tenantKeys[t.Key] = name
		}
		m.fq.configureTenant(name, t.Weight, t.MaxRunning)
	}
	if cfg.CacheVerify > 0 {
		m.verifyEvery = int(math.Round(1 / cfg.CacheVerify))
		if m.verifyEvery < 1 {
			m.verifyEvery = 1
		}
	}
	m.initMetrics()
	if m.store != nil {
		m.recoverFromJournal()
	}
	m.recovering = m.fq.Len() > cfg.QueueDepth
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer wg.Done()
			m.worker()
		}()
	}
	go func() {
		wg.Wait()
		close(m.workersDone)
	}()
	return m
}

// initMetrics builds the obs registry served by /v1/metrics. The
// registry is per-manager (nothing is published to a global namespace)
// so tests and embedders can run many managers in one process. The
// scalar keys and their JSON rendering are byte-compatible with the
// expvar map this replaced; the *_seconds histograms are new.
func (m *Manager) initMetrics() {
	r := obs.NewRegistry("hmcsim")
	m.reg = r
	m.submitted = r.Counter("jobs_submitted", "Jobs accepted into the queue.")
	m.completed = r.Counter("jobs_completed", "Jobs that finished successfully.")
	m.failed = r.Counter("jobs_failed", "Jobs that failed (timeouts, simulation errors, panics).")
	m.cancelledN = r.Counter("jobs_cancelled", "Jobs cancelled while queued or running.")
	m.rejected = r.Counter("jobs_rejected", "Submissions rejected by queue backpressure.")
	m.panics = r.Counter("job_panics", "Jobs that panicked and were settled as failed.")
	m.cycles = r.Counter("cycles_simulated", "Simulated clock cycles across completed jobs.")
	m.requests = r.Counter("requests_simulated", "Injected requests across completed jobs.")
	m.idleSkipped = r.Counter("idle_cycles_skipped_total", "Idle cycles bulk-advanced past by the event wheel across completed jobs.")
	m.recovered = r.Counter("jobs_recovered", "Jobs requeued from the journal at startup.")
	m.resumed = r.Counter("jobs_resumed", "Runs continued from a persisted checkpoint.")
	m.retries = r.Counter("job_retries", "Transient job failures requeued with backoff.")
	m.checkpoints = r.Counter("checkpoints_taken", "Checkpoints persisted to the store.")
	m.fabricCubes = r.Counter("fabric_cubes", "Cubes simulated across completed fabric jobs.")
	m.fabricHops = r.Counter("fabric_hops_total", "Inter-cube link crossings across completed fabric jobs.")
	m.fabricPackets = r.Counter("fabric_intercube_packets_total", "Request packets serviced off their injection cube across completed fabric jobs.")
	m.cacheHits = r.Counter("cache_hits", "Submissions served immediately from the content-addressed result cache.")
	m.cacheMisses = r.Counter("cache_misses", "Result-cache lookups that found no entry.")
	m.cacheEvict = r.Counter("cache_evictions", "Cached results evicted under byte-budget pressure.")
	m.coalesced = r.Counter("coalesced_jobs", "Submissions served by attaching to an identical in-flight job.")
	m.verifyFails = r.Counter("cache_verify_failures", "Sampled cache hits whose re-execution digest mismatched the cached result.")
	m.quotaRejected = r.Counter("jobs_quota_rejected", "Submissions rejected by a per-tenant quota.")
	// Per-tenant accepted-submission counters are registered up front from
	// the immutable roster (the obs registry rejects registration racing
	// concurrent collection); the anonymous tenant always has a series.
	m.tenantSubmitted = make(map[string]*obs.Counter)
	m.tenantSubmitted[""] = r.Counter("tenant_jobs_submitted_"+AnonymousTenant,
		"Jobs accepted for the anonymous tenant.")
	for name := range m.tenantCfg {
		if name == "" {
			continue
		}
		m.tenantSubmitted[name] = r.Counter("tenant_jobs_submitted_"+metricTenant(name),
			fmt.Sprintf("Jobs accepted for tenant %s.", name))
	}
	r.GaugeInt("sse_streams_active", "Open /v1/jobs/{id}/events streams.", m.sseActive.Load)
	r.GaugeInt("cache_bytes", "Accounted size of all cached results.", m.cache.Bytes)
	r.GaugeInt("cache_entries", "Results held in the cache.", func() int64 { return int64(m.cache.Len()) })
	r.GaugeInt("workers", "Worker pool size.", func() int64 { return int64(m.cfg.Workers) })
	r.GaugeInt("active_workers", "Workers currently running a job.", m.activeWorkers.Load)
	r.GaugeInt("queue_depth", "Jobs waiting for a worker.", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.fq.Len())
	})
	r.GaugeInt("queue_capacity", "Bound of the job queue.", func() int64 { return int64(m.cfg.QueueDepth) })
	r.GaugeFloat("uptime_seconds", "Seconds since the manager started.", func() float64 {
		return time.Since(m.start).Seconds()
	})
	r.GaugeFloat("cycles_per_second", "Simulated cycles per wall-clock second since start.", func() float64 {
		s := time.Since(m.start).Seconds()
		if s <= 0 {
			return 0.0
		}
		return float64(m.cycles.Value()) / s
	})
	m.service = r.Histogram("job_service_seconds",
		"Wall-clock run duration of settled jobs.", obs.DefBuckets)
	m.queueWait = r.Histogram("job_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", obs.DefBuckets)
	m.checkpointH = r.Histogram("job_checkpoint_seconds",
		"Wall-clock cost of persisting one checkpoint (serialize + sync).", obs.DefBuckets)
	m.fabricLat = r.Histogram("fabric_intercube_latency_cycles",
		"Mean remote-request round trip per completed fabric job, in simulated cycles.", fabricLatBuckets)
	m.cacheLookup = r.Histogram("cache_lookup_seconds",
		"Submit-path cost of hashing the canonical spec and probing the cache.", obs.DefBuckets)
}

// Metrics returns the manager's metric registry, the payload of
// /v1/metrics in both its JSON and Prometheus renderings.
func (m *Manager) Metrics() *obs.Registry { return m.reg }

// maxRetryAfter caps the Retry-After estimate; past a minute the client
// should poll health rather than hold a precise timer.
const maxRetryAfter = 60

// fallbackServiceSeconds stands in for the mean job service time before
// any job has settled. One second per queued job keeps the estimate
// scaling with occupancy instead of collapsing to the minimum.
const fallbackServiceSeconds = 1.0

// retryAfterSeconds estimates how long a backpressured client should
// wait before resubmitting: the expected time for the queue to drain one
// slot, i.e. mean job service time scaled by queue occupancy over the
// worker count, clamped to [1, maxRetryAfter] whole seconds. With no
// observed service times yet a conservative per-queued-job default
// substitutes for the mean, so a cold server with a deep queue no longer
// tells every rejected client "retry in 1 second" — an estimate that
// used to synchronize the whole client population into a retry
// stampede against a still-full queue.
func retryAfterSeconds(queued, workers int, meanService float64) int {
	if meanService <= 0 {
		meanService = fallbackServiceSeconds
	}
	if workers < 1 {
		workers = 1
	}
	eta := meanService * (float64(queued) + 1) / float64(workers)
	secs := int(math.Ceil(eta))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfter {
		secs = maxRetryAfter
	}
	return secs
}

// RetryAfter returns the current Retry-After estimate in seconds for a
// 429 response, derived from live queue occupancy and the observed mean
// job service time.
func (m *Manager) RetryAfter() int {
	m.mu.Lock()
	queued := m.fq.Len()
	m.mu.Unlock()
	return retryAfterSeconds(queued, m.cfg.Workers, m.service.Mean())
}

// Submit validates spec and enqueues a job, returning its initial
// status. It never blocks: a full queue returns ErrQueueFull
// immediately (explicit backpressure), a closed manager
// ErrShuttingDown, a recovering one ErrRecovering.
func (m *Manager) Submit(spec JobSpec) (Status, error) {
	st, _, err := m.SubmitTenant(spec, "")
	return st, err
}

// SubmitTenant is Submit on behalf of an authenticated tenant (internal
// name; "" is the anonymous tenant), with idempotency-key resolution
// surfaced: created is false when the spec's key matched an existing job
// and that job's status was returned instead of creating a new one. The
// tenant's MaxQueued quota is checked against its own lane plus its
// retry-parked jobs — but only for submissions that would occupy a queue
// slot: cache hits and coalesced followers never count against it,
// mirroring the service-wide capacity check.
func (m *Manager) SubmitTenant(spec JobSpec, tenant string) (st Status, created bool, err error) {
	if err := spec.Validate(); err != nil {
		return Status{}, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Status{}, false, ErrShuttingDown
	}
	if m.recoveringLocked() {
		return Status{}, false, ErrRecovering
	}
	if spec.IdempotencyKey != "" {
		if id, ok := m.idem[spec.IdempotencyKey]; ok {
			return m.jobs[id].status(), false, nil
		}
	}

	// Content-addressed lookup: a cached result serves the submission
	// without a simulation (occasionally rerun for verification); an
	// identical in-flight job absorbs it as a follower. Neither path
	// consumes a queue slot, so the capacity check only gates jobs that
	// will actually run.
	var (
		key       cache.Key
		cachedRes *Result
		leader    *job
		verify    bool
	)
	if m.cfg.CacheBytes > 0 {
		t0 := time.Now()
		key = cache.JobKey(spec)
		if r, ok := m.cache.Get(key); ok {
			m.cacheHits.Add(1)
			m.hitSeq++
			if m.verifyEvery > 0 && m.hitSeq%uint64(m.verifyEvery) == 0 {
				verify = true
			} else {
				cachedRes = r
			}
		} else {
			m.cacheMisses.Add(1)
			leader = m.inflight[key]
		}
		m.cacheLookup.Observe(time.Since(t0).Seconds())
	}
	if cachedRes == nil && leader == nil {
		if m.fq.Len() >= m.cfg.QueueDepth {
			m.rejected.Add(1)
			return Status{}, false, ErrQueueFull
		}
		// The quota charges both lane occupancy and jobs parked on retry
		// backoff: a parked job holds no lane slot yet will re-enter the
		// queue, so skipping it would let a transiently failing tenant
		// hold max_queued slots plus unbounded parked retries.
		if tc, ok := m.tenantCfg[tenant]; ok && tc.MaxQueued > 0 {
			if pending := m.fq.pending(tenant); pending >= tc.MaxQueued {
				m.quotaRejected.Add(1)
				return Status{}, false, fmt.Errorf("%w: %d jobs queued or awaiting retry (max %d)",
					ErrQuotaExceeded, pending, tc.MaxQueued)
			}
		}
	}
	m.seq++
	j := &job{
		seq:       m.seq,
		id:        jobID(m.seq),
		spec:      spec,
		tenant:    tenant,
		submitted: time.Now(),
		state:     state{phase: StateQueued},
		specKey:   key,
		verify:    verify,
	}
	if m.store != nil {
		// Journal — and sync — before acknowledging: an accepted job
		// survives a crash of the process.
		specJSON, jerr := json.Marshal(spec)
		if jerr == nil {
			jerr = m.store.Append(store.Record{
				Type: store.RecSubmitted, Job: j.id, Time: j.submitted,
				Key: spec.IdempotencyKey, Tenant: tenant, Spec: specJSON,
			})
		}
		if jerr != nil {
			m.seq-- // the unjournaled job never existed
			return Status{}, false, fmt.Errorf("server: journaling submission: %w", jerr)
		}
	}
	switch {
	case cachedRes != nil:
		// Cache hit: the job is born done, carrying a provenance-stamped
		// copy of the shared cached result.
		r := *cachedRes
		r.SpecKey = key.String()
		r.Cache = api.CacheHit
		m.finishLocked(j, StateDone, &r, nil)
	case leader != nil:
		// Singleflight: attach to the running leader; its settle
		// delivers the shared result to every live follower.
		j.leader = leader
		leader.followers = append(leader.followers, j)
	default:
		if m.cfg.CacheBytes > 0 {
			if _, busy := m.inflight[key]; !busy {
				m.inflight[key] = j
			}
		}
		m.fq.add(j)
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	if spec.IdempotencyKey != "" {
		m.idem[spec.IdempotencyKey] = j.id
	}
	m.submitted.Add(1)
	if c, ok := m.tenantSubmitted[tenant]; ok {
		c.Add(1)
	}
	return j.status(), true, nil
}

// Get returns the status of one job, across all tenants. It is the
// embedder's (and the manager's own) unscoped view; the HTTP layer uses
// GetTenant so one tenant cannot read another's jobs.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.status(), nil
}

// GetTenant is Get through one tenant's view: a job owned by a
// different tenant reads as ErrUnknownJob, indistinguishable from an
// absent ID — job IDs are sequential and trivially guessable, so
// existence must not leak across tenants.
func (m *Manager) GetTenant(id, tenant string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || j.tenant != tenant {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.status(), nil
}

// List returns every job's status in submission order, across all
// tenants (the unscoped embedder's view, like Get).
func (m *Manager) List() []Status {
	out, _ := m.ListPage("", 0)
	return out
}

// Paging bounds for ListPage: the default page size when the client
// names none, and the hard ceiling on what it may ask for.
const (
	defaultListLimit = 256
	maxListLimit     = 1024
)

// ListPage returns up to limit job statuses submitted strictly after the
// job `after` names, in submission order, plus the ID to pass as the
// next page's cursor ("" when this page is the last). An `after` that
// is not a job ID yields an empty page. limit <= 0 selects the whole
// table in one page — the pre-paging behavior List still exposes.
//
// The critical section is deliberately short: only the page actually
// returned is serialized under the lock. The full-table snapshot this
// replaced held m.mu for O(all jobs) on every GET /v1/jobs, stalling
// submissions and settles on a busy server whenever anything polled the
// listing.
func (m *Manager) ListPage(after string, limit int) (page []Status, nextAfter string) {
	return m.listPage(after, limit, nil)
}

// ListPageTenant is ListPage through one tenant's view: only jobs the
// tenant owns appear, while the cursor walks the same global order —
// a page cursor from one tenant's listing is meaningless (but harmless)
// under another's.
func (m *Manager) ListPageTenant(tenant, after string, limit int) (page []Status, nextAfter string) {
	return m.listPage(after, limit, &tenant)
}

// listPage pages the job table, optionally filtered to one owning
// tenant. The critical section stays deliberately short: the scan
// compares tenant strings, and only jobs actually returned are rendered
// under the lock.
func (m *Manager) listPage(after string, limit int, owner *string) (page []Status, nextAfter string) {
	if limit > maxListLimit {
		limit = maxListLimit
	}
	page = []Status{} // never nil: an empty page serializes as []
	n := 0
	if after != "" {
		var ok bool
		if n, ok = parseJobID(after); !ok {
			return page, ""
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	lo := sort.Search(len(m.order), func(i int) bool { return m.order[i].seq > n })
	for _, j := range m.order[lo:] {
		if owner != nil && j.tenant != *owner {
			continue
		}
		if limit > 0 && len(page) == limit {
			// One more match exists past the page: hand out a cursor.
			nextAfter = page[len(page)-1].ID
			break
		}
		page = append(page, j.status())
	}
	return page, nextAfter
}

// Cancel requests cancellation of a job. A queued job moves straight to
// cancelled; a running job has its context cancelled and reaches the
// cancelled state when its worker observes the interrupt. Cancelling a
// finished job returns ErrJobFinished. Cancel is the unscoped
// embedder's view; the HTTP layer uses CancelTenant.
func (m *Manager) Cancel(id string) (Status, error) {
	return m.cancel(id, nil)
}

// CancelTenant is Cancel through one tenant's view: a job owned by a
// different tenant reads as ErrUnknownJob (like GetTenant), so one
// tenant can neither probe for nor kill another's jobs to free queue
// capacity for itself.
func (m *Manager) CancelTenant(id, tenant string) (Status, error) {
	return m.cancel(id, &tenant)
}

func (m *Manager) cancel(id string, owner *string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || (owner != nil && j.tenant != *owner) {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch j.state.phase {
	case StateQueued:
		j.cancelled = true
		// Take the job out of its lane, freeing the queue slot and the
		// tenant's quota headroom: no worker can pop it past this point.
		// Retry-parked and follower jobs are not in the queue; remove is
		// a no-op for them. A pending backoff timer is stopped the same
		// way.
		m.fq.remove(j)
		m.unparkRetryLocked(j)
		m.finishLocked(j, StateCancelled, nil, nil)
	case StateRunning:
		j.cancelled = true
		if j.state.cancel != nil {
			j.state.cancel()
		}
	default:
		return j.status(), fmt.Errorf("%w: %s is %s", ErrJobFinished, id, j.state.phase)
	}
	return j.status(), nil
}

// journal appends rec (stamped with the current time) when a store is
// configured. Journal append failures on settle paths are swallowed: the
// in-memory settle must proceed — the cost is a conservative journal
// that reruns the job after a restart, never a lost acknowledgment.
func (m *Manager) journal(rec store.Record) {
	if m.store == nil {
		return
	}
	rec.Time = time.Now()
	_ = m.store.Append(rec)
}

// worker is the pool loop: pop, run, settle, repeat until the queue is
// closed and drained. It holds m.mu except while it waits in pop and
// while an attempt runs, so popping a job and starting it is one
// critical section, and so are settling it, releasing the running slot
// pop charged to its tenant and popping the next. The slot is released
// for a skipped job too, or the lane would leak quota and eventually
// starve. The worker owns the engines it keeps between jobs: es is never
// shared with another goroutine.
func (m *Manager) worker() {
	var es engineSet
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		j, ok := m.fq.pop()
		if !ok {
			return
		}
		// Store-backed shutdown leaves the job queued (and non-terminal
		// in the journal) for the next process to pick up.
		if !m.suspend.Load() {
			m.runLocked(&es, j)
		}
		m.fq.release(j.tenant)
	}
}

// runLocked starts one attempt of a just-popped job (queued → running),
// runs it on es and settles the outcome. Caller holds m.mu; runLocked
// releases it while the attempt runs and holds it again on return.
func (m *Manager) runLocked(es *engineSet, j *job) {
	j.attempt++
	attempt := j.attempt
	timeout := m.cfg.DefaultTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(m.baseCtx, timeout)
	probe := new(obs.Probe)
	j.state.phase = StateRunning
	j.state.started = time.Now()
	j.state.cancel = cancel
	j.state.probe = probe
	j.state.err = nil
	m.mu.Unlock()

	probe.Begin(j.spec.Requests, j.state.started)
	m.queueWait.Observe(j.state.started.Sub(j.submitted).Seconds())
	m.journal(store.Record{Type: store.RecStarted, Job: j.id, Attempt: attempt})

	eo := m.execOptions(j)
	m.activeWorkers.Add(1)
	res, err := m.safeRun(ctx, es, j.spec, eo)
	m.activeWorkers.Add(-1)
	cancel()

	m.mu.Lock()
	m.settleLocked(j, res, err)
}

// execOptions wires the durability hooks of one attempt: progress probe,
// periodic checkpointing, the suspend interrupt and checkpoint resume.
func (m *Manager) execOptions(j *job) ExecOptions {
	eo := ExecOptions{Probe: j.state.probe}
	if m.store == nil || j.spec.Fig5Interval > 0 {
		// Figure-5 jobs carry collector state outside the checkpoint;
		// they rerun from scratch after a crash instead of resuming.
		return eo
	}
	id := j.id
	eo.CheckpointEvery = m.cfg.CheckpointEvery
	eo.Checkpoint = func(ck *host.Checkpoint) error {
		t0 := time.Now()
		if err := m.store.SaveCheckpoint(id, ck); err != nil {
			return err
		}
		if err := m.store.Append(store.Record{
			Type: store.RecCheckpoint, Job: id, Time: time.Now(),
			Cycles: ck.Core.Snap.Cycles,
		}); err != nil {
			return err
		}
		m.checkpoints.Add(1)
		m.checkpointH.Observe(time.Since(t0).Seconds())
		return nil
	}
	eo.Interrupt = func() error {
		if m.suspend.Load() {
			return host.ErrSuspended
		}
		return nil
	}
	if m.store.HasCheckpoint(id) {
		ck := new(host.Checkpoint)
		if err := m.store.LoadCheckpoint(id, ck); err == nil {
			eo.Resume = ck
			m.resumed.Add(1)
		} else {
			// A checkpoint that fails CRC validation is dropped here;
			// the attempt runs from scratch.
			m.store.RemoveCheckpoint(id)
		}
	}
	return eo
}

// settleLocked records the outcome of one attempt: done, cancelled,
// suspended for the next process, requeued for retry, or failed for
// good. Caller holds m.mu.
func (m *Manager) settleLocked(j *job, res Result, err error) {
	j.state.cancel = nil
	j.state.probe = nil

	if errors.Is(err, host.ErrSuspended) && m.store != nil {
		// Graceful drain took the final checkpoint through the hook;
		// the job stays non-terminal in the journal and resumes on the
		// next boot. It also stays the singleflight leader.
		j.state.phase = StateQueued
		j.state.started = time.Time{}
		return
	}
	m.service.Observe(time.Since(j.state.started).Seconds())

	if err == nil && j.verify {
		// Sampled re-execution of a cache hit: the determinism contract
		// says the digests must agree. A mismatch means the cached entry
		// (or the engine) is wrong — evict it and fail this job loudly.
		if cached, ok := m.cache.Get(j.specKey); ok && cached.ResultDigest != res.ResultDigest {
			m.cache.Remove(j.specKey)
			m.verifyFails.Add(1)
			err = fmt.Errorf("server: cache verification failed for key %s: cached digest %s != re-run digest %s",
				j.specKey, cached.ResultDigest, res.ResultDigest)
		}
	}

	switch {
	case err == nil:
		m.cycles.Add(res.Cycles)
		m.requests.Add(res.Sent)
		m.idleSkipped.Add(res.IdleCyclesSkipped)
		if f := res.Fabric; f != nil {
			m.fabricCubes.Add(uint64(f.Cubes))
			m.fabricHops.Add(f.Hops)
			m.fabricPackets.Add(f.IntercubePackets)
			if f.RemoteCompleted > 0 {
				m.fabricLat.Observe(f.RemoteLatencyMean)
			}
		}
		if !j.specKey.IsZero() {
			res.SpecKey = j.specKey.String()
			if j.verify {
				res.Cache = api.CacheVerified
			}
			// Cache a pristine copy — provenance fields describe one
			// completion, not the content.
			cp := res
			cp.Cache = ""
			m.cacheEvict.Add(uint64(m.cache.Put(j.specKey, &cp, 0)))
		}
		m.finishLocked(j, StateDone, &res, nil)
	case j.cancelled:
		// Cancellation was requested and the attempt did not succeed,
		// whatever it failed with: requeueing a cancelled job would
		// strand it, since no queue path runs a cancelled job again.
		m.finishLocked(j, StateCancelled, nil, err)
	case errors.Is(err, ErrBadCheckpoint):
		// The persisted checkpoint would not restore. Drop it and retry
		// from cycle zero; the attempt still counts.
		if m.store != nil {
			m.store.RemoveCheckpoint(j.id)
		}
		m.requeueLocked(j, err)
	case IsTransient(err) && !m.closed:
		m.requeueLocked(j, err)
	default:
		// Timeouts, simulation errors and shutdown-forced aborts all
		// fail the job — never the process.
		m.finishLocked(j, StateFailed, nil, err)
	}
}

// finishLocked is the only writer of a terminal phase. It stamps
// finished and counts the job once: a coalesced follower under
// coalesced_jobs, not jobs_completed, so the reconciliation invariant
// submitted = completed + failed + cancelled + coalesced holds. A done
// job's result is persisted before done is journaled, so a replayed done
// record implies a loadable blob (the record carries the spec key, so
// replay rebuilds the cache index without re-hashing specs); if either
// write fails the journal stays conservative and the job reruns after a
// restart. A failure is journaled with the error text its status shows.
// Any checkpoint is dropped, and the job's singleflight group is
// settled. Caller holds m.mu.
func (m *Manager) finishLocked(j *job, phase State, res *Result, err error) {
	j.state.phase = phase
	j.state.result = res
	j.state.err = err
	j.state.finished = time.Now()
	switch {
	case phase == StateDone && res.Cache == api.CacheCoalesced:
		m.coalesced.Add(1)
	case phase == StateDone:
		m.completed.Add(1)
	case phase == StateFailed:
		m.failed.Add(1)
	default:
		m.cancelledN.Add(1)
	}
	if m.store != nil {
		switch phase {
		case StateDone:
			if serr := m.store.SaveResult(j.id, res); serr == nil {
				m.journal(store.Record{Type: store.RecDone, Job: j.id, SpecKey: res.SpecKey, Cache: res.Cache})
			}
		case StateFailed:
			m.journal(store.Record{Type: store.RecFailed, Job: j.id, Attempt: j.attempt, Error: err.Error()})
		default:
			m.journal(store.Record{Type: store.RecCancelled, Job: j.id})
		}
		m.store.RemoveCheckpoint(j.id)
	}
	m.detachLocked(j)
}

// requeueLocked is the only edge from running back to queued on a
// transient failure: it parks the job behind its backoff timer, or fails
// it when the attempt budget is spent. Parking clears the failed
// attempt's start stamp and counts the job as parked in its tenant's
// lane, so the MaxQueued quota keeps seeing it while it holds no lane
// slot. Caller holds m.mu.
func (m *Manager) requeueLocked(j *job, cause error) {
	if j.attempt >= m.cfg.MaxAttempts {
		m.finishLocked(j, StateFailed, nil, fmt.Errorf("server: %d attempts exhausted: %w", j.attempt, cause))
		return
	}
	m.journal(store.Record{
		Type: store.RecFailed, Job: j.id,
		Attempt: j.attempt, Error: cause.Error(), Transient: true,
	})
	j.state.phase = StateQueued
	j.state.started = time.Time{}
	j.state.err = cause
	m.retries.Add(1)
	m.fq.lane(j.tenant).parked++
	delay := retryDelay(m.cfg.RetryBaseDelay, m.cfg.RetryMaxDelay, j.attempt, j.id)
	m.retryTimers[j.id] = time.AfterFunc(delay, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.retryExpiredLocked(j)
	})
}

// unparkRetryLocked stops and forgets j's backoff timer and takes it off
// its lane's parked count, reporting whether j was parked. Idempotent: a
// job no longer parked refunds nothing, so a fired timer racing a Cancel
// or Shutdown cannot double-refund the quota. Caller holds m.mu.
func (m *Manager) unparkRetryLocked(j *job) bool {
	t, ok := m.retryTimers[j.id]
	if !ok {
		return false
	}
	t.Stop()
	delete(m.retryTimers, j.id)
	m.fq.lane(j.tenant).parked--
	return true
}

// retryExpiredLocked ends j's backoff: its own timer calls it, and
// Shutdown calls it early for every parked job. Whichever comes second
// finds the job unparked (as does a timer that lost to Cancel) and does
// nothing. Caller holds m.mu.
func (m *Manager) retryExpiredLocked(j *job) {
	if m.unparkRetryLocked(j) && !m.readmitLocked(j) && m.store == nil {
		m.finishLocked(j, StateFailed, nil, fmt.Errorf("%w: retry abandoned", ErrShuttingDown))
	}
}

// readmitLocked is the one path back into the fair queue for a job the
// manager already accepted: an expired retry, a promoted follower or a
// journal-recovered job. The queue's bound gates intake only, so
// readmission never fails or waits. It reports false once Shutdown has
// begun: the pool is draining, so the caller fails the job when nothing
// persists it, and a store-backed job stays non-terminal in the journal
// for the next process. Caller holds m.mu.
func (m *Manager) readmitLocked(j *job) bool {
	if m.closed {
		return false
	}
	m.fq.add(j)
	return true
}

// detachLocked settles j's singleflight group once j is terminal. A
// follower just drops out of its leader's group. A done leader serves
// each live follower its own provenance-stamped copy of the result; no
// simulation ran for them, so the per-run counters stay untouched. A
// leader that failed or was cancelled promotes its first live follower
// to a real queued job heading the rest (it needs no new journal record:
// every follower was journaled at submission), so coalescing never
// strands a submission behind a leader that produced no result. Caller
// holds m.mu.
func (m *Manager) detachLocked(j *job) {
	if j.specKey.IsZero() {
		return
	}
	if j.leader != nil {
		j.leader = nil
		return
	}
	if m.inflight[j.specKey] != j {
		return
	}
	delete(m.inflight, j.specKey)
	var live []*job
	for _, f := range j.followers {
		if f.state.phase == StateQueued && !f.cancelled {
			live = append(live, f)
		}
	}
	j.followers = nil
	if len(live) == 0 {
		return
	}
	if j.state.phase == StateDone {
		for _, f := range live {
			fr := *j.state.result
			fr.Cache = api.CacheCoalesced
			m.finishLocked(f, StateDone, &fr, nil)
		}
		return
	}
	next, rest := live[0], live[1:]
	next.leader = nil
	next.followers = rest
	for _, f := range rest {
		f.leader = next
	}
	m.inflight[j.specKey] = next
	if !m.readmitLocked(next) && m.store == nil {
		// Failing next settles its own group in turn, so every follower
		// fails with the same error, one promotion at a time.
		m.finishLocked(next, StateFailed, nil, fmt.Errorf("%w: coalesced leader did not complete", ErrShuttingDown))
	}
}

// safeRun runs the job on es, or through the test hook runFn, with
// panic recovery: a panicking job surfaces as a transiently failed job
// (worth one more attempt on a fresh simulator instance, since es does
// not keep a panicked engine), not a dead daemon.
func (m *Manager) safeRun(ctx context.Context, es *engineSet, spec JobSpec, eo ExecOptions) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.panics.Add(1)
			err = Transient(fmt.Errorf("server: job panicked: %v", r))
		}
	}()
	if m.cfg.runFn != nil {
		return m.cfg.runFn(ctx, spec, eo)
	}
	return es.execute(ctx, spec, eo)
}

// Shutdown closes the manager for new submissions and drains. Without a
// store, queued jobs still run and running jobs finish. With a store,
// drain means suspend: running jobs take a final checkpoint and stop,
// queued jobs are left journaled — both resume under a future manager
// opened over the same store. If ctx expires first, every outstanding
// job's context is cancelled and Shutdown returns ctx.Err once the
// workers exit. Shutdown is idempotent.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		if m.store != nil {
			m.suspend.Store(true)
		}
		// End every pending backoff now: without a store the parked job
		// fails (retry abandoned) instead of waiting on a timer that would
		// fire into a drained manager; with one it stays journaled
		// non-terminal and requeues under the next process, like any
		// suspended job.
		for id := range m.retryTimers {
			m.retryExpiredLocked(m.jobs[id])
		}
		m.fq.close()
	}
	m.mu.Unlock()

	select {
	case <-m.workersDone:
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-m.workersDone
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// TenantForKey resolves an API key (bearer token) onto the internal
// tenant name. The roster is immutable after NewManager, so no lock is
// needed.
func (m *Manager) TenantForKey(key string) (string, bool) {
	name, ok := m.tenantKeys[key]
	return name, ok
}

// Recovering reports whether the jobs recovered from the journal still
// hold the queue past its bound; submissions are rejected with
// ErrRecovering until then.
func (m *Manager) Recovering() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoveringLocked()
}

// recoveringLocked clears the recovering flag, for good, the first time
// the recovered backlog is seen to fit the queue bound, and reports the
// flag. Caller holds m.mu.
func (m *Manager) recoveringLocked() bool {
	if m.recovering && m.fq.Len() <= m.cfg.QueueDepth {
		m.recovering = false
	}
	return m.recovering
}
