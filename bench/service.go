package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/server"
	"hmcsim/internal/server/api"
	"hmcsim/internal/store"
	"hmcsim/internal/workload"
)

// Fixed load shape of the two service workloads (README.md "Load
// shape"). One rate each, plus a burst, rather than a rate sweep: a
// leg near saturation does not repeat within a tenth in fifteen seconds.
const (
	coldRate     = 8     // serve-cold submits per second: about half of one worker
	coldRequests = 65536 // simulated requests of a serve-cold job
	coldWarm     = 4     // serve-cold set-up jobs: one per Table I config
	coldBurst    = 64    // serve-cold back-to-back burst

	mixedRate     = 200   // serve-mixed submits per second
	mixedRequests = 16384 // simulated requests of a serve-mixed job
	mixedWarm     = 32    // specs warmed into the cache during set-up
	mixedBurst    = 512   // serve-mixed back-to-back burst, same mix

	setupReps = 3 // set-ups per run; setup_s is their median
)

// tenantKeys are the bearer keys of serve-mixed's two-tenant roster;
// submits alternate between them. serve-cold runs without a roster and
// sends no key.
var tenantKeys = []string{"bench-key-a", "bench-key-b"}

// submit classes.
const (
	classCold   = "cold"   // unique spec: must simulate
	classRepeat = "repeat" // a spec warmed during set-up: must hit
	classNovel  = "novel"  // unique spec, followed at once by its duplicate
	classDup    = "dup"    // the preceding novel spec again: must coalesce
)

// submit is one planned POST /v1/jobs and, after the run, what happened
// to it on the client side and in the job listing.
type submit struct {
	class  string
	tenant int // index into tenantKeys; -1 sends no key
	body   []byte

	due, sent, acked time.Time
	code             int
	resp             []byte
	id               string        // the job the ack named, decoded after the schedule
	final            api.JobStatus // from the listing
}

// specSource draws a service workload's job specs from the seed: the
// seed reaches the service only through the api.SubmitRequest values
// built here. Every draw of unique() is a spec no earlier draw produced.
type specSource struct {
	seed     uint32
	requests uint64
	next     uint32
	cfgs     []core.Config
}

func newSpecSource(seed uint64, requests uint64) *specSource {
	return &specSource{seed: uint32(seed), requests: requests, cfgs: core.Table1Configs()}
}

func (s *specSource) unique() api.SubmitRequest {
	k := s.next
	s.next++
	return api.SubmitRequest{
		Config:   s.cfgs[k%uint32(len(s.cfgs))],
		Workload: workload.TableISpec(s.seed + k),
		Requests: s.requests,
	}
}

// ackID returns the job ID in a POST /v1/jobs response body, "" if it
// holds none.
func ackID(resp []byte) string {
	var st struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(resp, &st) // an undecodable body names no job
	return st.ID
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types of this repository always marshal
	}
	return data
}

// service is one in-process instance of the job service behind a real
// loopback listener, with the one keep-alive client that loads it.
type service struct {
	dir     string
	cfg     server.ManagerConfig
	store   *store.Store
	mgr     *server.Manager
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	tenants bool
}

// startService starts a manager over a fresh directory under root and
// serves its handler on 127.0.0.1:0. mixed selects serve-mixed's shape:
// the two-tenant roster and no journal. With a journal, a cache hit is
// three fsyncs and a rename — 1.3 of its 1.6 ms on the box this was
// written on — and fsync latency there drifted by a fifth between runs
// minutes apart, which no bound the benchmark may declare survives. So
// serve-cold, where the journal is a fiftieth of a job, keeps it, and
// the store's own costs are per-layer rows taken on a scratch store.
func startService(root string, mixed bool) (*service, error) {
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, tenants: mixed, served: make(chan error, 1)}
	s.cfg = server.ManagerConfig{Workers: 1, QueueDepth: 1024, CacheBytes: 256 << 20}
	if !mixed {
		if s.store, err = store.Open(filepath.Join(dir, "data")); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		s.cfg.Store = s.store
	}
	if mixed {
		s.cfg.Tenants = []server.TenantConfig{
			{Name: "tenant-a", Key: tenantKeys[0]},
			{Name: "tenant-b", Key: tenantKeys[1]},
		}
	}
	s.mgr = server.NewManager(s.cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: server.NewHandler(s.mgr)}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxConnsPerHost: 1}}
	return s, nil
}

// stop closes the client, the listener, the manager and the store, in
// that order, and waits for each; the store directory stays.
func (s *service) stop() error {
	var errs []error
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.srv = nil
	}
	if s.mgr != nil {
		errs = append(errs, s.mgr.Shutdown(ctx))
		s.mgr = nil
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
		s.store = nil
	}
	return errors.Join(errs...)
}

// close stops the service and removes its directory.
func (s *service) close() error {
	return errors.Join(s.stop(), os.RemoveAll(s.dir))
}

// do sends one request over the keep-alive connection and reads the
// whole response.
func (s *service) do(method, path string, tenant int, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if tenant >= 0 {
		req.Header.Set("Authorization", "Bearer "+tenantKeys[tenant])
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// post sends sub's body and stamps sent, acked, code and resp. A
// transport error reads as code 0.
func (s *service) post(sub *submit) {
	sub.sent = time.Now()
	sub.code, _, sub.resp, _ = s.do("POST", "/v1/jobs", sub.tenant, sub.body)
	sub.acked = time.Now()
}

// scrape reads /v1/metrics as JSON.
func (s *service) scrape() (map[string]any, error) {
	code, _, data, err := s.do("GET", "/v1/metrics", -1, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("bench: GET /v1/metrics: status %d", code)
	}
	var m map[string]any
	return m, json.Unmarshal(data, &m)
}

func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// settle polls the metrics endpoint until every submitted job is
// terminal. It runs only while nothing is being timed.
func (s *service) settle() error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		m, err := s.scrape()
		if err != nil {
			return err
		}
		done := num(m, "jobs_completed") + num(m, "jobs_failed") + num(m, "jobs_cancelled") + num(m, "coalesced_jobs")
		if done >= num(m, "jobs_submitted") {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %v of %v jobs settled after two minutes", done, num(m, "jobs_submitted"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// list pages through GET /v1/jobs for every tenant in use and returns
// the jobs by ID.
func (s *service) list() (map[string]api.JobStatus, error) {
	jobs := make(map[string]api.JobStatus)
	tenants := []int{-1}
	if s.tenants {
		tenants = []int{0, 1}
	}
	for _, tenant := range tenants {
		after := ""
		for {
			code, hdr, data, err := s.do("GET", "/v1/jobs?limit=1024&after="+after, tenant, nil)
			if err != nil {
				return nil, err
			}
			if code != http.StatusOK {
				return nil, fmt.Errorf("bench: GET /v1/jobs: status %d", code)
			}
			var page []api.JobStatus
			if err := json.Unmarshal(data, &page); err != nil {
				return nil, err
			}
			for _, st := range page {
				jobs[st.ID] = st
			}
			if after = hdr.Get("X-Next-After"); after == "" {
				break
			}
		}
	}
	return jobs, nil
}

// setUpService starts a service and warms it: serve-cold runs one job
// per Table I configuration so the engine and the HTTP path are warm;
// serve-mixed runs the mixedWarm specs its repeats will hit. The warm
// specs are drawn from src, so no measured unique spec repeats one.
func setUpService(o runOpts, src *specSource) (*service, []api.SubmitRequest, error) {
	mixed := o.workload == "serve-mixed"
	s, err := startService(o.outDir, mixed)
	if err != nil {
		return nil, nil, err
	}
	n, tenant := coldWarm, -1
	if mixed {
		n, tenant = mixedWarm, 0
	}
	warm := make([]api.SubmitRequest, n)
	for i := range warm {
		warm[i] = src.unique()
		sub := submit{tenant: tenant, body: mustJSON(warm[i])}
		if s.post(&sub); sub.code != http.StatusAccepted {
			s.close()
			return nil, nil, fmt.Errorf("bench: warm-up submit: status %d: %s", sub.code, sub.resp)
		}
	}
	if err := s.settle(); err != nil {
		s.close()
		return nil, nil, err
	}
	return s, warm, nil
}

// mixBlock is the period of serve-mixed's mix: every block of ten
// submits holds eight repeats, one novel spec and its duplicate.
const mixBlock = 10

// plan draws n submits of the workload's mix. serve-cold: every spec
// unique. serve-mixed: four fifths repeats of the warmed specs, one
// tenth novel specs, each followed at once by its duplicate; tenants
// alternate. The class counts are fixed so that runs with different
// seeds do the same amount of work; the seed picks which warmed spec a
// repeat asks for, the novel specs, and where in its block the novel
// pair falls.
func plan(o runOpts, src *specSource, rng *rand.Rand, warm []api.SubmitRequest, n int) []*submit {
	subs := make([]*submit, 0, n+mixBlock)
	add := func(class string, spec api.SubmitRequest) {
		tenant := -1
		if o.workload == "serve-mixed" {
			tenant = len(subs) % len(tenantKeys)
		}
		subs = append(subs, &submit{class: class, tenant: tenant, body: mustJSON(spec)})
	}
	for len(subs) < n {
		if o.workload == "serve-cold" {
			add(classCold, src.unique())
			continue
		}
		pair := rng.Intn(mixBlock - 1)
		for i := 0; i < mixBlock-1; i++ {
			if i != pair {
				add(classRepeat, warm[rng.Intn(len(warm))])
				continue
			}
			spec := src.unique()
			add(classNovel, spec)
			add(classDup, spec)
		}
	}
	return subs[:n]
}

// clock is the time source of the pacer; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// wallClock is the real one; its Sleep and the spinWindow that goes with
// it are per operating system (sleep_linux.go, sleep_other.go).
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// pace is the open loop: it calls send(i, due) for i in [0, n), never
// before due = start + i*interval and never waiting for anything but the
// previous send to return. A send that overruns its slot makes the next
// ones late rather than dropped; latencies are taken from due, so the
// stall is charged to the requests it delayed.
func pace(c clock, start time.Time, interval time.Duration, n int, send func(i int, due time.Time)) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(c.Now()) - spinWindow; wait > 0 {
			c.Sleep(wait)
		}
		for c.Now().Before(due) {
			runtime.Gosched()
		}
		send(i, due)
	}
}

// load is what the timed part of a service run produced.
type load struct {
	sched, burst    []*submit
	start, schedEnd time.Time // of the paced schedule
	burstStart      time.Time
	allocBytes      uint64                   // allocated by the whole process during the schedule
	follower        *sseFollower             // traced serve-cold only
	steal           *stealSampler            // sampling from the schedule's start to the burst's end
	jobs            map[string]api.JobStatus // the listing, read afterwards
}

// all returns the scheduled submits followed by the burst's.
func (l *load) all() []*submit {
	return append(append([]*submit(nil), l.sched...), l.burst...)
}

// drive runs the paced schedule and then the burst against svc, and —
// with nothing timed any more — reads the listing the settle times come
// from.
func drive(svc *service, l *load, rate int) error {
	l.steal = startStealSampler()
	defer l.steal.Stop()
	alloc0 := totalAlloc()
	l.start = time.Now().Add(10 * time.Millisecond)
	pace(wallClock{}, l.start, time.Second/time.Duration(rate), len(l.sched), func(i int, due time.Time) {
		l.sched[i].due = due
		svc.post(l.sched[i])
		if l.follower != nil {
			l.follower.offer(l.sched[i].resp)
		}
	})
	l.schedEnd = time.Now()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.allocBytes = m.TotalAlloc - alloc0
	if l.follower != nil {
		l.follower.wait()
	}
	if err := svc.settle(); err != nil {
		return err
	}
	// The burst: back to back, as fast as the acks come.
	l.burstStart = time.Now()
	for _, sub := range l.burst {
		sub.due = l.burstStart
		svc.post(sub)
	}
	if err := svc.settle(); err != nil {
		return err
	}
	var err error
	l.jobs, err = svc.list()
	return err
}

// runService runs a service workload: set-up (setupReps times, the last
// one kept), the paced schedule and the burst, then the end-to-end
// metrics. rec is non-nil on the traced run, which adds spans, the SSE
// follower and the isolated per-package timings.
func runService(o runOpts, t *tally, rec *recorder) (err error) {
	mixed := o.workload == "serve-mixed"
	requests, rate, burstN := uint64(coldRequests), coldRate, coldBurst
	if mixed {
		requests, rate, burstN = mixedRequests, mixedRate, mixedBurst
	}
	requests = max(requests/o.scale, 256)

	// Set-up, several times; the earlier instances are torn down at once.
	var svc *service
	var warm []api.SubmitRequest
	var src *specSource
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return err
			}
		}
		src = newSpecSource(o.seed, requests)
		t0 := time.Now()
		if svc, warm, err = setUpService(o, src); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { err = errors.Join(err, svc.close()) }()

	rng := rand.New(rand.NewSource(int64(o.seed)))
	l := &load{
		sched: plan(o, src, rng, warm, max(int(o.seconds.Seconds()*float64(rate)), 4)),
		burst: plan(o, src, rng, warm, burstN),
	}
	if rec != nil && !mixed {
		l.follower = newSSEFollower(svc.base)
	}
	if err := drive(svc, l, rate); err != nil {
		return err
	}
	checkService(t, l.all(), l.jobs)

	// Samples taken while the hypervisor was running someone else are
	// left out (steal.go).
	sched, noisySched := keepClean(l.steal, l.sched, func(sub *submit) (time.Time, time.Time) { return sub.due, sub.settled() })
	var jobMS []float64
	for _, sub := range sched {
		jobMS = append(jobMS, ms(sub.settled().Sub(sub.due)))
	}
	// Engine speed inside the service: totals over every job that ran,
	// not a median over jobs, because the four configurations simulate at
	// rates a factor apart and a median would sit between two of them.
	ran, noisyRan := keepClean(l.steal, simulated(l.all()), func(st api.JobStatus) (time.Time, time.Time) { return *st.Started, *st.Finished })
	var engine time.Duration
	var reqs, cycles float64
	for _, st := range ran {
		engine += st.Finished.Sub(*st.Started)
		reqs += float64(st.Result.Sent)
		cycles += float64(st.Result.Cycles)
	}
	var done []time.Time
	var lastDone time.Time
	for _, sub := range l.burst {
		done = append(done, sub.settled())
		if f := sub.settled(); f.After(lastDone) {
			lastDone = f
		}
	}
	batch, cleanShare := l.steal.rate(done, l.burstStart, lastDone)
	t.set("setup_s", median(setupS))
	t.set("sim_req_per_s", ratio(reqs, engine.Seconds()))
	t.set("sim_cycles_per_s", ratio(cycles, engine.Seconds()))
	t.set("alloc_mb", float64(l.allocBytes)/mb)
	t.set("job_ms_p50", median(jobMS))
	t.set("job_ms_p90", quantile(jobMS, 90))
	t.set("batch_jobs_per_s", batch)
	t.notef("%d scheduled submits at %d/s, %d burst, %d simulated", len(l.sched), rate, len(l.burst), len(ran)+noisyRan)
	t.notef("left out for steal: %d job_ms samples (%d left, enough for p%g), %d simulated jobs, %.0f%% of the burst's windows",
		noisySched, len(sched), supportedTail(len(sched)), noisyRan, 100*(1-cleanShare))
	if cleanShare == 0 {
		t.notef("WARNING: under half of the burst's windows were free of steal; batch_jobs_per_s is over the whole burst")
	}
	if supportedTail(len(sched)) < 90 {
		t.notef("WARNING: %d samples leave fewer than ten beyond p90; job_ms_p90 is not a tail here", len(sched))
	}
	if rec == nil {
		return nil
	}
	t.set("model.sim_cycles", cycles)
	return traceService(o, t, rec, svc, l)
}

// settled is when the submit's job had its result: the finished stamp,
// or the ack for a cache hit (born done, so the ack carries the result).
func (sub *submit) settled() time.Time {
	if r := sub.final.Result; sub.final.Finished == nil || r != nil && r.Cache == api.CacheHit {
		return sub.acked
	}
	return *sub.final.Finished
}

// simulated returns the final status of the submits whose job ran on the
// engine (cold and novel ones); hits and coalesced followers have no
// started stamp.
func simulated(subs []*submit) []api.JobStatus {
	var out []api.JobStatus
	for _, sub := range subs {
		if st := sub.final; st.Started != nil && st.Finished != nil && st.Result != nil {
			out = append(out, st)
		}
	}
	return out
}

// checkService decodes every ack, joins it with the listing and counts
// the correctness conditions: accepted with 202, ended done, served the
// way its class says, and digest-equal to the first result of its spec.
func checkService(t *tally, subs []*submit, jobs map[string]api.JobStatus) {
	first := make(map[string]string) // spec key -> result digest of its first job
	for _, st := range jobs {
		if r := st.Result; r != nil && r.Cache == "" {
			first[r.SpecKey] = r.ResultDigest
		}
	}
	// A duplicate coalesces onto its novel leader while that one is in
	// flight; one that arrives after the leader settled is a plain hit.
	// Both are served without simulating, which is what is checked; how
	// many coalesced is cache.coalesce_ratio.
	served := map[string][]string{
		classCold: {""}, classNovel: {""}, classRepeat: {api.CacheHit},
		classDup: {api.CacheCoalesced, api.CacheHit},
	}
	for _, sub := range subs {
		if sub.code != http.StatusAccepted {
			t.check(false, "%s submit: status %d: %s", sub.class, sub.code, bytes.TrimSpace(sub.resp))
			continue
		}
		if sub.id = ackID(sub.resp); sub.id == "" {
			t.check(false, "%s submit: ack names no job: %s", sub.class, bytes.TrimSpace(sub.resp))
			continue
		}
		sub.final = jobs[sub.id]
		st := sub.final
		switch r := st.Result; {
		case st.State != api.StateDone || r == nil:
			t.check(false, "%s %s: ended %q (%s)", sub.class, sub.id, st.State, st.Error)
		case !slices.Contains(served[sub.class], r.Cache):
			t.check(false, "%s %s: served as %q, want one of %q", sub.class, sub.id, r.Cache, served[sub.class])
		case r.ResultDigest != first[r.SpecKey] || r.Sent != r.Requests || r.Completed != r.Requests || r.Errors != 0:
			t.check(false, "%s %s: digest %s (first of its spec: %s), sent %d completed %d errors %d of %d",
				sub.class, sub.id, r.ResultDigest, first[r.SpecKey], r.Sent, r.Completed, r.Errors, r.Requests)
		default:
			t.check(true, "")
		}
	}
}
