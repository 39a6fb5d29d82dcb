package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hmcsim/internal/server"
	"hmcsim/internal/server/api"
	"hmcsim/internal/server/cache"
	"hmcsim/internal/store"
)

// isolatedSample bounds how many of the run's own specs, statuses and
// results the direct-call loops replay.
const isolatedSample = 256

// timeEach runs fn(i) for i in [0, n) in one tight loop under one span
// and returns the mean time per call.
func timeEach(rec *recorder, name string, n int, fn func(i int) error) (time.Duration, error) {
	if n == 0 {
		return 0, nil
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	t1 := time.Now()
	rec.add(name, isolatedID, "", "", t0, t1)
	return t1.Sub(t0) / time.Duration(n), nil
}

// traceService turns a finished service run into spans and per-layer
// rows: one span tree per scheduled job, the client's and the manager's
// stamps as distributions, the isolated direct calls, and — where the
// run journaled — a replay of the journal it wrote.
func traceService(o runOpts, t *tally, rec *recorder, svc *service, l *load) error {
	var ackMS, lateMS, queueMS, runMS []float64
	var busy time.Duration
	for _, sub := range l.sched {
		id, st := sub.id, sub.final
		ackMS = append(ackMS, ms(sub.acked.Sub(sub.due)))
		lateMS = append(lateMS, ms(sub.sent.Sub(sub.due)))
		rec.add("job", id, "", "", sub.due, sub.settled())
		rec.add("loadgen.late", id, "job", id, sub.due, sub.sent)
		rec.add("http.submit", id, "job", id, sub.sent, sub.acked)
		switch {
		case st.Started != nil && st.Finished != nil:
			rec.add("server.queue", id, "job", id, st.Submitted, *st.Started)
			rec.add("server.run", id, "job", id, *st.Started, *st.Finished)
			busy += st.Finished.Sub(*st.Started)
			queueMS = append(queueMS, ms(st.Started.Sub(st.Submitted)))
			runMS = append(runMS, ms(st.Finished.Sub(*st.Started)))
		case st.Finished != nil && st.Finished.After(sub.acked):
			// A coalesced follower: it waits for its leader's result.
			rec.add("server.follow", id, "job", id, sub.acked, *st.Finished)
		}
	}
	t.set("loadgen.sent", float64(len(l.sched)))
	t.set("loadgen.late_ms_p90", quantile(lateMS, 90))
	t.set("loadgen.late_ms_max", quantile(lateMS, 100))
	t.set("server.ack_ms_p50", median(ackMS))
	t.set("server.ack_ms_p90", quantile(ackMS, 90))
	t.set("server.queue_wait_ms_p50", median(queueMS))
	t.set("server.queue_wait_ms_p90", quantile(queueMS, 90))
	t.set("server.run_ms_p50", median(runMS))
	t.set("server.worker_util", ratio(busy.Seconds(), l.schedEnd.Sub(l.start).Seconds()))
	if l.follower != nil {
		t.set("sse.notify_lag_ms_p50", median(l.follower.lags(l.jobs)))
	}
	if err := serviceLayers(o, t, rec, svc, l.all(), median(ackMS), median(runMS)); err != nil {
		return err
	}
	t.set("ledger.coverage", coverage(rec.spans))
	if svc.store == nil {
		return nil
	}

	// Replay: reopen the journal this run wrote, as a restart would.
	dataDir := svc.store.Dir()
	cfg := svc.cfg
	if err := svc.stop(); err != nil {
		return err
	}
	t0 := time.Now()
	st, err := store.Open(dataDir)
	if err != nil {
		return err
	}
	cfg.Store = st
	mgr := server.NewManager(cfg)
	t.set("store.replay_ms", ms(time.Since(t0)))
	rec.add("store.replay", isolatedID, "", "", t0, time.Now())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(mgr.Shutdown(ctx), st.Close())
}

// serviceLayers times direct calls into each service package on the
// inputs and outputs of the run that just ended, reads the server's own
// counters, and derives what is left of the median ack once the isolated
// parts are taken out.
func serviceLayers(o runOpts, t *tally, rec *recorder, svc *service, subs []*submit, ackP50MS, runP50MS float64) error {
	// The run's own material: decoded specs, final statuses, results.
	var bodies [][]byte
	var specs, simulatedSpecs []api.SubmitRequest
	var statuses []api.JobStatus
	for _, sub := range subs {
		if len(specs) == isolatedSample {
			break
		}
		if sub.final.Result == nil {
			continue
		}
		bodies = append(bodies, sub.body)
		specs = append(specs, sub.final.Spec)
		statuses = append(statuses, sub.final)
		if sub.final.Started != nil && len(simulatedSpecs) < 8 {
			simulatedSpecs = append(simulatedSpecs, sub.final.Spec)
		}
	}
	n := len(specs)
	if n == 0 {
		return fmt.Errorf("bench: no finished job to replay through the service layers")
	}

	decode, err := timeEach(rec, "api.decode", n, func(i int) error {
		var spec api.SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(bodies[i]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return err
		}
		return spec.Validate()
	})
	if err != nil {
		return err
	}
	encode, err := timeEach(rec, "api.encode_status", n, func(i int) error {
		_, err := json.Marshal(statuses[i])
		return err
	})
	if err != nil {
		return err
	}
	var resultBytes int
	for _, st := range statuses {
		resultBytes += len(mustJSON(st.Result))
	}
	keys := make([]cache.Key, n)
	key, _ := timeEach(rec, "cache.key", n, func(i int) error { // fn never fails
		keys[i] = cache.JobKey(specs[i])
		return nil
	})
	lru := cache.NewLRU(svc.cfg.CacheBytes)
	for i, st := range statuses {
		lru.Put(keys[i], st.Result, 0)
	}
	lruGet, err := timeEach(rec, "cache.lru_get", n, func(i int) error {
		if _, ok := lru.Get(keys[i]); !ok {
			return fmt.Errorf("key %v missing", keys[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.set("api.decode_us", us(decode))
	t.set("api.encode_status_us", us(encode))
	t.set("api.result_bytes", float64(resultBytes)/float64(n))
	t.set("cache.key_us", us(key))
	t.set("cache.lru_get_us", us(lruGet))

	// A scratch store beside the service's own: the same disk, none of
	// the manager's locks.
	scratch, err := store.Open(filepath.Join(svc.dir, "scratch"))
	if err != nil {
		return err
	}
	defer scratch.Close()
	var appendUS []float64
	for i := 0; i < isolatedSample; i++ {
		t0 := time.Now()
		err := scratch.Append(store.Record{Type: store.RecStarted, Job: fmt.Sprintf("scratch-%06d", i), Attempt: 1})
		if err != nil {
			return err
		}
		t1 := time.Now()
		rec.add("store.append", isolatedID, "", "", t0, t1)
		appendUS = append(appendUS, us(t1.Sub(t0)))
	}
	save, err := timeEach(rec, "store.save_result", min(n, 64), func(i int) error {
		return scratch.SaveResult(fmt.Sprintf("scratch-%06d", i), statuses[i].Result)
	})
	if err != nil {
		return err
	}
	m, err := svc.scrape()
	if err != nil {
		return err
	}
	var records int // the service's own journal, where it keeps one
	if svc.store != nil {
		records = len(svc.store.Records())
	}
	t.set("store.append_us_p50", median(appendUS))
	t.set("store.append_us_p90", quantile(appendUS, 90))
	t.set("store.save_result_us", us(save))
	t.set("store.journal_records", float64(records))
	t.set("store.appends_per_job", ratio(float64(records), num(m, "jobs_submitted")))

	lookup, _ := m["cache_lookup_seconds"].(map[string]any)
	t.set("cache.lookup_us_mean", num(lookup, "mean")*1e6)
	t.set("cache.hit_ratio", ratio(num(m, "cache_hits"), num(m, "cache_hits")+num(m, "cache_misses")))
	t.set("cache.coalesce_ratio", ratio(num(m, "coalesced_jobs"), num(m, "jobs_submitted")))
	var rejected int
	for _, sub := range subs {
		if sub.code != http.StatusAccepted {
			rejected++
		}
	}
	t.set("server.rejected", float64(rejected)+num(m, "jobs_rejected"))
	if o.workload == "serve-cold" {
		t.check(num(m, "cache_hits") == 0, "serve-cold: %v cache hits, want exactly 0", num(m, "cache_hits"))
	}

	// The engine under the manager: the same specs through server.Execute.
	var execMS []float64
	for _, spec := range simulatedSpecs {
		t0 := time.Now()
		if _, err := server.Execute(context.Background(), spec); err != nil {
			return fmt.Errorf("server.Execute: %w", err)
		}
		t1 := time.Now()
		rec.add("server.execute", isolatedID, "", "", t0, t1)
		execMS = append(execMS, ms(t1.Sub(t0)))
	}
	t.set("server.execute_ms", median(execMS))
	t.set("server.run_overhead_frac", ratio(runP50MS, median(execMS))-1)

	// What the median ack is made of: a serve-cold submit journals once
	// before it is acknowledged, a serve-mixed one (a hit) not at all.
	parts := us(decode) + us(key) + us(lruGet) + us(encode)
	if svc.store != nil {
		parts += median(appendUS)
	}
	t.set("server.http_overhead_us", ackP50MS*1000-parts)

	get, err := timeEach(rec, "server.get", 100, func(int) error {
		code, _, _, err := svc.do("GET", "/v1/jobs/"+subs[0].id, subs[0].tenant, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		return err
	})
	if err != nil {
		return err
	}
	t.set("server.get_us", us(get))
	var scrapeMS []float64
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		if _, err := svc.scrape(); err != nil {
			return err
		}
		scrapeMS = append(scrapeMS, ms(time.Since(t0)))
	}
	t.set("server.metrics_scrape_ms", median(scrapeMS))
	return nil
}

// sseFollower follows one job at a time over GET /v1/jobs/{id}/events at
// the 50 ms interval floor and notes when each terminal event arrived.
// A job offered while a stream is open is skipped, so at most one stream
// is ever open beside the load.
type sseFollower struct {
	base   string
	client *http.Client
	ctx    context.Context
	cancel context.CancelFunc

	wg   sync.WaitGroup
	mu   sync.Mutex
	busy bool
	seen map[string]time.Time // job ID -> terminal event received
}

func newSSEFollower(base string) *sseFollower {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	return &sseFollower{base: base, client: &http.Client{Transport: &http.Transport{}}, ctx: ctx, cancel: cancel, seen: make(map[string]time.Time)}
}

// offer starts following the job an ack body names, unless a stream is
// already open.
func (f *sseFollower) offer(ack []byte) {
	id := ackID(ack)
	if id == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.busy {
		return
	}
	f.busy = true
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		at, ok := f.follow(id)
		f.mu.Lock()
		defer f.mu.Unlock()
		f.busy = false
		if ok {
			f.seen[id] = at
		}
	}()
}

// follow reads one event stream until its terminal event.
func (f *sseFollower) follow(id string) (time.Time, bool) {
	req, err := http.NewRequestWithContext(f.ctx, "GET", f.base+"/v1/jobs/"+id+"/events?interval_ms=50", nil)
	if err != nil {
		return time.Time{}, false
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return time.Time{}, false
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok && ev != api.EventProgress {
			return time.Now(), ev == api.EventResult
		}
	}
	return time.Time{}, false
}

// wait blocks until the open stream, if any, has ended, and releases the
// follower's connection.
func (f *sseFollower) wait() {
	f.wg.Wait()
	f.cancel()
	f.client.CloseIdleConnections()
}

// lags returns, per followed job, terminal event received minus the
// job's finished stamp, in ms.
func (f *sseFollower) lags(jobs map[string]api.JobStatus) []float64 {
	var out []float64
	for id, at := range f.seen {
		if fin := jobs[id].Finished; fin != nil {
			out = append(out, ms(at.Sub(*fin)))
		}
	}
	return out
}
