// Command hmcsim-submit is the client side of the simulation service: it
// submits the paper's four Table I device configurations as concurrent
// jobs, polls them to completion and prints the Table I cycle counts
// alongside each job's determinism digests.
//
//	hmcsim-serve &
//	hmcsim-submit -addr http://127.0.0.1:8080 -requests 65536
//
// With -progress each poll of a running job prints its live progress
// block (percent sent, simulated cycle, rate, ETA) to stderr.
//
// With -follow the client consumes each job's Server-Sent Events stream
// (GET /v1/jobs/{id}/events) instead of polling: progress events arrive
// at the server's cadence and the terminal result/error event ends the
// wait. If the stream is unavailable or cut (old server, proxy,
// restart), the client falls back to polling — -follow never loses a
// job. -token attaches a tenant API key ("Authorization: Bearer") to
// every request, submitting under that tenant's quotas and fair-share
// weight.
//
// The client is restart-tolerant: connection failures and 502/503/504
// responses (a draining, recovering or restarting service) are retried
// with capped exponential backoff, honouring Retry-After when the server
// sends one, and every submission carries an idempotency key so an
// ambiguous retry can never double-run a job.
//
// The result table prints each job's cache provenance — "cold" for a
// real simulation, "hit" for a submission served from the service's
// content-addressed result cache, "coalesced" for one that attached to
// an identical in-flight job, "verified" for a sampled hit the server
// re-executed (README "Result cache").

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/server/api"
	"hmcsim/internal/workload"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "service base URL")
	requests := flag.Uint64("requests", 1<<16, "requests per job")
	seed := flag.Uint("seed", 1, "workload seed")
	poll := flag.Duration("poll", 100*time.Millisecond, "status poll interval")
	timeout := flag.Duration("timeout", 10*time.Minute, "client-side wait budget per batch")
	progress := flag.Bool("progress", false, "print each job's live progress to stderr while polling")
	follow := flag.Bool("follow", false, "follow each job's SSE event stream (/v1/jobs/{id}/events) instead of polling; falls back to polling when streaming is unavailable")
	token := flag.String("token", "", "tenant API key, sent on every request as \"Authorization: Bearer <key>\"")
	flag.Parse()

	o := clientOpts{
		token: *token, follow: *follow, progress: *progress,
		poll: *poll, timeout: *timeout,
	}
	results, err := runBatch(*addr, specs(*requests, uint32(*seed)), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmcsim-submit:", err)
		os.Exit(1)
	}
	printTable(results)
}

// clientOpts bundles the per-request knobs every job's submit/wait path
// shares: tenant credentials, follow-vs-poll, verbosity and budgets.
type clientOpts struct {
	token    string
	follow   bool
	progress bool
	poll     time.Duration
	timeout  time.Duration
}

// auth attaches the tenant API key, when one was given.
func (o clientOpts) auth(req *http.Request) {
	if o.token != "" {
		req.Header.Set("Authorization", "Bearer "+o.token)
	}
}

// specs builds the four Table I job specs.
func specs(requests uint64, seed uint32) []api.SubmitRequest {
	var out []api.SubmitRequest
	for _, cfg := range core.Table1Configs() {
		out = append(out, api.SubmitRequest{
			Name:     cfg.String(),
			Config:   cfg,
			Workload: workload.TableISpec(seed),
			Requests: requests,
		})
	}
	return out
}

// runBatch submits every spec concurrently, waits each job to a
// terminal state (following its event stream or polling) and returns
// the final statuses in submission order.
func runBatch(base string, specs []api.SubmitRequest, o clientOpts) ([]api.JobStatus, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	out := make([]api.JobStatus, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec api.SubmitRequest) {
			defer wg.Done()
			out[i], errs[i] = submitAndWait(client, base, spec, o)
		}(i, spec)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Transport-level retry bounds: connection failures and 502/503/504
// responses back off exponentially from backoffBase, capped at
// backoffMax, honouring a Retry-After header when the server sends one.
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// nextBackoff doubles the delay up to the cap, preferring the server's
// Retry-After hint (in whole seconds) when present.
func nextBackoff(cur time.Duration, retryAfter string) (sleep, next time.Duration) {
	sleep = cur
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		sleep = time.Duration(secs) * time.Second
		if sleep > backoffMax {
			sleep = backoffMax
		}
	}
	next = 2 * cur
	if next > backoffMax {
		next = backoffMax
	}
	return sleep, next
}

// idemKey generates one idempotency key per job submission, reused
// across every retry of that submission.
func idemKey() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// retriable reports whether an HTTP status signals a temporarily
// unavailable service: a proxy error, a drain or a journal recovery in
// progress. The request is safe to repeat — submissions carry an
// idempotency key.
func retriable(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// submitAndWait pushes one job through the API, retrying 429
// backpressure, transport failures and 5xx unavailability, then waits
// for a terminal state — by consuming the job's SSE event stream with
// -follow (falling back to polling when the stream is unavailable or
// cut), by polling otherwise. With progress set, each progress sample
// of a running job prints its live block to stderr.
func submitAndWait(client *http.Client, base string, spec api.SubmitRequest, o clientOpts) (api.JobStatus, error) {
	if spec.IdempotencyKey == "" {
		spec.IdempotencyKey = idemKey()
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return api.JobStatus{}, err
	}
	deadline := time.Now().Add(o.timeout)
	backoff := backoffBase
	var st api.JobStatus
	for {
		if time.Now().After(deadline) {
			return api.JobStatus{}, fmt.Errorf("submit %q: retrying past the deadline", spec.Name)
		}
		req, rerr := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if rerr != nil {
			return api.JobStatus{}, rerr
		}
		req.Header.Set("Content-Type", "application/json")
		o.auth(req)
		rsp, err := client.Do(req)
		if err != nil {
			// Transport failure: connection refused or reset, typically
			// a service restart. The idempotency key makes the repeat
			// safe even if the first request landed.
			var sleep time.Duration
			sleep, backoff = nextBackoff(backoff, "")
			time.Sleep(sleep)
			continue
		}
		code := rsp.StatusCode
		data, err := io.ReadAll(rsp.Body)
		rsp.Body.Close()
		if err != nil {
			return api.JobStatus{}, err
		}
		if code == http.StatusTooManyRequests {
			// Explicit backpressure: the service queue, or this tenant's
			// quota, is full. Back off and retry until a slot frees up.
			time.Sleep(o.poll)
			continue
		}
		if retriable(code) {
			var sleep time.Duration
			sleep, backoff = nextBackoff(backoff, rsp.Header.Get("Retry-After"))
			time.Sleep(sleep)
			continue
		}
		// 202 created, or 200 when a retried submission's key matched
		// the job the first attempt already created.
		if code != http.StatusAccepted && code != http.StatusOK {
			return api.JobStatus{}, fmt.Errorf("submit %q: HTTP %d: %s", spec.Name, code, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return api.JobStatus{}, err
		}
		break
	}
	if st.State.Terminal() {
		// Served straight from the result cache (or coalesced onto a job
		// that finished before the response was written): no polling.
		if st.State != api.StateDone {
			return st, fmt.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
		return st, nil
	}
	if o.follow {
		if fst, ok := followJob(base, st.ID, spec.Name, o, deadline); ok {
			if fst.State != api.StateDone {
				return fst, fmt.Errorf("job %s: %s (%s)", fst.ID, fst.State, fst.Error)
			}
			return fst, nil
		}
		// Stream unavailable or cut before the job settled; the polling
		// loop below picks the job up.
	}
	backoff = backoffBase
	for {
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s: still %s past the deadline", st.ID, st.State)
		}
		req, rerr := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+st.ID, nil)
		if rerr != nil {
			return st, rerr
		}
		o.auth(req)
		rsp, err := client.Do(req)
		if err != nil {
			// The service may be restarting; with a durable store the
			// job (and its journal) survives, so keep polling.
			var sleep time.Duration
			sleep, backoff = nextBackoff(backoff, "")
			time.Sleep(sleep)
			continue
		}
		data, err := io.ReadAll(rsp.Body)
		rsp.Body.Close()
		if err != nil {
			return st, err
		}
		if retriable(rsp.StatusCode) {
			var sleep time.Duration
			sleep, backoff = nextBackoff(backoff, rsp.Header.Get("Retry-After"))
			time.Sleep(sleep)
			continue
		}
		if rsp.StatusCode != http.StatusOK {
			return st, fmt.Errorf("poll %s: HTTP %d: %s", st.ID, rsp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return st, err
		}
		backoff = backoffBase
		if o.progress && st.Progress != nil {
			printProgress(st.ID, spec.Name, st.Progress)
		}
		if st.State.Terminal() {
			if st.State != api.StateDone {
				return st, fmt.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
			}
			return st, nil
		}
		time.Sleep(o.poll)
	}
}

// printProgress renders one live progress block to stderr.
func printProgress(id, name string, p *api.Progress) {
	fmt.Fprintf(os.Stderr, "%s %s: %5.1f%% (%d/%d sent) cycle %d, %.0f cyc/s, eta %.1fs\n",
		id, name, p.Percent, p.Sent, p.Requests, p.Cycles,
		p.CyclesPerSecond, p.ETASeconds)
}

// followJob consumes one job's SSE event stream to its terminal event,
// then fetches the authoritative final status with a single poll. It
// reports ok=false — telling the caller to fall back to polling — when
// the stream cannot be opened (older server, intermediary that does not
// stream), is cut mid-run, or ends with the server's shutting_down
// event (the job's real outcome then lives with the restarted service).
func followJob(base, id, name string, o clientOpts, deadline time.Time) (api.JobStatus, bool) {
	ms := int(o.poll / time.Millisecond)
	if ms < 50 {
		ms = 50
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/jobs/"+id+"/events?interval_ms="+strconv.Itoa(ms), nil)
	if err != nil {
		return api.JobStatus{}, false
	}
	req.Header.Set("Accept", "text/event-stream")
	o.auth(req)
	// A dedicated client without a response timeout: the stream lives as
	// long as the job runs, bounded by the request context's deadline.
	rsp, err := (&http.Client{}).Do(req)
	if err != nil {
		return api.JobStatus{}, false
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(rsp.Header.Get("Content-Type"), "text/event-stream") {
		io.Copy(io.Discard, io.LimitReader(rsp.Body, 1<<16))
		return api.JobStatus{}, false
	}

	sc := bufio.NewScanner(rsp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Blank line dispatches the accumulated event.
			switch event {
			case api.EventProgress:
				if o.progress && data != "" {
					var p api.Progress
					if json.Unmarshal([]byte(data), &p) == nil {
						printProgress(id, name, &p)
					}
				}
			case api.EventResult, api.EventError:
				if event == api.EventError {
					var e api.Error
					if json.Unmarshal([]byte(data), &e) == nil && e.Code == api.CodeShuttingDown {
						// The drain cut the stream before the job settled;
						// its outcome lives with the (restarted) service.
						return api.JobStatus{}, false
					}
				}
				// One authoritative poll for the full terminal status —
				// the event payload carries only the result or error.
				st, err := getStatus(base, id, o)
				return st, err == nil && st.State.Terminal()
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	return api.JobStatus{}, false // stream cut mid-run
}

// getStatus is one authenticated GET /v1/jobs/{id}.
func getStatus(base, id string, o clientOpts) (api.JobStatus, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return api.JobStatus{}, err
	}
	o.auth(req)
	rsp, err := (&http.Client{Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		return api.JobStatus{}, err
	}
	defer rsp.Body.Close()
	data, err := io.ReadAll(rsp.Body)
	if err != nil {
		return api.JobStatus{}, err
	}
	if rsp.StatusCode != http.StatusOK {
		return api.JobStatus{}, fmt.Errorf("poll %s: HTTP %d: %s", id, rsp.StatusCode, data)
	}
	var st api.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return api.JobStatus{}, err
	}
	return st, nil
}

// printTable renders the batch the way hmcsim-table1 does, with the
// service's determinism digests and cache provenance attached.
func printTable(results []api.JobStatus) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Job\tDevice Configuration\tCycles\tReq/Cycle\tCache\tResult Digest")
	for _, st := range results {
		r := st.Result
		prov := r.Cache
		if prov == "" {
			prov = "cold"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%s\t%s\n", st.ID, r.Config, r.Cycles, r.ReqsPerCycle, prov, r.ResultDigest)
	}
	tw.Flush()
}
