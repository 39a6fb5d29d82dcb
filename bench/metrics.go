package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The two lists below are the
// benchmark's whole vocabulary: BENCHMARK.json repeats them with
// direction and bound, and TestNamesMatchBenchmarkJSON holds the two in
// step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (README.md "End-to-end metrics" says what each means
// on an offline workload and on a service workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_req_per_s", "1/s"},
	{"sim_cycles_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"batch_jobs_per_s", "1/s"},
}

// perLayer is the traced run's vocabulary, one group per package. A
// workload that does not reach a layer reports 0 for its rows.
var perLayer = []metricDef{
	{"workload.next_ns", "ns"},
	{"workload.accesses", "count"},
	{"packet.encode_ns", "ns"},
	{"packet.decode_ns", "ns"},
	{"packet.crc_ns_per_flit", "ns"},
	{"core.clock_ns", "ns"},
	{"core.clock_calls", "count"},
	{"core.send_ns", "ns"},
	{"core.send_stall_frac", "ratio"},
	{"core.recv_ns", "ns"},
	{"core.run_allocs", "count"},
	{"core.advance_idle_ns", "ns"},
	{"core.skip_frac", "ratio"},
	{"core.wakeups", "count"},
	{"core.build_ms", "ms"},
	{"core.build_allocs", "count"},
	{"core.checkpoint_ms", "ms"},
	{"core.restore_ms", "ms"},
	{"core.digest_ms", "ms"},
	{"sched.clock_ns_w2", "ns"},
	{"sched.w2_over_w1", "ratio"},
	{"host.run_ns_per_req", "ns"},
	{"host.inject_share", "ratio"},
	{"host.drain_share", "ratio"},
	{"host.overhead_share", "ratio"},
	{"trace.fig5_overhead_frac", "ratio"},
	{"stats.fig5_samples", "count"},
	{"fabric.build_ms", "ms"},
	{"fabric.route_ns", "ns"},
	{"fabric.hops_per_req", "ratio"},
	{"fabric.remote_frac", "ratio"},
	{"model.sim_cycles", "cycles"},
	{"model.table1_shape_relerr", "ratio"},
	{"model.req_per_cycle", "ratio"},
	{"model.bank_conflicts_per_req", "ratio"},
	{"model.xbar_rqst_stalls_per_req", "ratio"},
	{"model.xbar_rsp_stalls_per_req", "ratio"},
	{"model.send_stalls_per_req", "ratio"},
	{"model.latency_events_per_req", "ratio"},
	{"model.latency_mean_cycles", "cycles"},
	{"model.latency_p99_cycles", "cycles"},
	{"loadgen.sent", "count"},
	{"loadgen.late_ms_p90", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"api.decode_us", "us"},
	{"api.encode_status_us", "us"},
	{"api.result_bytes", "bytes"},
	{"cache.key_us", "us"},
	{"cache.lru_get_us", "us"},
	{"cache.lookup_us_mean", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.coalesce_ratio", "ratio"},
	{"store.append_us_p50", "us"},
	{"store.append_us_p90", "us"},
	{"store.save_result_us", "us"},
	{"store.appends_per_job", "ratio"},
	{"store.journal_records", "count"},
	{"store.replay_ms", "ms"},
	{"server.ack_ms_p50", "ms"},
	{"server.ack_ms_p90", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.queue_wait_ms_p90", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.execute_ms", "ms"},
	{"server.run_overhead_frac", "ratio"},
	{"server.worker_util", "ratio"},
	{"server.http_overhead_us", "us"},
	{"server.get_us", "us"},
	{"server.metrics_scrape_ms", "ms"},
	{"server.rejected", "count"},
	{"sse.notify_lag_ms_p50", "ms"},
	{"ledger.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.cycles_ratio", "ratio"},
}

// metric is one value on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally accumulates a run: the values measured so far, the operations
// attempted and failed, and what to print about them. A failed check is
// counted and described, never fatal, so one run reports all of them.
type tally struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     []string
}

func newTally() *tally { return &tally{values: make(map[string]float64)} }

func (t *tally) set(name string, v float64) { t.values[name] = v }

// check counts one attempted operation and, when ok is false, one
// failure with its description.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.notef("FAIL: "+format, args...)
	}
}

func (t *tally) notef(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// result renders the tally over one of the two metric lists; a metric
// the run did not set reads 0.
func (t *tally) result(defs []metricDef) result {
	r := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: t.values[d.name], Unit: d.unit}
	}
	return r
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank p-th percentile (0 < p <= 100) of xs; 0
// for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle of xs, the mean of the middle two for an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentiles are the candidates supportedTail picks from.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// supportedTail returns the highest candidate percentile that leaves at
// least ten of n samples beyond it — the choosing-metrics rule for which
// tail a sample can carry. A sample too small for any tail gets the
// median.
func supportedTail(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles[1:] {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 99.9 is not exact in binary
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
