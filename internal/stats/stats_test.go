package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"hmcsim/internal/trace"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram not zeroed")
	}
	for _, v := range []uint64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 110 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("min=%d max=%d", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 22 {
		t.Errorf("mean=%v", got)
	}
	if h.String() == "" {
		t.Error("String empty")
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	p50 := h.Percentile(50)
	// p50 is an upper bound at bucket resolution: the true p50 is 500,
	// bucket edge 511.
	if p50 < 500 || p50 > 1023 {
		t.Errorf("p50 = %d", p50)
	}
	if h.Percentile(100) < h.Percentile(0) {
		t.Error("percentiles not monotone")
	}
	if got := h.Percentile(-5); got != h.Percentile(0) {
		t.Errorf("clamped percentile: %d", got)
	}
}

func TestHistogramPropertyPercentileIsUpperBound(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		max := uint64(0)
		for _, v := range vals {
			h.Observe(uint64(v))
			if uint64(v) > max {
				max = uint64(v)
			}
		}
		// Percentile reports bucket upper edges clamped to the max: p100
		// is the max, no percentile exceeds it, and percentiles are
		// monotone in p.
		if h.Percentile(100) != max || h.Percentile(0) > h.Percentile(100) {
			return false
		}
		for p := -1.0; p <= 101; p += 0.5 {
			if h.Percentile(p) > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(1)
	a.Observe(10)
	b.Observe(5)
	b.Observe(100)
	a.Merge(&b)
	if a.Count() != 4 || a.Sum() != 116 || a.Min() != 1 || a.Max() != 100 {
		t.Errorf("merged: %s", a.String())
	}
	var empty Histogram
	a.Merge(&empty)
	if a.Count() != 4 {
		t.Error("merging empty changed count")
	}
	empty.Merge(&a)
	if empty.Count() != 4 || empty.Min() != 1 {
		t.Error("merge into empty broken")
	}
}

func ev(clock uint64, kind trace.Kind, vault int, cmd string) trace.Event {
	return trace.Event{Clock: clock, Kind: kind, Dev: 0, Vault: vault, Cmd: cmd}
}

func TestFig5CollectorSeries(t *testing.T) {
	c := NewFig5Collector(0, 4, 1)
	c.Trace(ev(0, trace.KindRqst, 1, "RD64"))
	c.Trace(ev(0, trace.KindRqst, 1, "WR64"))
	c.Trace(ev(0, trace.KindBankConflict, 2, "RD64"))
	c.Trace(ev(0, trace.KindXbarRqstStall, -1, "RD64"))
	c.Trace(ev(1, trace.KindRqst, 3, "P_WR64"))
	c.Trace(ev(1, trace.KindLatency, 0, "RD64"))
	c.Flush()

	if len(c.Samples) != 2 {
		t.Fatalf("%d samples, want 2", len(c.Samples))
	}
	s0 := c.Samples[0]
	if s0.Reads[1] != 1 || s0.Writes[1] != 1 || s0.Conflicts[2] != 1 || s0.XbarStalls != 1 {
		t.Errorf("sample 0 = %+v", s0)
	}
	s1 := c.Samples[1]
	if s1.Writes[3] != 1 || s1.Latency != 1 {
		t.Errorf("sample 1 = %+v", s1)
	}
}

func TestFig5CollectorIgnoresOtherDevices(t *testing.T) {
	c := NewFig5Collector(0, 4, 1)
	e := ev(0, trace.KindRqst, 1, "RD64")
	e.Dev = 1
	c.Trace(e)
	c.Flush()
	if len(c.Samples) != 0 {
		t.Error("events from other devices collected")
	}
}

func TestFig5CollectorInterval(t *testing.T) {
	c := NewFig5Collector(0, 2, 10)
	for clk := uint64(0); clk < 25; clk++ {
		c.Trace(ev(clk, trace.KindRqst, 0, "RD16"))
	}
	c.Flush()
	if len(c.Samples) != 3 {
		t.Fatalf("%d samples, want 3 (buckets of 10 over 25 cycles)", len(c.Samples))
	}
	if c.Samples[0].Reads[0] != 10 || c.Samples[1].Reads[0] != 10 || c.Samples[2].Reads[0] != 5 {
		t.Errorf("bucket counts: %d %d %d",
			c.Samples[0].Reads[0], c.Samples[1].Reads[0], c.Samples[2].Reads[0])
	}
	if c.Samples[1].CycleStart != 10 || c.Samples[2].CycleStart != 20 {
		t.Errorf("bucket starts: %d %d", c.Samples[1].CycleStart, c.Samples[2].CycleStart)
	}
}

func TestFig5CollectorSkipsEmptyBuckets(t *testing.T) {
	c := NewFig5Collector(0, 2, 1)
	c.Trace(ev(0, trace.KindRqst, 0, "RD16"))
	c.Trace(ev(100, trace.KindRqst, 0, "RD16"))
	c.Flush()
	if len(c.Samples) != 2 {
		t.Fatalf("%d samples, want 2 (empty gap elided)", len(c.Samples))
	}
	if c.Samples[1].CycleStart != 100 {
		t.Errorf("second sample starts at %d", c.Samples[1].CycleStart)
	}
}

func TestFig5Totals(t *testing.T) {
	c := NewFig5Collector(0, 2, 1)
	for clk := uint64(0); clk < 5; clk++ {
		c.Trace(ev(clk, trace.KindRqst, 0, "RD16"))
		c.Trace(ev(clk, trace.KindRqst, 1, "WR16"))
		c.Trace(ev(clk, trace.KindBankConflict, 1, "WR16"))
	}
	c.Flush()
	tot := c.Totals()
	if tot.Reads[0] != 5 || tot.Writes[1] != 5 || tot.Conflicts[1] != 5 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestFig5CSV(t *testing.T) {
	c := NewFig5Collector(0, 2, 1)
	c.Trace(ev(3, trace.KindRqst, 1, "RD64"))
	c.Trace(ev(3, trace.KindXbarRqstStall, -1, ""))
	c.Flush()

	var sb strings.Builder
	if err := c.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, "cycle,vault,conflicts,reads,writes") {
		t.Errorf("missing header: %q", got)
	}
	if !strings.Contains(got, "3,1,0,1,0") {
		t.Errorf("missing data row: %q", got)
	}

	sb.Reset()
	if err := c.WriteSummaryCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got = sb.String()
	if !strings.Contains(got, "3,0,1,0,1,0") {
		t.Errorf("summary row missing: %q", got)
	}
}

func TestLatencyReconstructor(t *testing.T) {
	l := NewLatencyReconstructor()
	// Send on link 2 tag 5 at clock 10; serviced at clock 14.
	l.Trace(trace.Event{Kind: trace.KindSend, Clock: 10, Link: 2, Tag: 5})
	l.Trace(trace.Event{Kind: trace.KindRqst, Clock: 14, Vault: 3, Tag: 5, Aux: 2})
	if l.Service.Count() != 1 || l.Service.Max() != 4 {
		t.Errorf("service latency: %s", l.Service.String())
	}
	if l.Pending() != 0 {
		t.Errorf("pending = %d", l.Pending())
	}
	// Tag reuse after completion works.
	l.Trace(trace.Event{Kind: trace.KindSend, Clock: 20, Link: 2, Tag: 5})
	l.Trace(trace.Event{Kind: trace.KindRqst, Clock: 21, Vault: 0, Tag: 5, Aux: 2})
	if l.Service.Count() != 2 || l.Service.Min() != 1 {
		t.Errorf("after reuse: %s", l.Service.String())
	}
	// Unmatched service events are counted, not crashed on.
	l.Trace(trace.Event{Kind: trace.KindRqst, Clock: 30, Vault: 1, Tag: 99, Aux: 0})
	if l.Unmatched != 1 {
		t.Errorf("unmatched = %d", l.Unmatched)
	}
	// Register-interface RQST events (no vault) are ignored.
	l.Trace(trace.Event{Kind: trace.KindRqst, Clock: 31, Vault: trace.None, Tag: 5, Aux: 2})
	if l.Unmatched != 1 {
		t.Errorf("mode request miscounted: unmatched = %d", l.Unmatched)
	}
}

// TestLatencyReconstructorOverwrite pins the reused-key semantics: a
// second SEND under a live (link, tag) abandons the first rather than
// corrupting its sample, and the later service event measures against
// the newer send.
func TestLatencyReconstructorOverwrite(t *testing.T) {
	l := NewLatencyReconstructor()
	l.Trace(trace.Event{Kind: trace.KindSend, Clock: 10, Link: 1, Tag: 7})
	// The tag comes back into circulation (ERROR response freed it)
	// before any RQST: the old send is overwritten, not matched.
	l.Trace(trace.Event{Kind: trace.KindSend, Clock: 50, Link: 1, Tag: 7})
	if l.Overwritten != 1 {
		t.Errorf("overwritten = %d, want 1", l.Overwritten)
	}
	if l.Pending() != 1 {
		t.Errorf("pending = %d, want 1", l.Pending())
	}
	// The service event matches the newer send: latency 3, not 43.
	l.Trace(trace.Event{Kind: trace.KindRqst, Clock: 53, Vault: 0, Tag: 7, Aux: 1})
	if l.Service.Count() != 1 || l.Service.Max() != 3 {
		t.Errorf("service after overwrite: %s", l.Service.String())
	}
	if l.Pending() != 0 {
		t.Errorf("pending after match = %d", l.Pending())
	}
}

// TestLatencyReconstructorBound pins the in-flight bound: sends that
// never match are evicted oldest-first once MaxInflight is exceeded, so
// the table cannot grow without bound over a long faulty trace.
func TestLatencyReconstructorBound(t *testing.T) {
	l := NewLatencyReconstructor()
	l.MaxInflight = 8
	// 100 sends with unique tags and no service events at all.
	for i := 0; i < 100; i++ {
		l.Trace(trace.Event{Kind: trace.KindSend, Clock: uint64(i), Link: 0, Tag: uint16(i)})
	}
	if l.Pending() != 8 {
		t.Errorf("pending = %d, want bound 8", l.Pending())
	}
	if l.Abandoned != 92 {
		t.Errorf("abandoned = %d, want 92", l.Abandoned)
	}
	// The survivors are the newest 8; an old tag is gone (unmatched),
	// a recent one still matches.
	l.Trace(trace.Event{Kind: trace.KindRqst, Clock: 200, Vault: 0, Tag: 0, Aux: 0})
	if l.Unmatched != 1 {
		t.Errorf("unmatched = %d, want 1 (evicted send)", l.Unmatched)
	}
	l.Trace(trace.Event{Kind: trace.KindRqst, Clock: 200, Vault: 0, Tag: 99, Aux: 0})
	if l.Service.Count() != 1 {
		t.Errorf("recent send did not match: count = %d", l.Service.Count())
	}

	// Flush abandons the rest and empties the table.
	l.Flush()
	if l.Pending() != 0 {
		t.Errorf("pending after flush = %d", l.Pending())
	}
	if l.Abandoned != 92+7 {
		t.Errorf("abandoned after flush = %d, want 99", l.Abandoned)
	}
}

// TestLatencyReconstructorFIFOCompaction hammers the send/match cycle to
// check the eviction fifo compacts: matched entries go stale and must
// not pin memory or miscount later evictions.
func TestLatencyReconstructorFIFOCompaction(t *testing.T) {
	l := NewLatencyReconstructor()
	l.MaxInflight = 4
	for round := 0; round < 1000; round++ {
		tag := uint16(round % 16)
		l.Trace(trace.Event{Kind: trace.KindSend, Clock: uint64(2 * round), Link: 0, Tag: tag})
		l.Trace(trace.Event{Kind: trace.KindRqst, Clock: uint64(2*round + 1), Vault: 0, Tag: tag, Aux: 0})
	}
	if l.Pending() != 0 {
		t.Errorf("pending = %d", l.Pending())
	}
	if l.Abandoned != 0 || l.Overwritten != 0 || l.Unmatched != 0 {
		t.Errorf("clean trace miscounted: abandoned=%d overwritten=%d unmatched=%d",
			l.Abandoned, l.Overwritten, l.Unmatched)
	}
	if l.Service.Count() != 1000 {
		t.Errorf("service count = %d", l.Service.Count())
	}
	if len(l.fifo) > 2*l.MaxInflight+64 {
		t.Errorf("fifo did not compact: len %d", len(l.fifo))
	}
}
