package eval

import (
	"strings"
	"testing"

	"hmcsim/internal/core"
)

// evalRequests keeps unit-test runs fast; the benches and binaries run at
// larger scales.
const evalRequests = 1 << 13

// tableRequests is large enough for the Table I speedup shape to emerge
// past warm-up effects.
const tableRequests = 1 << 15

func TestRunTableIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table I run in -short mode")
	}
	res, err := RunTableI(tableRequests, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	c := func(i int) uint64 { return res.Rows[i].Result.Cycles }

	// The paper's Table I shape: runtime strictly decreases down the
	// table — more banks and more links both speed the run up.
	if !(c(0) > c(1) && c(1) > c(3)) || !(c(0) > c(2) && c(2) > c(3)) {
		t.Errorf("cycle ordering broken: %d %d %d %d", c(0), c(1), c(2), c(3))
	}
	// Doubling banks helps by roughly 1.5-2x (paper: 1.7x average).
	if res.BankSpeedup < 1.2 || res.BankSpeedup > 2.5 {
		t.Errorf("bank speedup %.3f outside plausible band", res.BankSpeedup)
	}
	// Doubling links helps by roughly 2x (paper: 2.319x average).
	if res.LinkSpeedup < 1.5 || res.LinkSpeedup > 3.2 {
		t.Errorf("link speedup %.3f outside plausible band", res.LinkSpeedup)
	}
	// Total speedup c1 -> c4 approaches the paper's 3.87x.
	total := float64(c(0)) / float64(c(3))
	if total < 2.5 {
		t.Errorf("total speedup %.2f too small", total)
	}
	// Every configuration completed every request.
	for i, row := range res.Rows {
		if row.Result.Sent != tableRequests || row.Result.Errors != 0 {
			t.Errorf("row %d: sent=%d errors=%d", i, row.Result.Sent, row.Result.Errors)
		}
	}

	out := res.Format()
	for _, frag := range []string{"4-Link; 8-Bank; 2GB", "8-Link; 16-Bank; 8GB", "doubling banks", "doubling links"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Format() missing %q", frag)
		}
	}
}

func TestRunFigure5Series(t *testing.T) {
	cfg := core.Table1Configs()[0]
	run, err := RunFigure5(cfg, evalRequests, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Collector.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	tot := run.Collector.Totals()
	var reads, writes, conflicts uint64
	for v := 0; v < cfg.NumVaults; v++ {
		reads += uint64(tot.Reads[v])
		writes += uint64(tot.Writes[v])
		conflicts += uint64(tot.Conflicts[v])
	}
	// The collector's counts reconcile with the engine's.
	if reads != run.Result.Engine.Reads {
		t.Errorf("collector reads %d != engine %d", reads, run.Result.Engine.Reads)
	}
	if writes != run.Result.Engine.Writes+run.Result.Engine.Atomics {
		t.Errorf("collector writes %d != engine %d", writes, run.Result.Engine.Writes)
	}
	if conflicts != run.Result.Engine.BankConflicts {
		t.Errorf("collector conflicts %d != engine %d", conflicts, run.Result.Engine.BankConflicts)
	}
	// A saturating random run must show conflicts on a 8-bank device.
	if conflicts == 0 {
		t.Error("no bank conflicts in a saturating random run")
	}
	// 50/50 mixture.
	if reads < writes/2 || writes < reads/2 {
		t.Errorf("mixture skewed: %d reads / %d writes", reads, writes)
	}
	// Every vault saw traffic.
	for v := 0; v < cfg.NumVaults; v++ {
		if tot.Reads[v]+tot.Writes[v] == 0 {
			t.Errorf("vault %d idle", v)
		}
	}
	// CSV writers function on real data.
	var sb strings.Builder
	if err := run.Collector.WriteSummaryCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines < 2 {
		t.Errorf("summary CSV has %d lines", lines)
	}
}

func TestSweepQueueDepthMonotonicity(t *testing.T) {
	base := core.Table1Configs()[0]
	rows, err := Sweep(base, "queue-depth", []int{2, 64}, func(c *core.Config, v int) { c.QueueDepth = v }, evalRequests, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	// Starving the vault queues must not make the run faster.
	if rows[0].Result.Cycles < rows[1].Result.Cycles {
		t.Errorf("depth 2 (%d cycles) faster than depth 64 (%d cycles)",
			rows[0].Result.Cycles, rows[1].Result.Cycles)
	}
}

func TestBlockSizeSweepRuns(t *testing.T) {
	base := core.Table1Configs()[0]
	rows, err := BlockSizeSweep(base, []int{32, 128}, evalRequests/4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Result.Sent != evalRequests/4 {
			t.Errorf("block %d: sent %d", r.Value, r.Result.Sent)
		}
	}
}

func TestSweepFaultMonotone(t *testing.T) {
	base := core.Table1Configs()[0]
	rows, err := Sweep(base, "fault-ppm", []int{0, 100000}, func(c *core.Config, v int) {
		c.Fault.TransientPPM = v
		c.Fault.Seed = 1
	}, evalRequests, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean, faulty := rows[0].Result, rows[1].Result
	if clean.Engine.LinkRetransmits != 0 {
		t.Errorf("clean run retransmitted %d times", clean.Engine.LinkRetransmits)
	}
	if faulty.Engine.LinkRetransmits == 0 {
		t.Error("10% fault rate produced no retransmissions")
	}
	if faulty.Cycles <= clean.Cycles {
		t.Errorf("faults did not slow the run: %d vs %d cycles", faulty.Cycles, clean.Cycles)
	}
	if faulty.Sent != evalRequests || faulty.Errors != 0 {
		t.Errorf("faulty run lost requests: %+v", faulty)
	}
}

func TestSweepPassingCompletes(t *testing.T) {
	rows, err := Sweep(core.Table1Configs()[0], "xbar-passing", []int{0, 1}, func(c *core.Config, v int) { c.XbarPassing = v == 1 }, evalRequests, 1)
	if err != nil {
		t.Fatal(err)
	}
	strict, passing := rows[0].Result, rows[1].Result
	if strict.Sent != evalRequests || passing.Sent != evalRequests {
		t.Fatalf("sent: strict %d passing %d", strict.Sent, passing.Sent)
	}
	if strict.Errors != 0 || passing.Errors != 0 {
		t.Error("errors under either crossbar policy")
	}
}

func TestLinkSelectionCorollary(t *testing.T) {
	cfg := core.Table1Configs()[0]
	res, err := LinkSelection(cfg, evalRequests, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok1 := res["round-robin"]
	loc, ok2 := res["locality"]
	fixed, ok3 := res["fixed"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing policies: %v", res)
	}
	// Locality-aware routing eliminates latency penalties (the paper's
	// corollary) — round-robin raises many.
	if loc.Engine.LatencyEvents != 0 {
		t.Errorf("locality policy raised %d latency events", loc.Engine.LatencyEvents)
	}
	if rr.Engine.LatencyEvents == 0 {
		t.Error("round-robin raised no latency events")
	}
	// A single injection link cannot beat round-robin across all links.
	if fixed.Cycles < rr.Cycles {
		t.Errorf("single-link injection (%d cycles) beat round-robin (%d)", fixed.Cycles, rr.Cycles)
	}
}

func TestRunFigure5AllComparison(t *testing.T) {
	runs, err := RunFigure5All(evalRequests, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("%d runs", len(runs))
	}
	out := FormatFigure5Comparison(runs)
	if !strings.Contains(out, "4-Link; 8-Bank; 2GB") || !strings.Contains(out, "Latency/req") {
		t.Errorf("comparison output missing rows:\n%s", out)
	}
	// The paper's observation: latency events per request are similar in
	// all four configurations (round-robin injection makes ~3/4 of
	// requests non-colocated regardless of geometry).
	rate := func(i int) float64 {
		return float64(runs[i].Result.Engine.LatencyEvents) / float64(runs[i].Result.Sent)
	}
	for i := 1; i < 4; i++ {
		if rate(i) < rate(0)*0.7 || rate(i) > rate(0)*1.4 {
			t.Errorf("latency-event rates diverge: config0 %.3f vs config%d %.3f", rate(0), i, rate(i))
		}
	}
}

func TestSweepXbarDepthRuns(t *testing.T) {
	rows, err := Sweep(core.Table1Configs()[0], "xbar-depth", []int{16, 128}, func(c *core.Config, v int) { c.XbarDepth = v }, evalRequests/4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	for _, r := range rows {
		if r.Result.Sent != evalRequests/4 || r.Label != "xbar-depth" {
			t.Errorf("row %+v", r)
		}
	}
	// A deeper crossbar never hurts.
	if rows[1].Result.Cycles > rows[0].Result.Cycles+rows[0].Result.Cycles/10 {
		t.Errorf("xbar depth 128 (%d cycles) much slower than 16 (%d)",
			rows[1].Result.Cycles, rows[0].Result.Cycles)
	}
}
