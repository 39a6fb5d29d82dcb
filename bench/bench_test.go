package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {16, 50}, {99, 50}, {100, 90}, {120, 90}, {999, 90},
		{1000, 99}, {3000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := quantile(xs, 90); got != 9 {
		t.Errorf("nearest-rank p90 of 1..10 = %g, want 9", got)
	}
	if got := quantile(xs, 100); got != 10 {
		t.Errorf("p100 of 1..10 = %g, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %g, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want %g", got, want)
	}
}

// fakeClock advances only when slept on or read, so a test of the pacer
// runs in no time and sees exact due times.
type fakeClock struct {
	now   time.Time
	slept time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.now = c.now.Add(time.Microsecond) // reading the clock takes a moment
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d)
	c.slept += d
}

func TestPaceOpenLoop(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	start := c.now.Add(10 * time.Millisecond)
	const interval = 5 * time.Millisecond
	// Send 3 overruns its slot by 12 ms: an open loop does not drop or
	// reschedule what falls due meanwhile, it sends it late.
	cost := map[int]time.Duration{3: 17 * time.Millisecond}
	var late []time.Duration
	pace(c, start, interval, 8, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("send %d: due %v, want %v", i, due, want)
		}
		sent := c.Now()
		if sent.Before(due) {
			t.Errorf("send %d went out %v early", i, due.Sub(sent))
		}
		late = append(late, sent.Sub(due))
		c.Sleep(time.Millisecond + cost[i])
	})
	if len(late) != 8 {
		t.Fatalf("sent %d of 8", len(late))
	}
	for i, l := range late {
		// 4 to 7 fall due during the overrun and go out back to back, a
		// millisecond apart, each less late than the one before.
		want := map[int]time.Duration{4: 13 * time.Millisecond, 5: 9 * time.Millisecond, 6: 5 * time.Millisecond, 7: time.Millisecond}[i]
		if l < want || l > want+50*time.Microsecond {
			t.Errorf("send %d late by %v, want %v", i, l, want)
		}
	}
	if c.slept == 0 {
		t.Error("the pacer never slept: it spun through every gap")
	}
}

func TestStepLoopMatchesDriver(t *testing.T) {
	for _, name := range []string{"table1", "sparse", "fabric-mesh"} {
		legs, err := offlineLegs(name, 7, 256)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range legs[:2] {
			ref, err := runLeg(l)
			if err != nil {
				t.Fatal(err)
			}
			b, err := l.build(nil)
			if err != nil {
				t.Fatal(err)
			}
			st := newStepper(l, b)
			var stepped legRun
			if stepped.res, err = st.run(b.gen, l.n, 0, nil, l.name); err != nil {
				t.Fatal(err)
			}
			stepped.digests(b)
			if r := float64(stepped.res.Cycles) / float64(ref.res.Cycles); math.Abs(r-1) > 0.01 {
				t.Errorf("%s/%s: step loop simulated %d cycles, Driver.Run %d", name, l.name, stepped.res.Cycles, ref.res.Cycles)
			}
			if stepped.resultDigest != ref.resultDigest || stepped.stateDigest != ref.stateDigest {
				t.Errorf("%s/%s: step loop digests %016x/%016x, Driver.Run %016x/%016x", name, l.name,
					stepped.resultDigest, stepped.stateDigest, ref.resultDigest, ref.stateDigest)
			}
			if st.ph.clockCalls == 0 || st.ph.sendCalls < l.n || st.ph.drawn != l.n {
				t.Errorf("%s/%s: phases %+v do not account for %d requests", name, l.name, st.ph, l.n)
			}
		}
	}
}

func TestLedgerCoverage(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	rec := &recorder{epoch: at(0)}
	rec.add("job", "a", "", "", at(0), at(100))
	rec.add("setup", "a", "job", "a", at(0), at(10))
	rec.add("run", "a", "job", "a", at(10), at(90))
	rec.add("host.batch", "a/0", "run", "a", at(10), at(90))
	rec.addBusy("core.clock", "a/0", "host.batch", at(10), at(90), 60*time.Millisecond, 5)
	rec.addBusy("host.inject", "a/0", "host.batch", at(10), at(90), 15*time.Millisecond, 5)
	rec.add("api.decode", isolatedID, "", "", at(200), at(300))
	if got := coverage(rec.spans); math.Abs(got-0.85) > 1e-9 {
		t.Errorf("coverage = %g, want 0.85 (10 set-up + 60 clock + 15 inject of 100)", got)
	}
	self := selfTimes(rec.spans)
	for name, want := range map[string]time.Duration{
		"job": 10 * time.Millisecond, "run": 0, "host.batch": 5 * time.Millisecond, "core.clock": 60 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := boundedMetric{Name: "job_ms_p50", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "sim_req_per_s", Better: "higher", Bound: 0.07}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 130, 75, 110, 90, 140, 70, 105, 95, 120}
	for _, c := range []struct {
		name string
		a, b []float64
		m    boundedMetric
		want string
	}{
		{"same", steady, steady, lower, verdictOK},
		{"within bound", steady, shift(steady, 1.05), lower, verdictOK},
		{"slower by more than the bound", steady, shift(steady, 1.2), lower, verdictWorse},
		{"faster is never worse", steady, shift(steady, 0.5), lower, verdictOK},
		{"throughput down", steady, shift(steady, 0.9), higher, verdictWorse},
		{"throughput up", steady, shift(steady, 1.5), higher, verdictOK},
		{"spread wider than the bound", noisy, shift(noisy, 1.02), lower, verdictUnresolved},
		{"noisy but every run worse", noisy, shift(noisy, 3), lower, verdictWorse},
		{"noisy but every run better", noisy, shift(noisy, 0.3), lower, verdictOK},
	} {
		if _, got := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestNamesMatchBenchmarkJSON runs every workload at a tiny scale, with
// and without tracing, and requires the workload names and the metric
// names and units each run emits to be exactly BENCHMARK.json's.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bm, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloads)
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" || strings.Join(bm.Command, " ") != "go run ./bench" {
		t.Errorf("BENCHMARK.json command %q paths %q, want go run ./bench over bench", bm.Command, bm.Paths)
	}
	declared := func(ms []boundedMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	dir := t.TempDir()
	for _, name := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", name, "-seed", "3", "-seconds", "0.1", "-trace", trace, "-scale", "256", "-outdir", dir, "-out", filepath.Join(dir, "runs.json")}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result object: %v\n%s", name, trace, err, lines[len(lines)-1])
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			var got []string
			for n, m := range res.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			sort.Strings(got)
			want := declared(bm.EndToEnd)
			if trace == "1" {
				want = declared(bm.PerLayer)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s trace %s emits\n%v\nBENCHMARK.json declares\n%v", name, trace, got, want)
			}
		}
	}
	f, err := readResults(filepath.Join(dir, "runs.json"))
	if err != nil || len(f.Runs) != 2*len(workloads) {
		t.Fatalf("result file holds %d runs (%v), want %d", len(f.Runs), err, 2*len(workloads))
	}
	if e := f.Runs[0].Env; e.NumCPU < 1 || e.GoVersion == "" {
		t.Errorf("run recorded no environment: %+v", e)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "store-*"))
	if len(left) != 0 {
		t.Errorf("service store directories left behind: %v", left)
	}
	for _, name := range workloads {
		if _, err := os.Stat(filepath.Join(dir, name+"-seed3.spans.json")); err != nil {
			t.Errorf("traced run of %s wrote no spans: %v", name, err)
		}
	}
}

func TestStealFilter(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(100, 0).Add(time.Duration(ms) * time.Millisecond) }
	// Ten 100 ms windows on 2 CPUs; windows 3 and 4 lose 30 % and 10 %,
	// window 7 one tick (5 %, not over the limit).
	s := &stealSampler{ncpu: 2}
	lost := []uint64{0, 0, 0, 6, 2, 0, 0, 1, 0, 0}
	var ticks uint64
	s.at, s.ticks = append(s.at, at(0)), append(s.ticks, 50)
	for i, l := range lost {
		ticks += l
		s.at, s.ticks = append(s.at, at(100*(i+1))), append(s.ticks, 50+ticks)
	}
	if got := s.stolen(3); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("window 3 lost %g, want 0.3", got)
	}
	for _, c := range []struct {
		from, to int
		dirty    bool
	}{{0, 290, false}, {250, 310, true}, {410, 480, true}, {500, 1000, false}, {700, 800, false}, {0, 1000, true}} {
		if got := s.dirty(at(c.from), at(c.to)); got != c.dirty {
			t.Errorf("dirty(%d, %d) = %v, want %v", c.from, c.to, got, c.dirty)
		}
	}

	type iv struct{ from, to int }
	span := func(x iv) (time.Time, time.Time) { return at(x.from), at(x.to) }
	kept, dropped := keepClean(s, []iv{{0, 50}, {120, 180}, {320, 380}, {450, 460}, {600, 900}}, span)
	if len(kept) != 3 || dropped != 2 {
		t.Errorf("kept %v and dropped %d, want 3 kept and 2 dropped", kept, dropped)
	}
	// More than half dirty: nothing clean to report, so all are kept.
	kept, dropped = keepClean(s, []iv{{300, 350}, {310, 390}, {0, 50}}, span)
	if len(kept) != 3 || dropped != 0 {
		t.Errorf("kept %v and dropped %d of a mostly dirty sample, want all 3 kept", kept, dropped)
	}

	// One event every 10 ms from 155 to 845: 100/s. [150, 850] cuts
	// windows 1 and 8 in half; 3 and 4 are dirty and their events and
	// their time do not count.
	var events []time.Time
	for ms := 155; ms < 850; ms += 10 {
		events = append(events, at(ms))
	}
	got, clean := s.rate(events, at(150), at(850))
	if math.Abs(got-100) > 1e-6 || math.Abs(clean-5.0/7) > 1e-9 {
		t.Errorf("rate = %g/s over %g of the interval, want 100/s over 5/7", got, clean)
	}
	// An interval whose windows are mostly dirty falls back to the plain rate.
	got, clean = s.rate(events[15:35], at(300), at(500))
	if math.Abs(got-100) > 1e-6 || clean != 0 {
		t.Errorf("rate over dirty windows = %g/s (clean share %g), want the plain 100/s and 0", got, clean)
	}
}
