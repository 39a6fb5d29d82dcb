package ddrsim

import (
	"testing"

	"hmcsim/internal/cpu"
	"hmcsim/internal/workload"
)

func smallCfg() Config {
	return Config{
		Channels: 2, Banks: 8, RowBytes: 8192, CapacityGB: 2,
		QueueDepth: 16, TRCD: 11, TCAS: 11, TRP: 11, TBurst: 4,
	}
}

// stream drives n accesses from gen through a new DDR subsystem on the
// open-loop runner and returns the run and the controller counters.
func stream(t *testing.T, cfg Config, gen workload.Generator, n uint64) (cpu.StreamResult, Stats) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Stream(d, gen, n)
	if err != nil {
		t.Fatal(err)
	}
	return res, d.Stats()
}

func TestConfigValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Channels = 3 },
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Banks = 6 },
		func(c *Config) { c.RowBytes = 1000 },
		func(c *Config) { c.CapacityGB = 0 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.TCAS = 0 },
	}
	for i, mut := range cases {
		c := smallCfg()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DDR3_1600(4).Validate(); err != nil {
		t.Errorf("DDR3_1600 invalid: %v", err)
	}
}

func TestSingleReadLatency(t *testing.T) {
	d, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(Request{Addr: 0, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	var done []Completion
	for i := 0; i < 100 && len(done) == 0; i++ {
		done = d.Clock()
	}
	if len(done) != 1 || done[0].Tag != 1 {
		t.Fatalf("completions = %v", done)
	}
	// Cold bank: tRCD + tCAS + tBurst = 26, retired on the following
	// cycle's scan.
	want := uint64(11 + 11 + 4)
	if done[0].Finish < want || done[0].Finish > want+3 {
		t.Errorf("finish = %d, want ~%d", done[0].Finish, want)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	lat := func(a1, a2 uint64) uint64 {
		d, _ := New(smallCfg())
		_ = d.Enqueue(Request{Addr: a1, Tag: 1})
		for i := 0; i < 100; i++ {
			if len(d.Clock()) == 1 {
				break
			}
		}
		start := d.Clk()
		_ = d.Enqueue(Request{Addr: a2, Tag: 2})
		for i := 0; i < 200; i++ {
			if c := d.Clock(); len(c) == 1 {
				return c[0].Finish - start
			}
		}
		t.Fatal("no completion")
		return 0
	}
	hit := lat(0, 128)    // channel 0, same row
	miss := lat(0, 1<<17) // channel 0, bank 0, next row (rows*banks*channels bytes away)
	if hit >= miss {
		t.Errorf("row hit latency %d not faster than miss %d", hit, miss)
	}
}

func TestStatsRowHitTracking(t *testing.T) {
	d, _ := New(smallCfg())
	// Two sequential accesses in one row: one open + one hit.
	_ = d.Enqueue(Request{Addr: 0, Tag: 1})
	_ = d.Enqueue(Request{Addr: 256, Tag: 2})
	total := 0
	for i := 0; i < 200 && total < 2; i++ {
		total += len(d.Clock())
	}
	st := d.Stats()
	if st.RowOpens < 1 || st.RowHits < 1 {
		t.Errorf("stats = %+v, want >=1 open and >=1 hit", st)
	}
}

func TestEnqueueBackpressure(t *testing.T) {
	cfg := smallCfg()
	cfg.QueueDepth = 2
	d, _ := New(cfg)
	// Fill channel 0 (addresses with channel bits = 0).
	if err := d.Enqueue(Request{Addr: 0, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(Request{Addr: 1 << 20, Tag: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(Request{Addr: 2 << 20, Tag: 3}); err != ErrFull {
		t.Fatalf("third enqueue = %v, want ErrFull", err)
	}
	if d.Stats().EnqStalls != 1 {
		t.Errorf("EnqStalls = %d", d.Stats().EnqStalls)
	}
	// Channel 1 still has space.
	if err := d.Enqueue(Request{Addr: 64, Tag: 4}); err != nil {
		t.Errorf("other channel rejected: %v", err)
	}
}

func TestAllRequestsComplete(t *testing.T) {
	gen, err := workload.NewRandomAccess(1, 1<<28, 64, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, st := stream(t, smallCfg(), gen, 2000)
	if res.Sent != 2000 {
		t.Errorf("sent = %d", res.Sent)
	}
	if res.Latency.Count() != 2000 {
		t.Errorf("latencies = %d", res.Latency.Count())
	}
	if got := st.Reads + st.Writes; got != 2000 {
		t.Errorf("retired = %d", got)
	}
	if res.Cycles == 0 {
		t.Error("zero cycles")
	}
}

func TestStreamBeatsRandom(t *testing.T) {
	// The defining property of the row-buffer model: streaming traffic
	// (row hits) sustains far higher throughput than random traffic (row
	// misses).
	seq, _ := workload.NewStream(1, 1<<20, 64, 50)
	random, _ := workload.NewRandomAccess(1, 1<<30, 64, 50)
	rs, ss := stream(t, smallCfg(), seq, 4000)
	rr, sr := stream(t, smallCfg(), random, 4000)
	if rs.Throughput() <= rr.Throughput() {
		t.Errorf("stream %.3f req/cyc not faster than random %.3f",
			rs.Throughput(), rr.Throughput())
	}
	if ss.RowHits <= sr.RowHits {
		t.Errorf("stream row hits %d <= random row hits %d", ss.RowHits, sr.RowHits)
	}
}

func TestFRFCFSBeatsFCFSOnMixedTraffic(t *testing.T) {
	// Hotspot traffic mixes row hits and misses; FR-FCFS must not be
	// slower than strict FCFS.
	run := func(frfcfs bool) cpu.StreamResult {
		cfg := smallCfg()
		cfg.FRFCFS = frfcfs
		gen, _ := workload.NewHotspot(3, 1<<28, 1<<13, 60, 64, 50)
		res, _ := stream(t, cfg, gen, 3000)
		return res
	}
	fr := run(true)
	fc := run(false)
	if fr.Cycles > fc.Cycles+fc.Cycles/10 {
		t.Errorf("FR-FCFS (%d cycles) markedly slower than FCFS (%d cycles)", fr.Cycles, fc.Cycles)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() (cpu.StreamResult, Stats) {
		gen, _ := workload.NewRandomAccess(9, 1<<28, 64, 50)
		return stream(t, smallCfg(), gen, 1000)
	}
	a, as := run()
	b, bs := run()
	if a.Cycles != b.Cycles || as != bs {
		t.Error("DDR runs not deterministic")
	}
}

func TestDecodeCoverage(t *testing.T) {
	d, _ := New(smallCfg())
	seenCh := map[int]bool{}
	seenBank := map[int]bool{}
	for a := uint64(0); a < 1<<18; a += 64 {
		ch, b, _ := d.decode(a)
		if ch < 0 || ch >= 2 || b < 0 || b >= 8 {
			t.Fatalf("decode(%#x) = ch%d b%d", a, ch, b)
		}
		seenCh[ch] = true
		seenBank[b] = true
	}
	if len(seenCh) != 2 || len(seenBank) != 8 {
		t.Errorf("decode covered %d channels, %d banks", len(seenCh), len(seenBank))
	}
}
