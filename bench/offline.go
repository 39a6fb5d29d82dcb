package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/host"
	"hmcsim/internal/stats"
	"hmcsim/internal/trace"
	"hmcsim/internal/workload"
)

// legRequests is the request count of every offline leg at scale 1: the
// repository's interactive Table I size (eval.DefaultRequests).
const legRequests = eval.DefaultRequests

// minReps is the fewest timed repetitions an offline run reports a
// median over, however short --seconds is.
const minReps = 3

// setupRounds is how many times an offline run builds every leg to take
// setup_s as a median: a build is under a millisecond, so many are cheap
// and few would be noise.
const setupRounds = 50

// leg is one offline job: a device configuration, an access stream and a
// request count, run from engine build to result digest through the
// public Go API. A workload is a few legs; a repetition runs each once.
type leg struct {
	name   string
	cfg    core.Config
	wl     workload.Spec
	n      uint64
	fabric *fabric.Spec
	fig5   uint64 // Figure 5 sampling interval; 0 runs untraced
}

// offlineLegs generates a workload's legs from the seed. The seed reaches
// the program only through the workload.Spec values built here.
func offlineLegs(name string, seed uint32, scale uint64) ([]leg, error) {
	n := max(legRequests/scale, 256)
	cfgs := core.Table1Configs()
	for i := range cfgs {
		cfgs[i].Workers = 1
	}
	var legs []leg
	switch name {
	case "table1":
		for i, cfg := range cfgs {
			legs = append(legs, leg{name: fmt.Sprintf("config%d", i+1), cfg: cfg, wl: workload.TableISpec(seed), n: n})
		}
	case "sparse":
		gap := func(kind string, cycles uint64) workload.Spec {
			s := workload.TableISpec(seed)
			s.Kind, s.GapCycles = kind, cycles
			return s
		}
		legs = []leg{
			{name: "random-gap200", cfg: cfgs[0], wl: gap("random", 200), n: n},
			{name: "chase-gap500", cfg: cfgs[0], wl: gap("chase", 500), n: n},
			{name: "random-gap8", cfg: cfgs[0], wl: gap("random", 8), n: n},
		}
	case "fabric-mesh":
		// 2^22 requests as four legs with consecutive workload seeds, so
		// a repetition yields four job samples instead of one.
		for i := 0; i < 4; i++ {
			legs = append(legs, leg{
				name: fmt.Sprintf("mesh2x2-%d", i), cfg: cfgs[0], wl: workload.TableISpec(seed + uint32(i)), n: n,
				fabric: &fabric.Spec{Topology: "mesh", Rows: 2, Cols: 2},
			})
		}
	case "fig5-trace":
		// 2^21 requests as two legs, for the same reason.
		for i := 0; i < 2; i++ {
			legs = append(legs, leg{
				name: fmt.Sprintf("fig5-%d", i), cfg: cfgs[0], wl: workload.TableISpec(seed + uint32(i)), n: n, fig5: 64,
			})
		}
	default:
		return nil, fmt.Errorf("bench: %q is not an offline workload", name)
	}
	return legs, nil
}

// built is a leg ready to run: the wiring server.Execute and
// eval.RunFigure5 use, through the same exported constructors.
type built struct {
	h   *core.HMC
	sys *engine.System
	gen workload.Generator
	drv *host.Driver
	col *stats.Fig5Collector
}

// build constructs the engine, the generator and the driver, and records
// one span per constructor under the leg's set-up span.
func (l leg) build(rec *recorder) (*built, error) {
	var b built
	var opts []core.Option
	if l.fig5 > 0 {
		b.col = stats.NewFig5Collector(0, l.cfg.NumVaults, l.fig5)
		opts = append(opts, core.WithTrace(b.col, trace.MaskPerf))
	}
	t0 := time.Now()
	capacity := uint64(l.cfg.CapacityGB) << 30
	var err error
	if l.fabric != nil {
		if b.sys, err = engine.Build(*l.fabric, l.cfg, opts...); err != nil {
			return nil, err
		}
		b.h, capacity = b.sys.Engine(), b.sys.Capacity()
		rec.add("fabric.build", l.name, "setup", l.name, t0, time.Now())
	} else {
		if b.h, err = eval.BuildSimpleWithOptions(l.cfg, opts...); err != nil {
			return nil, err
		}
		rec.add("core.build", l.name, "setup", l.name, t0, time.Now())
	}
	t1 := time.Now()
	if b.gen, err = l.wl.Build(capacity); err != nil {
		return nil, err
	}
	t2 := time.Now()
	rec.add("workload.build", l.name, "setup", l.name, t1, t2)
	hopts := host.Options{GapCycles: l.wl.GapCycles, DisableIdleSkip: l.wl.NoIdleSkip}
	if b.sys != nil {
		b.drv, err = b.sys.NewDriver(hopts)
	} else {
		b.drv, err = host.NewDriver(b.h, hopts)
	}
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	rec.add("host.build", l.name, "setup", l.name, t2, t3)
	rec.add("setup", l.name, "job", l.name, t0, t3)
	return &b, nil
}

// legRun is what one execution of a leg measured and produced. Durations
// are CPU time (cpuTime), which is what "host time" means on the offline
// workloads.
type legRun struct {
	run, total   time.Duration
	res          host.Result
	resultDigest uint64
	stateDigest  uint64
	fabricDigest uint64
	fig5Samples  int
}

// digests fills the run's result, state and fabric digests — the values
// the service's result payload carries — and flushes the Figure 5
// collector.
func (lr *legRun) digests(b *built) {
	lr.resultDigest = eval.ResultDigest(lr.res)
	lr.stateDigest = b.h.StateDigest()
	if b.sys != nil {
		lr.fabricDigest = b.sys.Totals().Digest()
	}
	if b.col != nil {
		b.col.Flush()
		lr.fig5Samples = len(b.col.Samples)
	}
}

// runLeg executes one leg through host.Driver.Run: build, run, digests.
func runLeg(l leg) (legRun, error) {
	var lr legRun
	c0 := cpuTime()
	b, err := l.build(nil)
	if err != nil {
		return lr, err
	}
	c1 := cpuTime()
	if lr.res, err = b.drv.Run(b.gen, l.n); err != nil {
		return lr, err
	}
	c2 := cpuTime()
	lr.digests(b)
	lr.run, lr.total = c2-c1, cpuTime()-c0
	return lr, nil
}

// checkRun counts the per-run correctness conditions: every request sent
// and answered, no error responses, and digests equal to the first
// repetition's (which may be lr itself).
func checkRun(t *tally, l leg, lr, first *legRun) {
	r := lr.res
	t.check(r.Sent == l.n && r.Completed == l.n && r.Errors == 0,
		"%s: sent %d completed %d errors %d, want %d/%d/0", l.name, r.Sent, r.Completed, r.Errors, l.n, l.n)
	t.check(lr.resultDigest == first.resultDigest && lr.stateDigest == first.stateDigest && lr.fabricDigest == first.fabricDigest,
		"%s: digests %016x/%016x/%016x differ from the first repetition's %016x/%016x/%016x", l.name,
		lr.resultDigest, lr.stateDigest, lr.fabricDigest, first.resultDigest, first.stateDigest, first.fabricDigest)
}

// warmUp runs one untimed quarter-size repetition so the heap, the page
// cache and the branch predictors are in their steady state before the
// first timed repetition.
func warmUp(legs []leg) error {
	for _, l := range legs {
		l.n = max(l.n/4, 256)
		if _, err := runLeg(l); err != nil {
			return fmt.Errorf("warm-up %s: %w", l.name, err)
		}
	}
	return nil
}

// checkWalk runs the first 2^14 requests of a gap-paced leg twice, with
// the idle-skip wheel and with the exact cycle-by-cycle walk, and counts
// a failure unless the two digest identically (the wheel's contract).
func checkWalk(t *tally, l leg) error {
	l.n = min(l.n, 1<<14)
	skip, err := runLeg(l)
	if err != nil {
		return err
	}
	l.wl.NoIdleSkip = true
	walk, err := runLeg(l)
	if err != nil {
		return err
	}
	t.check(skip.resultDigest == walk.resultDigest && skip.stateDigest == walk.stateDigest,
		"%s: idle-skip digest %016x/%016x differs from the walk's %016x/%016x", l.name,
		skip.resultDigest, skip.stateDigest, walk.resultDigest, walk.stateDigest)
	t.check(skip.res.IdleCyclesSkipped > 0 && walk.res.IdleCyclesSkipped == 0,
		"%s: skipped %d cycles with the wheel and %d on the walk", l.name,
		skip.res.IdleCyclesSkipped, walk.res.IdleCyclesSkipped)
	return nil
}

// setUps builds every leg setupRounds times and returns the CPU seconds
// each round took: engine, generator and driver, summed over the legs.
// The collector is off meanwhile. With it on, whether a sub-millisecond
// build shares its round with a collection, and whether it reuses heap
// just freed or faults in fresh pages, moved the figure by a third from
// run to run; off, every build allocates fresh memory and nothing else
// runs, which is also what a build in a new process does.
func setUps(legs []leg) ([]float64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var secs []float64
	for i := 0; i < setupRounds; i++ {
		c0 := cpuTime()
		for _, l := range legs {
			if _, err := l.build(nil); err != nil {
				return nil, fmt.Errorf("%s: %w", l.name, err)
			}
		}
		secs = append(secs, (cpuTime() - c0).Seconds())
	}
	return secs, nil
}

// totalAlloc reads the bytes allocated so far, after a collection so
// that every repetition starts from the same heap.
func totalAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

const mb = 1 << 20

// runOffline is the untraced run of an offline workload: one warm-up,
// then timed repetitions until the next would not fit in o.seconds (at
// least minReps), each metric the median over repetitions.
func runOffline(o runOpts, t *tally) error {
	legs, err := offlineLegs(o.workload, uint32(o.seed), o.scale)
	if err != nil {
		return err
	}
	if err := warmUp(legs); err != nil {
		return err
	}
	if o.workload == "sparse" {
		if err := checkWalk(t, legs[0]); err != nil {
			return err
		}
	}
	setupS, err := setUps(legs)
	if err != nil {
		return err
	}
	var (
		first                                    []legRun
		reqPerS, cycPerS, allocMB, batchS, jobMS []float64
		began, beganCPU                          = time.Now(), cpuTime()
		lastRep                                  time.Duration
	)
	for rep := 0; rep < minReps || time.Since(began)+lastRep <= o.seconds; rep++ {
		alloc0 := totalAlloc()
		repStart := time.Now()
		var run, total time.Duration
		var cycles, reqs uint64
		runs := make([]legRun, len(legs))
		for i, l := range legs {
			lr, err := runLeg(l)
			if err != nil {
				return fmt.Errorf("%s: %w", l.name, err)
			}
			runs[i] = lr
			run, total = run+lr.run, total+lr.total
			cycles, reqs = cycles+lr.res.Cycles, reqs+lr.res.Sent
			jobMS = append(jobMS, ms(lr.total))
		}
		lastRep = time.Since(repStart)
		alloc1 := totalAlloc()
		if first == nil {
			first = runs
		}
		for i, l := range legs {
			checkRun(t, l, &runs[i], &first[i])
		}
		reqPerS = append(reqPerS, float64(reqs)/run.Seconds())
		cycPerS = append(cycPerS, float64(cycles)/run.Seconds())
		allocMB = append(allocMB, float64(alloc1-alloc0)/mb)
		batchS = append(batchS, float64(len(legs))/total.Seconds())
	}
	t.set("setup_s", median(setupS))
	t.set("sim_req_per_s", median(reqPerS))
	t.set("sim_cycles_per_s", median(cycPerS))
	t.set("alloc_mb", median(allocMB))
	t.set("job_ms_p50", median(jobMS))
	t.set("job_ms_p90", quantile(jobMS, 90))
	t.set("batch_jobs_per_s", median(batchS))
	t.notef("%d repetitions of %d legs, %d job samples (too few for a tail: job_ms_p90 is the nearest-rank slow-leg time); %.1f s of CPU in %.1f s of wall time",
		len(batchS), len(legs), len(jobMS), (cpuTime() - beganCPU).Seconds(), time.Since(began).Seconds())
	return nil
}
