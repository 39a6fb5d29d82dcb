package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
)

// reuseJob is one execution of the interleaving TestEngineReuseMatchesFreshEngines
// runs: a spec, the poll at which it is suspended (0: never) and the
// checkpoint it resumes from (nil: none).
type reuseJob struct {
	name      string
	spec      JobSpec
	suspendAt int
	resume    *host.Checkpoint
}

// run executes j on es and renders everything it produced — the result,
// the error and a suspended run's final checkpoint — as bytes.
func (j reuseJob) run(t *testing.T, es *engineSet) (out []byte, final *host.Checkpoint) {
	t.Helper()
	eo := ExecOptions{Resume: j.resume}
	if j.suspendAt > 0 {
		polls := 0
		eo.Interrupt = func() error {
			if polls++; polls >= j.suspendAt {
				return host.ErrSuspended
			}
			return nil
		}
		eo.Checkpoint = func(ck *host.Checkpoint) error {
			final = ck
			return nil
		}
	}
	res, err := es.execute(context.Background(), j.spec, eo)
	if (err != nil) != (j.suspendAt > 0) || (err != nil && !errors.Is(err, host.ErrSuspended)) {
		t.Fatalf("%s: %v", j.name, err)
	}
	if j.suspendAt > 0 && final == nil {
		t.Fatalf("%s: suspended without a final checkpoint", j.name)
	}
	b, jerr := json.Marshal(struct {
		Result Result
		Err    string
		Final  *host.Checkpoint
	}{res, fmt.Sprint(err), final})
	if jerr != nil {
		t.Fatal(jerr)
	}
	return b, final
}

// TestEngineReuseMatchesFreshEngines interleaves the four Table I
// configurations, a faulted spec, a 2x2 mesh, a Figure-5 job, a posted
// job, jobs suspended at polls 1, 7, 100 and 300 — which keep engines
// with packets in flight — and a resume from a checkpoint, all on one
// engine set. Every job's result, error and final checkpoint must be
// byte-equal to the same job run on an empty set, i.e. on a freshly
// built engine.
func TestEngineReuseMatchesFreshEngines(t *testing.T) {
	const requests = 16384
	var jobs []reuseJob
	for _, cfg := range core.Table1Configs() {
		jobs = append(jobs, reuseJob{name: cfg.String(), spec: testSpec(cfg.String(), cfg, requests)})
	}
	faulted := core.Table1Configs()[1]
	faulted.Fault = fault.Config{
		TransientPPM: 20000, VaultPPM: 20000, Seed: 5,
		FailAt: []fault.TimedLinkFailure{{Cycle: 200, Dev: 0, Link: 2}},
	}
	fig5 := testSpec("fig5", core.Table1Configs()[0], requests)
	fig5.Fig5Interval = 64
	posted := testSpec("posted", core.Table1Configs()[2], requests)
	posted.Posted = true
	// Paced, so the run is still in flight at poll 300.
	paced := testSpec("paced", core.Table1Configs()[3], requests)
	paced.Workload.GapCycles = 2
	jobs = append(jobs,
		reuseJob{name: "faulted", spec: testSpec("faulted", faulted, requests)},
		reuseJob{name: "mesh", spec: fabricSpec("mesh", requests)},
		reuseJob{name: "fig5", spec: fig5},
		reuseJob{name: "posted", spec: posted},
		reuseJob{name: "suspend@1", spec: jobs[0].spec, suspendAt: 1},
		reuseJob{name: "suspend@7", spec: fabricSpec("mesh", requests), suspendAt: 7},
		reuseJob{name: "suspend@100", spec: testSpec("faulted", faulted, requests), suspendAt: 100},
		reuseJob{name: "suspend@300", spec: paced, suspendAt: 300},
	)

	// Fresh engines: every job runs on an empty set.
	fresh := make([][]byte, len(jobs))
	var ck *host.Checkpoint
	for i, j := range jobs {
		var final *host.Checkpoint
		fresh[i], final = j.run(t, new(engineSet))
		if j.name == "suspend@100" {
			ck = final
		}
	}
	resume := reuseJob{name: "resume", spec: jobs[4].spec, resume: ck}
	freshResume, _ := resume.run(t, new(engineSet))

	// Warm: twice through the interleaving on one set, so every job of
	// the second round takes an engine an earlier job kept, dirty ones
	// included.
	var warm engineSet
	for round := 0; round < 2; round++ {
		for i, j := range jobs {
			before := len(warm.kept)
			got, _ := j.run(t, &warm)
			if !bytes.Equal(got, fresh[i]) {
				t.Errorf("round %d, %s: on a reused engine\n%s\nfresh engine\n%s", round, j.name, got, fresh[i])
			}
			if round == 1 && len(warm.kept) != before {
				t.Errorf("round 1, %s: built an engine instead of taking a kept one", j.name)
			}
			if i == 5 {
				if got, _ := resume.run(t, &warm); !bytes.Equal(got, freshResume) {
					t.Errorf("round %d, resume: on a reused engine\n%s\nfresh engine\n%s", round, got, freshResume)
				}
			}
		}
	}
	// The resumed run ends where the uninterrupted one does.
	var whole, resumed struct{ Result Result }
	if err := json.Unmarshal(fresh[4], &whole); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(freshResume, &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.Result.ResultDigest != whole.Result.ResultDigest || resumed.Result.StateDigest != whole.Result.StateDigest {
		t.Errorf("resumed digests %s/%s, uninterrupted %s/%s", resumed.Result.ResultDigest,
			resumed.Result.StateDigest, whole.Result.ResultDigest, whole.Result.StateDigest)
	}
}

// allocBytes returns the bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEngineReuseTakesParkedEngine runs one spec twice on one engine
// set: the second job takes the engine and the host driver the first
// kept — the same objects — and allocates under 8 KB, a small fraction
// of the bytes the first, which built them, did.
func TestEngineReuseTakesParkedEngine(t *testing.T) {
	spec := testSpec("warm", core.Table1Configs()[3], 2048)
	var es engineSet
	execute := func() {
		if _, err := es.execute(context.Background(), spec, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	cold := allocBytes(execute)
	if len(es.kept) != 1 {
		t.Fatalf("%d engines kept after one job, want 1", len(es.kept))
	}
	h, d := es.kept[0].h, es.kept[0].d
	if d == nil {
		t.Fatal("the first job kept no driver")
	}
	warm := allocBytes(execute)
	if now := es.kept; len(now) != 1 || now[0].h != h || now[0].d != d {
		t.Fatalf("the second job did not take the kept engine and driver: kept %p/%p, now %d engines", h, d, len(now))
	}
	t.Logf("cold job %d bytes, warm job %d bytes", cold, warm)
	if warm >= 8<<10 {
		t.Errorf("a warm job allocated %d bytes (a cold one %d): want under 8 KB", warm, cold)
	}

	// The engine ignores the worker count, so the key leaves it out: a
	// job that sets it keeps the engine a job without it takes.
	es = engineSet{}
	hinted := spec
	hinted.Config.Workers = 4
	if _, err := es.execute(context.Background(), hinted, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(es.kept) != 1 {
		t.Fatalf("%d engines kept after the Workers=4 job, want 1", len(es.kept))
	}
	h = es.kept[0].h
	execute()
	if now := es.kept; len(now) != 1 || now[0].h != h {
		t.Fatalf("the Workers=0 job did not take the engine the Workers=4 job kept: %d engines kept", len(now))
	}
}

// TestEngineReuseCapEvictsOldest keeps more distinct engines than the
// cap holds: the set never grows past it and keeps the most recent ones,
// in the order they were kept.
func TestEngineReuseCapEvictsOldest(t *testing.T) {
	var es engineSet
	var cfgs []core.Config
	for i := 0; i < maxKept+3; i++ {
		cfg := core.Table1Configs()[0]
		cfg.Fault.Seed = uint64(i + 1)
		cfgs = append(cfgs, cfg)
		if _, err := es.execute(context.Background(), testSpec("cap", cfg, 64), ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		if n := len(es.kept); n > maxKept {
			t.Fatalf("after %d jobs %d engines kept, cap %d", i+1, n, maxKept)
		}
	}
	if len(es.kept) != maxKept {
		t.Fatalf("%d engines kept, want the cap %d", len(es.kept), maxKept)
	}
	for i, e := range es.kept {
		if want := cfgs[len(cfgs)-maxKept+i]; !reflect.DeepEqual(e.cfg, want) {
			t.Errorf("kept[%d] has seed %d, want %d", i, e.cfg.Fault.Seed, want.Fault.Seed)
		}
	}
}

// TestEngineReuseDropsPanickedEngine runs a job whose interrupt hook
// panics mid-run on an engine set: the set must not keep the engine the
// panic left dirty, and the next job on the set must be byte-equal to
// the same job on an empty set — a retry after a panic gets a fresh
// instance.
func TestEngineReuseDropsPanickedEngine(t *testing.T) {
	spec := testSpec("panic", core.Table1Configs()[0], 16384)
	var es engineSet
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the interrupt hook did not panic")
			}
		}()
		polls := 0
		es.execute(context.Background(), spec, ExecOptions{Interrupt: func() error {
			if polls++; polls == 50 {
				panic("injected")
			}
			return nil
		}})
	}()
	if len(es.kept) != 0 {
		t.Fatalf("%d engines kept after a panicked job, want 0", len(es.kept))
	}
	next := reuseJob{name: "after panic", spec: spec}
	got, _ := next.run(t, &es)
	want, _ := next.run(t, new(engineSet))
	if !bytes.Equal(got, want) {
		t.Errorf("after a panic\n%s\nfresh engine\n%s", got, want)
	}
}
