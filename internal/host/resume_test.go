package host

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/fault"
	"hmcsim/internal/trace"
	"hmcsim/internal/workload"
)

// resumeGen builds the conformance workload; every run of a conformance
// test builds a fresh one so generator state never leaks across runs.
func resumeGen(t *testing.T) workload.Generator {
	t.Helper()
	gen, err := workload.NewRandomAccess(11, 1<<30, 64, 50)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func mustEqualResults(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles %d, want %d", tag, got.Cycles, want.Cycles)
	}
	if got.Sent != want.Sent || got.Completed != want.Completed || got.Errors != want.Errors {
		t.Errorf("%s: counters sent=%d completed=%d errors=%d, want %d/%d/%d",
			tag, got.Sent, got.Completed, got.Errors, want.Sent, want.Completed, want.Errors)
	}
	if got.Engine != want.Engine {
		t.Errorf("%s: engine stats diverged:\n got %+v\nwant %+v", tag, got.Engine, want.Engine)
	}
	if got.Latency != want.Latency {
		t.Errorf("%s: latency histogram diverged (count %d vs %d)",
			tag, got.Latency.Count(), want.Latency.Count())
	}
	if got.VaultOccupancy != want.VaultOccupancy || got.XbarOccupancy != want.XbarOccupancy {
		t.Errorf("%s: occupancy histograms diverged", tag)
	}
}

// roundTrip forces the checkpoint through its JSON wire form, the way the
// job service persists it.
func roundTrip(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	b, err := json.Marshal(ck)
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	out := new(Checkpoint)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("unmarshal checkpoint: %v", err)
	}
	return out
}

// TestCheckpointResumeConformance is the tentpole conformance test:
// checkpoint a run at cycle k, restore into a freshly built engine +
// driver + generator trio, run to completion, and require the result and
// the final architectural snapshot to be bit-identical to an
// uninterrupted run — with and without fault injection. The workers=
// subtests set the ignored Config.Workers.
func TestCheckpointResumeConformance(t *testing.T) {
	faulty := fault.Config{
		TransientPPM: 2000,
		VaultPPM:     1500,
		Seed:         42,
		FailedLinks:  []fault.LinkID{{Dev: 0, Link: 3}},
	}
	for _, workers := range []int{1, 4, 16} {
		for _, fc := range []struct {
			name string
			cfg  fault.Config
		}{
			{"clean", fault.Config{}},
			{"faulty", faulty},
		} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, fc.name), func(t *testing.T) {
				cfg := smallConfig()
				cfg.Workers = workers
				cfg.Fault = fc.cfg
				const n = 3000

				build := func() (*core.HMC, *Driver) {
					h := newSimpleHMC(t, cfg)
					d, err := NewDriver(h, Options{SampleOccupancy: true})
					if err != nil {
						t.Fatal(err)
					}
					return h, d
				}

				// Reference: uninterrupted run.
				refH, refD := build()
				ref, err := refD.Run(resumeGen(t), n)
				if err != nil {
					t.Fatal(err)
				}
				refSnap := refH.Snapshot()

				// Checkpointed run: capturing must not perturb anything.
				var cks []*Checkpoint
				ckH, ckD := build()
				ckD.opts.CheckpointEvery = 16
				ckD.opts.Checkpoint = func(ck *Checkpoint) error {
					cks = append(cks, roundTrip(t, ck))
					return nil
				}
				got, err := ckD.Run(resumeGen(t), n)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, "checkpointed run", got, ref)
				if s := ckH.Snapshot(); s != refSnap {
					t.Errorf("checkpointed run snapshot %+v, want %+v", s, refSnap)
				}
				if len(cks) < 2 {
					t.Fatalf("only %d checkpoints captured; raise the run length", len(cks))
				}

				// Resume from a mid-run checkpoint.
				ck := cks[len(cks)/2]
				resH, resD := build()
				res, err := resD.Resume(resumeGen(t), n, ck)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, "resumed run", res, ref)
				if s := resH.Snapshot(); s != refSnap {
					t.Errorf("resumed run snapshot %+v, want %+v", s, refSnap)
				}
			})
		}
	}
}

// eventCollector records every trace event it sees.
type eventCollector struct{ evs []trace.Event }

func (c *eventCollector) Trace(e trace.Event) { c.evs = append(c.evs, e) }

// TestSuspendResumeTraceStream suspends a traced run mid-flight via
// ErrSuspended, resumes it from the delivered checkpoint in a fresh trio,
// and requires the concatenated trace streams of the two halves to be
// bit-identical to the uninterrupted run's stream — the strongest
// observable-equivalence statement the simulator can make.
func TestSuspendResumeTraceStream(t *testing.T) {
	cfg := smallConfig()
	cfg.Fault = fault.Config{TransientPPM: 3000, Seed: 7}
	const n = 2000

	build := func(tr trace.Tracer) (*core.HMC, *Driver) {
		h := newSimpleHMC(t, cfg)
		h.SetTracer(tr)
		h.SetTraceMask(trace.MaskAll)
		d, err := NewDriver(h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return h, d
	}

	// Reference run, fully traced.
	refTr := new(eventCollector)
	refH, refD := build(refTr)
	ref, err := refD.Run(resumeGen(t), n)
	if err != nil {
		t.Fatal(err)
	}
	refSnap := refH.Snapshot()

	// Suspended run: the interrupt fires once past cycle 20; the driver
	// must finish the cycle, deliver a final checkpoint and return
	// ErrSuspended.
	var saved *Checkpoint
	susTr := new(eventCollector)
	susH, susD := build(susTr)
	susD.opts.Interrupt = func() error {
		if susH.Clk() >= 20 {
			return ErrSuspended
		}
		return nil
	}
	susD.opts.Checkpoint = func(ck *Checkpoint) error {
		saved = roundTrip(t, ck)
		return nil
	}
	if _, err := susD.Run(resumeGen(t), n); !errors.Is(err, ErrSuspended) {
		t.Fatalf("suspended run returned %v, want ErrSuspended", err)
	}
	if saved == nil {
		t.Fatal("no final checkpoint delivered on suspend")
	}
	if saved.Core.Snap.Cycles != susH.Clk() {
		t.Errorf("checkpoint at cycle %d, engine suspended at %d", saved.Core.Snap.Cycles, susH.Clk())
	}

	// Resume in a fresh trio with its own collector.
	resTr := new(eventCollector)
	resH, resD := build(resTr)
	res, err := resD.Resume(resumeGen(t), n, saved)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "suspend+resume", res, ref)
	if s := resH.Snapshot(); s != refSnap {
		t.Errorf("resumed snapshot %+v, want %+v", s, refSnap)
	}

	// The two half-streams must concatenate to exactly the reference
	// stream: no event lost, duplicated or altered across the suspend.
	k := len(susTr.evs)
	if k == 0 || k >= len(refTr.evs) {
		t.Fatalf("suspended half recorded %d events of %d total", k, len(refTr.evs))
	}
	for i, e := range susTr.evs {
		if e != refTr.evs[i] {
			t.Fatalf("pre-suspend event %d diverged:\n got %+v\nwant %+v", i, e, refTr.evs[i])
		}
	}
	if got, want := len(resTr.evs), len(refTr.evs)-k; got != want {
		t.Fatalf("resumed half recorded %d events, want %d", got, want)
	}
	for i, e := range resTr.evs {
		if e != refTr.evs[k+i] {
			t.Fatalf("post-resume event %d diverged:\n got %+v\nwant %+v", i, e, refTr.evs[k+i])
		}
	}
}

// TestResumeRejectsMismatchedShape pins the guard rails: resuming into an
// engine with a different configuration must fail with ErrRestore, and a
// custom stateful selector must refuse to checkpoint rather than silently
// drop its state.
func TestResumeRejectsMismatchedShape(t *testing.T) {
	cfg := smallConfig()
	h := newSimpleHMC(t, cfg)
	d, err := NewDriver(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var saved *Checkpoint
	d.opts.Interrupt = func() error {
		if h.Clk() >= 10 {
			return ErrSuspended
		}
		return nil
	}
	d.opts.Checkpoint = func(ck *Checkpoint) error { saved = ck; return nil }
	if _, err := d.Run(resumeGen(t), 2000); !errors.Is(err, ErrSuspended) {
		t.Fatal(err)
	}

	wrong := cfg
	wrong.NumLinks = 8
	wrong.NumVaults = 32
	h2 := newSimpleHMC(t, wrong)
	d2, err := NewDriver(h2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Resume(resumeGen(t), 2000, saved); !errors.Is(err, ErrRestore) {
		t.Errorf("Resume with mismatched config returned %v, want ErrRestore", err)
	}
	if _, err := d2.Resume(resumeGen(t), 2000, nil); !errors.Is(err, ErrRestore) {
		t.Errorf("Resume with nil checkpoint returned %v, want ErrRestore", err)
	}
}

type exoticSelector struct{ workload.RoundRobin }

func TestCheckpointRejectsCustomSelector(t *testing.T) {
	h := newSimpleHMC(t, smallConfig())
	d, err := NewDriver(h, Options{Select: &exoticSelector{workload.RoundRobin{NumLinks: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	d.opts.CheckpointEvery = 8
	d.opts.Checkpoint = func(*Checkpoint) error { return nil }
	if _, err := d.Run(resumeGen(t), 2000); err == nil {
		t.Error("checkpointing a custom stateful selector did not fail")
	}
}
