package server

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"weak"

	"hmcsim/internal/core"
	"hmcsim/internal/host"
	"hmcsim/internal/obs"
)

// hookToken is an object only a job's hook closures reference.
type hookToken struct {
	next *hookToken
	_    [32]byte
}

// runHookedJob runs spec on es with a probe and interrupt and
// checkpoint closures, and returns weak pointers to the probe and to an
// object only the closures hold.
//
//go:noinline
func runHookedJob(t *testing.T, es *engineSet, spec JobSpec) (weak.Pointer[obs.Probe], weak.Pointer[hookToken]) {
	probe, tok := new(obs.Probe), new(hookToken)
	eo := ExecOptions{
		Probe: probe,
		Interrupt: func() error {
			if tok.next != nil {
				return errors.New("unreachable")
			}
			return nil
		},
		CheckpointEvery: 1 << 40,
		Checkpoint: func(*host.Checkpoint) error {
			if tok.next != nil {
				return errors.New("unreachable")
			}
			return nil
		},
	}
	if _, err := es.execute(context.Background(), spec, eo); err != nil {
		t.Fatal(err)
	}
	return weak.Make(probe), weak.Make(tok)
}

// TestParkedEngineDropsJobHooks runs one job with a probe and hook
// closures, lets its engine set keep its engine and driver, and requires
// the probe and the closures to be collectable: a kept engine keeps
// nothing of the finished job alive.
func TestParkedEngineDropsJobHooks(t *testing.T) {
	var es engineSet
	probe, tok := runHookedJob(t, &es, testSpec("hooks", core.Table1Configs()[0], 256))
	if len(es.kept) != 1 || es.kept[0].d == nil {
		t.Fatalf("%d engines kept after one job, want 1 with its driver", len(es.kept))
	}
	runtime.GC()
	runtime.GC()
	if probe.Value() != nil {
		t.Error("the kept driver keeps the finished job's probe alive")
	}
	if tok.Value() != nil {
		t.Error("the kept driver keeps the finished job's hook closures alive")
	}
}
