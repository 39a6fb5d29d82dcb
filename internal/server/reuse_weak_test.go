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

// runHookedJob runs spec with a probe and interrupt and checkpoint
// closures, and returns weak pointers to the probe and to an object only
// the closures hold.
//
//go:noinline
func runHookedJob(t *testing.T, spec JobSpec) (weak.Pointer[obs.Probe], weak.Pointer[hookToken]) {
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
	if _, err := ExecuteOpts(context.Background(), spec, eo); err != nil {
		t.Fatal(err)
	}
	return weak.Make(probe), weak.Make(tok)
}

// TestParkedEngineDropsJobHooks runs one job with a probe and hook
// closures, lets its engine and driver park, and requires the probe and
// the closures to be collectable: a parked engine keeps nothing of the
// finished job alive.
func TestParkedEngineDropsJobHooks(t *testing.T) {
	defer emptyIdleEngines()
	emptyIdleEngines()
	probe, tok := runHookedJob(t, testSpec("hooks", core.Table1Configs()[0], 256))
	if p := parkedEngines(); len(p) != 1 || p[0].d == nil {
		t.Fatalf("%d engines parked after one job, want 1 with its driver", len(p))
	}
	runtime.GC()
	runtime.GC()
	if probe.Value() != nil {
		t.Error("the parked driver keeps the finished job's probe alive")
	}
	if tok.Value() != nil {
		t.Error("the parked driver keeps the finished job's hook closures alive")
	}
}
