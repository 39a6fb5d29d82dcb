package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/host"
	"hmcsim/internal/obs"
	"hmcsim/internal/server/api"
	"hmcsim/internal/stats"
	"hmcsim/internal/topo"
	"hmcsim/internal/trace"
)

// ErrBadCheckpoint reports that a persisted checkpoint could not be
// restored (shape mismatch, failed CRC or digest verification). The
// manager treats it as a transient condition: it drops the checkpoint
// and reruns the job from scratch rather than failing it.
var ErrBadCheckpoint = errors.New("server: unusable checkpoint")

// ExecOptions carries the optional hooks of one job execution. The zero
// value runs the job plainly, exactly like Execute.
type ExecOptions struct {
	// Probe receives live progress (host.Options.Progress).
	Probe *obs.Probe
	// Interrupt, when non-nil, is polled once per simulated cycle before
	// the job's context; returning host.ErrSuspended triggers the
	// suspend-with-final-checkpoint path.
	Interrupt func() error
	// Resume, when non-nil, restores this checkpoint into the job's
	// engine and continues the run instead of starting from cycle zero.
	// Restoration failures surface as ErrBadCheckpoint.
	Resume *host.Checkpoint
	// CheckpointEvery and Checkpoint enable periodic checkpoint delivery
	// (host.Options.CheckpointEvery / Checkpoint).
	CheckpointEvery uint64
	Checkpoint      func(*host.Checkpoint) error
}

// Execute runs spec to completion on a simulator instance of its own,
// honouring ctx cancellation between clock cycles. It is the unit of
// work a manager worker performs, exported so clients
// (cmd/hmcsim-table1 -json, tests) can produce byte-identical result
// payloads without a server. It runs on a fresh, empty engine set, so
// it builds the engine it runs on.
func Execute(ctx context.Context, spec JobSpec) (Result, error) {
	var es engineSet
	return es.execute(ctx, spec, ExecOptions{})
}

// maxKept caps the engines one worker keeps between jobs. The bench's
// service traffic uses the four Table I shapes; a worker rotating
// through more distinct engine keys than this rebuilds engines.
const maxKept = 8

// engineSet is the engines one manager worker keeps between jobs,
// least recently used first. It has no lock: the worker that declares
// it is its only user (DESIGN.md §8, "Engine reuse across jobs").
type engineSet struct {
	kept []*simEngine
}

// simEngine is one job's engine with everything its wiring fixes,
// resolved when it is built: the key it was built from (the
// configuration with the ignored worker count cleared, and the fabric
// spec, nil for the single-object wiring), the engine, the fabric
// system (nil for the single-object wiring), the host-visible
// capacity, the host options that attach a driver to it, and the
// topology it runs on, which Free drops and the next job re-applies.
// The host driver over it is nil until a job builds one.
type simEngine struct {
	cfg      core.Config
	fabric   *fabric.Spec
	h        *core.HMC
	sys      *engine.System
	capacity uint64
	attach   host.Options
	wiring   *topo.Topology
	d        *host.Driver
}

// execute runs spec on an engine of es, and keeps the engine in es
// afterwards, whatever the run returned. A freed engine is
// indistinguishable from a new one (core.HMC.Free), and a Reset driver
// from a new one (host.Driver.Reset), so results do not depend on which
// the job got. A run that panics skips keep: its engine is dropped, and
// a retry gets a fresh one.
func (es *engineSet) execute(ctx context.Context, spec JobSpec, eo ExecOptions) (Result, error) {
	e, err := es.take(spec.Config, spec.Fabric)
	if err != nil {
		return Result{}, err
	}
	res, err := e.run(ctx, spec, eo)
	es.keep(e)
	return res, err
}

// take returns an engine for (cfg, fab): the most recently kept one
// with that key, rewired, or failing that a newly built one. The key
// leaves out the worker count, which the engine ignores.
func (es *engineSet) take(cfg core.Config, fab *fabric.Spec) (*simEngine, error) {
	cfg.Workers = 0
	for i := len(es.kept) - 1; i >= 0; i-- {
		e := es.kept[i]
		// Pointers, so comparing does not copy a Config into an interface.
		if reflect.DeepEqual(&e.cfg, &cfg) && reflect.DeepEqual(e.fabric, fab) {
			es.kept = slices.Delete(es.kept, i, i+1)
			return e, e.h.UseTopology(e.wiring)
		}
	}
	e := &simEngine{cfg: cfg, fabric: fab, capacity: uint64(cfg.CapacityGB) << 30}
	if fab == nil {
		h, err := eval.BuildSimple(cfg)
		if err != nil {
			return nil, err
		}
		e.h = h
	} else {
		sys, err := engine.Build(*fab, cfg)
		if err != nil {
			return nil, err
		}
		e.h, e.sys, e.capacity = sys.Engine(), sys, sys.Capacity()
		e.attach = host.Options{Dev: sys.InjectDev(), Route: sys.Route}
	}
	e.wiring = e.h.Topology()
	return e, nil
}

// keep frees e's engine and keeps it, evicting the least recently used
// engine beyond the cap. The driver is reset to the options that only
// attach it first, so a kept engine holds none of the finished job's
// hooks: its interrupt closure (and through it the job's context),
// probe and checkpoint sink.
func (es *engineSet) keep(e *simEngine) {
	if e.d != nil && e.d.Reset(e.attach) != nil {
		e.d = nil
	}
	e.h.Free()
	if len(es.kept) == maxKept {
		es.kept = slices.Delete(es.kept, 0, 1)
	}
	es.kept = append(es.kept, e)
}

// run runs spec on e's engine, which is freshly built or freed and
// rewired, through e's driver, which is built on the engine's first job
// and Reset for every later one.
//
// Checkpoint/resume hooks are disabled when the spec attaches a
// Figure-5 collector — the collector's accumulated series is not part
// of the checkpoint, so such jobs restart from scratch after a crash
// instead of resuming with a hole in their series.
func (e *simEngine) run(ctx context.Context, spec JobSpec, eo ExecOptions) (Result, error) {
	cfg := e.h.Config()
	var col *stats.Fig5Collector
	var tracer trace.Tracer
	mask := trace.MaskNone
	if spec.Fig5Interval > 0 {
		col = stats.NewFig5Collector(0, cfg.NumVaults, spec.Fig5Interval)
		tracer, mask = col, trace.MaskPerf
	}
	e.h.SetTracer(tracer)
	e.h.SetTraceMask(mask)

	gen, err := spec.Workload.Build(e.capacity)
	if err != nil {
		return Result{}, err
	}
	interrupt := ctx.Err
	if eo.Interrupt != nil {
		interrupt = func() error {
			if err := eo.Interrupt(); err != nil {
				return err
			}
			return ctx.Err()
		}
	}
	hopts := e.attach
	hopts.Posted = spec.Posted
	hopts.Warmup = spec.Warmup
	hopts.Interrupt = interrupt
	hopts.Progress = eo.Probe
	hopts.GapCycles = spec.Workload.GapCycles
	hopts.DisableIdleSkip = spec.Workload.NoIdleSkip
	resumable := spec.Fig5Interval == 0
	if resumable {
		hopts.CheckpointEvery = eo.CheckpointEvery
		hopts.Checkpoint = eo.Checkpoint
	}
	if e.d == nil {
		e.d, err = host.NewDriver(e.h, hopts)
	} else {
		err = e.d.Reset(hopts)
	}
	if err != nil {
		return Result{}, err
	}
	var res host.Result
	if eo.Resume != nil && resumable {
		res, err = e.d.Resume(gen, spec.Requests, eo.Resume)
		if errors.Is(err, host.ErrRestore) {
			return Result{}, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	} else {
		res, err = e.d.Run(gen, spec.Requests)
	}
	if err != nil {
		return Result{}, err
	}
	var fig5 []stats.Sample
	if col != nil {
		col.Flush()
		fig5 = col.Samples
	}
	out := NewResult(cfg, spec, res, e.h.Snapshot(), fig5)
	if e.sys != nil {
		out.Fabric = newFabricResult(e.sys, res)
	}
	return out, nil
}

// newFabricResult assembles the per-cube breakdown of a fabric job.
func newFabricResult(sys *engine.System, res host.Result) *api.FabricResult {
	t := sys.Totals()
	spec := sys.Spec()
	fr := &api.FabricResult{
		Topology:          spec.Kind(),
		Cubes:             len(t.Cubes),
		Hops:              t.Hops,
		IntercubePackets:  t.IntercubePackets,
		RemoteCompleted:   res.RemoteLatency.Count(),
		RemoteLatencyMean: res.RemoteLatency.Mean(),
		RemoteLatencyP95:  res.RemoteLatency.Percentile(95),
		RemoteLatencyMax:  res.RemoteLatency.Max(),
		FabricDigest:      fmt.Sprintf("%016x", t.Digest()),
	}
	for c, cs := range t.Cubes {
		fr.PerCube = append(fr.PerCube, api.CubeResult{
			Cube: c, Delivered: cs.Delivered, Reads: cs.Reads,
			Writes: cs.Writes, Atomics: cs.Atomics, Modes: cs.Modes,
			Responses: cs.Responses, ReqRelayed: cs.ReqRelayed,
			RspRelayed: cs.RspRelayed,
		})
	}
	for _, lu := range t.Links {
		fr.Links = append(fr.Links, api.FabricLink{
			A: lu.Edge.A, ALink: lu.Edge.ALink,
			B: lu.Edge.B, BLink: lu.Edge.BLink,
			FlitsAB: lu.FlitsAB, FlitsBA: lu.FlitsBA,
		})
	}
	return fr
}
