package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"

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
// payloads without a server.
func Execute(ctx context.Context, spec JobSpec) (Result, error) {
	return ExecuteOpts(ctx, spec, ExecOptions{})
}

// ExecuteOpts is the full-control executor: Execute plus progress,
// interrupt, checkpoint and resume hooks. Checkpoint/resume hooks are
// disabled when the spec attaches a Figure-5 collector — the collector's
// accumulated series is not part of the checkpoint, so such jobs restart
// from scratch after a crash instead of resuming with a hole in their
// series.
//
// The job runs on an engine parked by an earlier job with the same
// configuration and fabric, rewired, when there is one, and on a newly
// built one otherwise; on every return path the engine is freed and
// parked for the next job, host driver included (DESIGN.md §8, "Engine
// reuse across jobs"). A freed engine is indistinguishable from a new
// one (core.HMC.Free), and a Reset driver from a new one
// (host.Driver.Reset), so results do not depend on which the job got.
func ExecuteOpts(ctx context.Context, spec JobSpec, eo ExecOptions) (Result, error) {
	e, err := takeEngine(spec.Config, spec.Fabric)
	if err != nil {
		return Result{}, err
	}
	res, err := e.execute(ctx, spec, eo)
	e.park()
	return res, err
}

// execute runs spec on e's engine, which is freshly built or freed and
// rewired, through e's driver, which is built on the engine's first job
// and Reset for every later one.
func (e *idleEngine) execute(ctx context.Context, spec JobSpec, eo ExecOptions) (Result, error) {
	// A fabric runs as one engine; the driver, run loop and checkpoint
	// path downstream are the same as for the classic single-object
	// wiring.
	h, sys, cfg := e.h, e.sys, e.cfg
	capacity := uint64(cfg.CapacityGB) << 30
	if sys != nil {
		cfg = sys.Config()
		capacity = sys.Capacity()
	}
	var col *stats.Fig5Collector
	var tracer trace.Tracer
	mask := trace.MaskNone
	if spec.Fig5Interval > 0 {
		col = stats.NewFig5Collector(0, cfg.NumVaults, spec.Fig5Interval)
		tracer, mask = col, trace.MaskPerf
	}
	h.SetTracer(tracer)
	h.SetTraceMask(mask)

	gen, err := spec.Workload.Build(capacity)
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
	hopts := host.Options{
		Posted:          spec.Posted,
		Warmup:          spec.Warmup,
		Interrupt:       interrupt,
		Progress:        eo.Probe,
		GapCycles:       spec.Workload.GapCycles,
		DisableIdleSkip: spec.Workload.NoIdleSkip,
	}
	resumable := spec.Fig5Interval == 0
	if resumable {
		hopts.CheckpointEvery = eo.CheckpointEvery
		hopts.Checkpoint = eo.Checkpoint
	}
	if sys != nil {
		hopts.Dev, hopts.Route = sys.InjectDev(), sys.Route
	}
	if e.d == nil {
		e.d, err = host.NewDriver(h, hopts)
	} else {
		err = e.d.Reset(hopts)
	}
	if err != nil {
		return Result{}, err
	}
	d := e.d
	var res host.Result
	if eo.Resume != nil && resumable {
		res, err = d.Resume(gen, spec.Requests, eo.Resume)
		if errors.Is(err, host.ErrRestore) {
			return Result{}, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	} else {
		res, err = d.Run(gen, spec.Requests)
	}
	if err != nil {
		return Result{}, err
	}
	var fig5 []stats.Sample
	if col != nil {
		col.Flush()
		fig5 = col.Samples
	}
	out := NewResult(cfg, spec, res, h.Snapshot(), fig5)
	if sys != nil {
		out.Fabric = newFabricResult(sys, res)
	}
	return out, nil
}

// maxIdleEngines caps the engines parked between jobs. The bench's
// service traffic uses the four Table I shapes; a service rotating
// through more distinct engine keys than this rebuilds engines.
const maxIdleEngines = 8

// idleEngine is one job's engine: the key it was built from (the
// effective configuration and the fabric spec, nil for the single-object
// wiring), the engine, the host driver over it (nil until a job built
// one), and — while parked — the topology it ran on, which Free drops
// and the next job re-applies.
type idleEngine struct {
	cfg    core.Config
	fabric *fabric.Spec
	h      *core.HMC
	sys    *engine.System // non-nil for a fabric
	d      *host.Driver
	wiring *topo.Topology
}

// idleEngines holds the parked engines, oldest first.
var idleEngines struct {
	sync.Mutex
	list []*idleEngine
}

// takeEngine returns an engine for (cfg, fab): the most recently parked
// one with that key, rewired, or failing that a newly built one. The key
// leaves out the worker count, which the engine ignores.
func takeEngine(cfg core.Config, fab *fabric.Spec) (*idleEngine, error) {
	cfg.Workers = 0
	idleEngines.Lock()
	for i := len(idleEngines.list) - 1; i >= 0; i-- {
		e := idleEngines.list[i]
		// Pointers, so comparing does not copy a Config into an interface.
		if reflect.DeepEqual(&e.cfg, &cfg) && reflect.DeepEqual(e.fabric, fab) {
			idleEngines.list = slices.Delete(idleEngines.list, i, i+1)
			idleEngines.Unlock()
			return e, e.h.UseTopology(e.wiring)
		}
	}
	idleEngines.Unlock()

	e := &idleEngine{cfg: cfg, fabric: fab}
	if fab != nil {
		sys, err := engine.Build(*fab, cfg)
		if err != nil {
			return nil, err
		}
		e.h, e.sys = sys.Engine(), sys
		return e, nil
	}
	h, err := eval.BuildSimple(cfg)
	if err != nil {
		return nil, err
	}
	e.h = h
	return e, nil
}

// park frees e's engine, keeping the wiring it ran on, and parks it,
// evicting the oldest parked engine beyond the cap. The driver is reset
// to plain options first, so a parked engine holds none of the finished
// job's hooks: its interrupt closure (and through it the job's context),
// probe and checkpoint sink.
func (e *idleEngine) park() {
	if e.d != nil {
		var plain host.Options
		if e.sys != nil {
			plain.Dev = e.sys.InjectDev()
		}
		if e.d.Reset(plain) != nil {
			e.d = nil
		}
	}
	e.wiring = e.h.Topology()
	e.h.Free()
	idleEngines.Lock()
	defer idleEngines.Unlock()
	if len(idleEngines.list) == maxIdleEngines {
		idleEngines.list = slices.Delete(idleEngines.list, 0, 1)
	}
	idleEngines.list = append(idleEngines.list, e)
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
