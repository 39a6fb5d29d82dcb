package server

import (
	"context"
	"errors"
	"fmt"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/host"
	"hmcsim/internal/obs"
	"hmcsim/internal/server/api"
	"hmcsim/internal/stats"
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
	// Resume, when non-nil, restores this checkpoint into the freshly
	// built engine and continues the run instead of starting from cycle
	// zero. Restoration failures surface as ErrBadCheckpoint.
	Resume *host.Checkpoint
	// CheckpointEvery and Checkpoint enable periodic checkpoint delivery
	// (host.Options.CheckpointEvery / Checkpoint).
	CheckpointEvery uint64
	Checkpoint      func(*host.Checkpoint) error
}

// Execute builds an independent simulator instance for spec and runs it
// to completion, honouring ctx cancellation between clock cycles. It is
// the unit of work a manager worker performs, exported so clients
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
// Once built, the engine is freed on every return path, so its packet
// buffers feed the next job's engine instead of being regrown
// (core.HMC.Free).
func ExecuteOpts(ctx context.Context, spec JobSpec, eo ExecOptions) (Result, error) {
	cfg := spec.Config
	if cfg.Workers == 0 && spec.Workload.Workers > 0 {
		// The workload-level worker hint applies only when the device
		// configuration does not pin a count itself, and is capped
		// rather than rejected: an oversized hint is a wish for "as
		// parallel as allowed", not an error.
		cfg.Workers = min(spec.Workload.Workers, core.MaxWorkers)
	}
	var col *stats.Fig5Collector
	var opts []core.Option
	if spec.Fig5Interval > 0 {
		col = stats.NewFig5Collector(0, cfg.NumVaults, spec.Fig5Interval)
		opts = append(opts, core.WithTrace(col, trace.MaskPerf))
	}

	// Build the simulator: a multi-cube fabric when the spec carries a
	// system graph, the classic single-object wiring otherwise. The
	// driver, run loop and checkpoint path downstream are identical —
	// a fabric is one engine whose cubes shard like vaults.
	var h *core.HMC
	var sys *engine.System
	capacity := uint64(cfg.CapacityGB) << 30
	if spec.Fabric != nil {
		var err error
		sys, err = engine.Build(*spec.Fabric, cfg, opts...)
		if err != nil {
			return Result{}, err
		}
		h = sys.Engine()
		cfg = sys.Config()
		capacity = sys.Capacity()
	} else {
		var err error
		h, err = eval.BuildSimpleWithOptions(cfg, opts...)
		if err != nil {
			return Result{}, err
		}
	}
	defer h.Free()
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
	var d *host.Driver
	if sys != nil {
		d, err = sys.NewDriver(hopts)
	} else {
		d, err = host.NewDriver(h, hopts)
	}
	if err != nil {
		return Result{}, err
	}
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
