package host

import (
	"errors"
	"fmt"

	"hmcsim/internal/core"
	"hmcsim/internal/stats"
	"hmcsim/internal/workload"
)

// ErrSuspended is the cooperative suspend signal: when Options.Interrupt
// returns an error wrapping it, the driver finishes the current cycle,
// delivers a final checkpoint through Options.Checkpoint (when
// configured) and returns the interrupt error. The simulation service
// uses it for graceful drain: a suspended job's committed cycles survive
// the restart and the job resumes from the delivered checkpoint.
var ErrSuspended = errors.New("host: run suspended")

// ErrRestore wraps every checkpoint restoration failure in Resume, so
// callers can distinguish an unusable checkpoint (rerun from scratch)
// from an error in the resumed run itself.
var ErrRestore = errors.New("host: checkpoint restore failed")

// Checkpoint is the complete resumable state of a driver run: the
// engine's architectural checkpoint plus the driver-side bookkeeping
// (outstanding tags, partial counters, workload position). It serializes
// to JSON; Resume restores it into a freshly built engine + driver +
// generator trio and continues the run bit-identically.
type Checkpoint struct {
	Core   *core.Checkpoint `json:"core"`
	Driver DriverState      `json:"driver"`
}

// DriverState is the driver-side half of a Checkpoint.
type DriverState struct {
	// Pending and FreeTags mirror the tag tracking structures; slices for
	// links that are not host links are empty.
	Pending  [][]int64  `json:"pending"`
	FreeTags [][]uint16 `json:"free_tags"`
	// Remote marks outstanding off-cube requests (see Driver.remote).
	// Absent from checkpoints written before the fabric layer existed;
	// Resume tolerates the absence (RemoteLatency then undercounts only
	// the requests in flight across the restore boundary).
	Remote [][]bool `json:"remote,omitempty"`
	// Queued/HasQueued carry an access that stalled and awaits re-injection.
	Queued    workload.Access `json:"queued"`
	HasQueued bool            `json:"has_queued,omitempty"`
	// Drawn counts generator Next calls; Resume fast-forwards a fresh
	// generator by this many draws (workload.FastForward).
	Drawn uint64 `json:"drawn"`
	// Selector is the round-robin link rotation position.
	Selector int `json:"selector,omitempty"`
	// Partial result counters.
	Sent      uint64 `json:"sent"`
	Completed uint64 `json:"completed"`
	Errors    uint64 `json:"errors,omitempty"`
	// Outstanding is the number of non-posted requests awaiting responses.
	Outstanding uint64 `json:"outstanding,omitempty"`
	// Warm-up window state.
	WarmedUp   bool       `json:"warmed_up,omitempty"`
	BaseCycles uint64     `json:"base_cycles,omitempty"`
	BaseStats  core.Stats `json:"base_stats,omitempty"`
	// Accumulated distributions.
	Latency   stats.HistogramState `json:"latency,omitempty"`
	RemoteLat stats.HistogramState `json:"remote_lat,omitempty"`
	VaultOcc  stats.HistogramState `json:"vault_occ,omitempty"`
	XbarOcc   stats.HistogramState `json:"xbar_occ,omitempty"`
}

// checkpoint captures the driver run state at an inter-cycle boundary.
// It fails when the configured link selector is a custom stateful type
// the driver cannot serialize (the default round-robin selector and any
// stateless selector are fine).
func (d *Driver) checkpoint(res *Result, st runState) (*Checkpoint, error) {
	ds := DriverState{
		Pending:   make([][]int64, len(d.pending)),
		FreeTags:  make([][]uint16, len(d.freeTags)),
		Remote:    make([][]bool, len(d.remote)),
		Queued:    d.queued,
		HasQueued: d.hasQueued,
		Drawn:     d.drawn,
		Sent:      res.Sent, Completed: res.Completed, Errors: res.Errors,
		Outstanding: st.outstanding,
		WarmedUp:    st.warmedUp,
		BaseCycles:  st.baseCycles,
		BaseStats:   st.baseStats,
		Latency:     res.Latency.State(),
		RemoteLat:   res.RemoteLatency.State(),
		VaultOcc:    res.VaultOccupancy.State(),
		XbarOcc:     res.XbarOccupancy.State(),
	}
	switch sel := d.opts.Select.(type) {
	case *workload.RoundRobin:
		ds.Selector = sel.Pos()
	case *workload.Locality, workload.Fixed, nil:
		// Stateless: nothing to record.
	default:
		return nil, fmt.Errorf("host: cannot checkpoint custom link selector %T", d.opts.Select)
	}
	for l := range d.pending {
		ds.Pending[l] = append([]int64(nil), d.pending[l]...)
		ds.FreeTags[l] = append([]uint16(nil), d.freeTags[l]...)
		ds.Remote[l] = append([]bool(nil), d.remote[l]...)
	}
	return &Checkpoint{Core: d.h.Checkpoint(), Driver: ds}, nil
}

// Resume restores ck into the driver and continues the run until
// completion, exactly as if it had never been interrupted. The driver
// must be freshly built or Reset over a freshly built (or freed and
// rewired) engine with the same configuration, topology and options as
// the checkpointed run, and gen must be a fresh generator built from the
// same workload spec (Resume fast-forwards it to the recorded position).
// Restoration failures wrap ErrRestore.
func (d *Driver) Resume(gen workload.Generator, n uint64, ck *Checkpoint) (Result, error) {
	if ck == nil || ck.Core == nil {
		return Result{}, fmt.Errorf("%w: empty checkpoint", ErrRestore)
	}
	if err := d.h.Restore(ck.Core); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrRestore, err)
	}
	ds := &ck.Driver
	if len(ds.Pending) != len(d.pending) || len(ds.FreeTags) != len(d.freeTags) {
		return Result{}, fmt.Errorf("%w: link shape mismatch", ErrRestore)
	}
	for l := range d.pending {
		if len(ds.Pending[l]) != len(d.pending[l]) {
			return Result{}, fmt.Errorf("%w: host link set mismatch on link %d", ErrRestore, l)
		}
		copy(d.pending[l], ds.Pending[l])
		d.freeTags[l] = append(d.freeTags[l][:0], ds.FreeTags[l]...)
		if d.remote[l] != nil {
			clear(d.remote[l])
			if l < len(ds.Remote) && len(ds.Remote[l]) == len(d.remote[l]) {
				copy(d.remote[l], ds.Remote[l])
			}
		}
	}
	d.queued = ds.Queued
	d.hasQueued = ds.HasQueued
	d.drawn = ds.Drawn
	if rr, ok := d.opts.Select.(*workload.RoundRobin); ok {
		rr.SetPos(ds.Selector)
	}
	workload.FastForward(gen, ds.Drawn)

	var res Result
	res.Sent, res.Completed, res.Errors = ds.Sent, ds.Completed, ds.Errors
	if err := res.Latency.Restore(ds.Latency); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrRestore, err)
	}
	if err := res.RemoteLatency.Restore(ds.RemoteLat); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrRestore, err)
	}
	if err := res.VaultOccupancy.Restore(ds.VaultOcc); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrRestore, err)
	}
	if err := res.XbarOccupancy.Restore(ds.XbarOcc); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrRestore, err)
	}
	st := runState{
		outstanding: ds.Outstanding,
		warmedUp:    ds.WarmedUp,
		baseCycles:  ds.BaseCycles,
		baseStats:   ds.BaseStats,
	}
	return d.run(gen, n, res, st)
}
