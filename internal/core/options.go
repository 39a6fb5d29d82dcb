package core

import (
	"hmcsim/internal/topo"
	"hmcsim/internal/trace"
)

// Option is one setup step New applies to the object it has just built.
// Options run left to right: a later option that touches the same knob
// wins.
type Option func(*HMC) error

// WithTopology wires the object with a prebuilt topology (for example
// topo.Ring or topo.Torus) instead of leaving every link unconnected.
// The topology's shape must match the configuration; see UseTopology.
func WithTopology(t *topo.Topology) Option {
	return func(h *HMC) error { return h.UseTopology(t) }
}

// WithRouter installs a custom constructor for the pristine routing
// tables, replacing the default breadth-first shortest-path computation
// — the hook the fabric layer uses to impose dimension-order routing on
// grids. The constructor runs at seal time against the final topology;
// an error fails the first Send or Clock. Degraded operation after
// permanent link failures always falls back to breadth-first routing
// over the surviving links, whatever tables fn produced.
func WithRouter(fn func(*topo.Topology) (*topo.Routes, error)) Option {
	return func(h *HMC) error {
		h.router = fn
		return nil
	}
}

// WithTrace installs a trace consumer with the given verbosity mask, as
// SetTracer plus SetTraceMask would. A nil tracer leaves tracing
// disabled regardless of the mask.
func WithTrace(tr trace.Tracer, mask trace.Kind) Option {
	return func(h *HMC) error {
		if tr != nil {
			h.SetTracer(tr)
			h.SetTraceMask(mask)
		}
		return nil
	}
}
