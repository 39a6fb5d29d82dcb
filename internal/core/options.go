package core

import (
	"hmcsim/internal/fault"
	"hmcsim/internal/topo"
	"hmcsim/internal/trace"
)

// Option customizes construction of a simulation object through
// NewWithOptions. Options compose left to right: a later option that
// touches the same knob wins.
type Option func(*builder)

// builder accumulates what the options request: configuration edits
// applied before New runs, and setup steps applied to the constructed
// object afterwards.
type builder struct {
	cfgMut []func(*Config)
	post   []func(*HMC) error
}

// WithFault overrides the fault-model configuration of the base Config
// (Config.Fault). The spec is validated together with the rest of the
// configuration, so an out-of-range rate fails construction with
// ErrConfig.
func WithFault(fc fault.Config) Option {
	return func(b *builder) {
		b.cfgMut = append(b.cfgMut, func(c *Config) { c.Fault = fc })
	}
}

// WithTopology wires the object with a prebuilt topology (for example
// topo.Ring or topo.Torus) instead of leaving every link unconnected.
// The topology's shape must match the configuration; see UseTopology.
func WithTopology(t *topo.Topology) Option {
	return func(b *builder) {
		b.post = append(b.post, func(h *HMC) error { return h.UseTopology(t) })
	}
}

// WithRouter installs a custom constructor for the pristine routing
// tables, replacing the default breadth-first shortest-path computation
// — the hook the fabric layer uses to impose dimension-order routing on
// grids. The constructor runs at seal time against the final topology;
// an error fails the first Send or Clock. Degraded operation after
// permanent link failures always falls back to breadth-first routing
// over the surviving links, whatever tables fn produced.
func WithRouter(fn func(*topo.Topology) (*topo.Routes, error)) Option {
	return func(b *builder) {
		b.post = append(b.post, func(h *HMC) error {
			h.router = fn
			return nil
		})
	}
}

// WithTrace installs a trace consumer with the given verbosity mask, as
// SetTracer plus SetTraceMask would. A nil tracer leaves tracing
// disabled regardless of the mask.
func WithTrace(tr trace.Tracer, mask trace.Kind) Option {
	return func(b *builder) {
		b.post = append(b.post, func(h *HMC) error {
			if tr == nil {
				return nil
			}
			h.SetTracer(tr)
			h.SetTraceMask(mask)
			return nil
		})
	}
}

// NewWithOptions initializes a simulation object from a base
// configuration plus functional options. It is sugar over New followed
// by the corresponding setup calls — the two forms build identical
// objects — and exists so callers can construct a fully wired simulator
// in one expression:
//
//	h, err := core.NewWithOptions(cfg,
//	    core.WithTopology(ring),
//	    core.WithTrace(tw, trace.MaskPerf))
func NewWithOptions(base Config, opts ...Option) (*HMC, error) {
	var b builder
	for _, opt := range opts {
		opt(&b)
	}
	for _, mut := range b.cfgMut {
		mut(&base)
	}
	h, err := New(base)
	if err != nil {
		return nil, err
	}
	for _, post := range b.post {
		if err := post(h); err != nil {
			return nil, err
		}
	}
	return h, nil
}
