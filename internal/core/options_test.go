package core

import (
	"errors"
	"testing"

	"hmcsim/internal/fault"
	"hmcsim/internal/packet"
	"hmcsim/internal/topo"
	"hmcsim/internal/trace"
)

// TestNewWithOptionsEquivalence pins the documented guarantee that
// New's options are pure sugar: the option form and the imperative form
// build simulators that evolve bit-identically.
func TestNewWithOptionsEquivalence(t *testing.T) {
	cfg := Table1Configs()[0]
	ring, err := topo.Ring(3, cfg.NumLinks)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumDevs = 3

	imperative, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := imperative.UseTopology(ring); err != nil {
		t.Fatal(err)
	}
	ring2, err := topo.Ring(3, cfg.NumLinks)
	if err != nil {
		t.Fatal(err)
	}
	optioned, err := New(cfg,
		WithTopology(ring2),
		WithTrace(nil, trace.MaskAll)) // nil tracer: no-op by contract
	if err != nil {
		t.Fatal(err)
	}

	for _, h := range []*HMC{imperative, optioned} {
		// Ring devices expose links 2+ as host links.
		if err := h.SendRequest(0, 2, packet.Request{Cmd: packet.CmdRD64, Addr: 1 << 12, Tag: 1}); err != nil {
			t.Fatal(err)
		}
		if err := h.ClockN(64); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := imperative.Snapshot().Digest, optioned.Snapshot().Digest; a != b {
		t.Errorf("option form diverged: %016x vs %016x", a, b)
	}
}

// TestWithFault checks a fault configuration set on the Config lands in
// the engine's configuration, and that an invalid one fails construction
// as a config error.
func TestWithFault(t *testing.T) {
	cfg := Table1Configs()[0]
	cfg.Fault = fault.Config{TransientPPM: 500, Seed: 9}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Config().Fault; got.TransientPPM != 500 || got.Seed != 9 {
		t.Errorf("Fault = %+v, want the configured one", got)
	}
	cfg.Fault = fault.Config{TransientPPM: 2000000}
	_, err = New(cfg)
	if !errors.Is(err, ErrConfig) {
		t.Errorf("invalid fault config: err = %v, want ErrConfig", err)
	}
}

// TestErrConfigClassification checks every Validate rejection is
// classifiable with errors.Is(err, ErrConfig), whichever field is bad.
func TestErrConfigClassification(t *testing.T) {
	cases := map[string]func(*Config){
		"fault ppm":      func(c *Config) { c.FaultPPM = -1 },
		"failed link":    func(c *Config) { c.Fault.FailedLinks = []fault.LinkID{{Dev: 9, Link: 0}} },
		"failed vault":   func(c *Config) { c.Fault.FailedVaults = []fault.VaultID{{Dev: 0, Vault: 99}} },
		"neg refresh":    func(c *Config) { c.RefreshInterval = -1 },
		"refresh ratio":  func(c *Config) { c.RefreshInterval = 4; c.RefreshDuration = 4 },
		"orphan refresh": func(c *Config) { c.RefreshDuration = 2 },
		"no devices":     func(c *Config) { c.NumDevs = 0 },
		"device config":  func(c *Config) { c.NumLinks = 3 },
	}
	for name, mut := range cases {
		cfg := Table1Configs()[0]
		mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate() accepted", name)
			continue
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("%s: %v does not wrap ErrConfig", name, err)
		}
	}
	if err := Table1Configs()[0].Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
