package workload

import (
	"fmt"

	"hmcsim/internal/ckey"
)

// Spec is a declarative, JSON-serializable description of a workload
// generator. It is the wire format the simulation service accepts: a job
// submission names a workload by kind plus parameters instead of holding
// a live Generator, and the executor materializes the generator with
// Build against the target device's capacity.
type Spec struct {
	// Kind selects the generator: "random" (the paper's random access
	// test, the default), "stream", "stride", "hotspot", "chase" or
	// "zipf".
	Kind string `json:"kind,omitempty"`
	// Seed seeds the generator's deterministic random stream. Two
	// builds of an identical spec produce identical access streams.
	Seed uint32 `json:"seed,omitempty"`
	// RangeBytes is the addressable byte range; zero selects the full
	// device capacity supplied to Build.
	RangeBytes uint64 `json:"range_bytes,omitempty"`
	// Size is the request block size in bytes (16-128 in FLIT
	// multiples); zero selects the paper's 64.
	Size int `json:"size,omitempty"`
	// WritePercent is the share of writes in percent. The paper's
	// mixture is 50; zero means all reads.
	WritePercent int `json:"write_percent,omitempty"`

	// Workers is accepted and ignored: the engine runs serially. It
	// stays in the wire form for submissions that still carry it;
	// negative values are rejected.
	Workers int `json:"workers,omitempty"`

	// GapCycles paces the injection: access k is not released before
	// simulated cycle k*GapCycles, modeling a sparse traffic source
	// with compute time between memory accesses. It is a workload
	// parameter — a paced run simulates different traffic than an
	// unpaced one — unlike NoIdleSkip below.
	GapCycles uint64 `json:"gap_cycles,omitempty"`

	// NoIdleSkip is an execution hint, not a workload parameter: it
	// forces the exact cycle-by-cycle walk instead of the event-wheel
	// idle skip. Results are bit-identical either way (the wheel's
	// contract); the hint exists for equivalence testing and walk-path
	// benchmarking.
	NoIdleSkip bool `json:"no_idle_skip,omitempty"`

	// StartAddr and StrideBytes parameterize "stride".
	StartAddr   uint64 `json:"start_addr,omitempty"`
	StrideBytes uint64 `json:"stride_bytes,omitempty"`
	// HotBytes and HotPercent parameterize "hotspot".
	HotBytes   uint64 `json:"hot_bytes,omitempty"`
	HotPercent int    `json:"hot_percent,omitempty"`
	// ZipfS is the skew parameter of "zipf" (must exceed 1).
	ZipfS float64 `json:"zipf_s,omitempty"`
}

// TableISpec returns the paper's Table I workload spec: 64-byte random
// accesses with a 50/50 read/write mixture over the whole device.
func TableISpec(seed uint32) Spec {
	return Spec{Kind: "random", Seed: seed, Size: 64, WritePercent: 50}
}

// Build materializes the generator. capacityBytes supplies the default
// address range when RangeBytes is zero.
func (s Spec) Build(capacityBytes uint64) (Generator, error) {
	rng := s.RangeBytes
	if rng == 0 {
		rng = capacityBytes
	}
	size := s.Size
	if size == 0 {
		size = 64
	}
	switch s.Kind {
	case "", "random":
		return NewRandomAccess(s.Seed, rng, size, s.WritePercent)
	case "stream":
		return NewStream(s.Seed, rng, size, s.WritePercent)
	case "stride":
		return NewStride(s.Seed, s.StartAddr, s.StrideBytes, rng, size, s.WritePercent)
	case "hotspot":
		return NewHotspot(s.Seed, rng, s.HotBytes, s.HotPercent, size, s.WritePercent)
	case "chase":
		return NewPointerChase(s.Seed, rng, size)
	case "zipf":
		return NewZipf(int64(s.Seed), rng, size, s.WritePercent, s.ZipfS)
	default:
		return nil, fmt.Errorf("workload: unknown kind %q", s.Kind)
	}
}

// Canonical returns the spec with defaults materialized, execution-only
// hints cleared, and parameters the selected kind never reads zeroed.
// Two specs with equal Canonical() values build generators that emit
// identical access streams:
//
//   - Kind "" becomes "random" and Size 0 becomes 64 (Build's defaults).
//   - Workers and NoIdleSkip are cleared: the first is ignored, and
//     every value of the second yields bit-identical digests (the
//     wheel-vs-walk equivalence property pins this).
//   - Per-kind parameters the generator constructor ignores are zeroed:
//     stride fields outside "stride", hotspot fields outside "hotspot",
//     ZipfS outside "zipf", and WritePercent under "chase" (pointer
//     chasing is all reads).
//
// RangeBytes 0 is left as-is: it means "the submitted device's full
// capacity", which is a function of the device configuration hashed
// alongside this spec, not of the workload.
func (s Spec) Canonical() Spec {
	c := s
	if c.Kind == "" {
		c.Kind = "random"
	}
	if c.Size == 0 {
		c.Size = 64
	}
	c.Workers = 0
	c.NoIdleSkip = false
	if c.Kind != "stride" {
		c.StartAddr, c.StrideBytes = 0, 0
	}
	if c.Kind != "hotspot" {
		c.HotBytes, c.HotPercent = 0, 0
	}
	if c.Kind != "zipf" {
		c.ZipfS = 0
	}
	if c.Kind == "chase" {
		c.WritePercent = 0
	}
	return c
}

// SpecKey is the 128-bit content key of the canonicalized workload spec.
// JSON field order, whitespace and explicitly-spelled defaults do not
// change the key; any semantic parameter flip does. Workers and
// NoIdleSkip are excluded — they never change result digests.
func SpecKey(s Spec) ckey.Key {
	return ckey.MustHashJSON("hmcsim/workload/v1", s.Canonical())
}

// Validate dry-builds the spec against a nominal 1GB capacity, reporting
// parameter errors without requiring a device.
func (s Spec) Validate() error {
	if s.Workers < 0 {
		return fmt.Errorf("workload: negative worker hint %d", s.Workers)
	}
	if s.GapCycles > 1<<20 {
		return fmt.Errorf("workload: gap_cycles %d exceeds the %d-cycle pacing limit", s.GapCycles, 1<<20)
	}
	_, err := s.Build(1 << 30)
	return err
}
