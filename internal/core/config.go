// Package core implements the HMC-Sim simulation engine: the public API
// for initializing one or more simulated Hybrid Memory Cube devices,
// configuring the link topology between them, exchanging request and
// response packets with an arbitrary host processor, and advancing the
// rudimentary device clock domain through its six sub-cycle stages.
//
// The API mirrors the four function classes of the original ANSI-C
// HMC-Sim library: device initialization (New/Free), topology
// initialization (ConnectHost/ConnectDevices/UseTopology), packet handlers
// (BuildMemRequest/Send/Recv/Clock) and register interface functions
// (in-band MODE_READ/MODE_WRITE packets plus the out-of-band JTAG
// interface).
package core

import (
	"fmt"

	"hmcsim/internal/device"
	"hmcsim/internal/fault"
	"hmcsim/internal/packet"
)

// Config carries the physical details of one or more target HMC devices.
// It corresponds to the parameters of hmcsim_init: the device count, link
// count, vault count, vault queue depth, bank count, DRAM count, capacity
// and crossbar queue depth. All devices within a single simulation object
// are physically homogeneous and are configured and reset to an identical
// state.
type Config struct {
	// NumDevs is the number of HMC devices in this simulation object.
	// The host processor is identified by cube ID NumDevs (one greater
	// than the largest device cube ID).
	NumDevs int
	// NumLinks is the link count per device: 4 or 8. Mixing devices with
	// different link counts is not supported.
	NumLinks int
	// NumVaults is the vault count per device; it must equal 4*NumLinks.
	NumVaults int
	// QueueDepth is the depth of every vault request and response queue.
	QueueDepth int
	// NumBanks is the bank count per vault, at most 64.
	NumBanks int
	// NumDRAMs is the DRAM part count per bank.
	NumDRAMs int
	// CapacityGB is the per-device capacity in gigabytes.
	CapacityGB int
	// XbarDepth is the depth of every link crossbar request and response
	// queue.
	XbarDepth int

	// BlockSize is the maximum block request size, in bytes, for the
	// default address map (32, 64, 128 or 256; zero selects 64).
	BlockSize int
	// StoreData enables functional bank data storage (see device.Config).
	StoreData bool
	// ConflictWindow is the spatial window, in queue slots, that the
	// bank-conflict recognition stage examines on each vault request
	// queue. Zero selects the entire queue.
	ConflictWindow int
	// RefreshInterval enables DRAM refresh modeling (an extension beyond
	// the paper's constant-time vault rule): every bank is refreshed once
	// per interval (in clock cycles), staggered across the device, and is
	// unavailable for RefreshDuration cycles while refreshing. Zero
	// disables refresh.
	RefreshInterval int
	// RefreshDuration is the per-refresh bank blackout in cycles.
	RefreshDuration int
	// Fault configures the fault-model subsystem: per-component rates
	// for transient link faults (CRC-corrupted FLITs, transparently
	// retransmitted by the link controllers), permanent link failures
	// (routed around in degraded mode) and vault faults (poisoned
	// reads), plus statically failed links and vaults. See package
	// fault.
	Fault fault.Config
	// FaultPPM is the deprecated flat link-fault knob of earlier
	// revisions. It remains functional: a non-zero value maps onto
	// Fault.TransientPPM when Fault.TransientPPM is unset.
	//
	// Deprecated: set Fault.TransientPPM instead.
	FaultPPM int
	// FaultSeed seeds the deterministic fault generator when Fault.Seed
	// is unset.
	//
	// Deprecated: set Fault.Seed instead.
	FaultSeed uint64
	// Workers is accepted and ignored: the clock runs every stage
	// serially. It stays in the wire form for submissions that still
	// carry it, and is validated against [0, MaxWorkers].
	Workers int
	// XbarPassing enables the specification's crossbar reordering point:
	// arriving packets destined for ancillary devices (or for other
	// vaults) may pass packets stalled waiting for local vault access.
	// The reordering preserves the required per-(link, vault) stream
	// order: a packet never passes an older packet bound for the same
	// vault. Disabled, the crossbar queues are strict FIFOs with
	// head-of-line blocking.
	XbarPassing bool
	// LinkLatency is the per-hop inter-cube link latency in clock
	// cycles: a packet crossing a cube boundary dwells at the head of
	// the forwarding crossbar queue until LinkLatency cycles have passed
	// since it arrived in that queue. Zero or one preserves the legacy
	// single-cycle hop. The knob models SerDes plus cable flight time on
	// fabric links; intra-cube crossbar traversal is unaffected.
	//
	// The json tag keeps single-cube wire payloads byte-identical when
	// the knob is unset.
	LinkLatency int `json:",omitempty"`
}

// Table1Configs returns the four device configurations evaluated in the
// paper's Table I, in order: 4-link/8-bank/2GB, 4-link/16-bank/4GB,
// 8-link/8-bank/4GB and 8-link/16-bank/8GB, each with 128 crossbar slots
// and 64 vault queue slots per direction.
func Table1Configs() []Config {
	mk := func(links, banks, capGB int) Config {
		return Config{
			NumDevs: 1, NumLinks: links, NumVaults: 4 * links,
			QueueDepth: 64, NumBanks: banks, NumDRAMs: 20,
			CapacityGB: capGB, XbarDepth: 128,
		}
	}
	return []Config{
		mk(4, 8, 2),
		mk(4, 16, 4),
		mk(8, 8, 4),
		mk(8, 16, 8),
	}
}

// maxBanks bounds Config.NumBanks: the paper's devices have 8 or 16
// banks per vault, and the vault pass keeps a 64-bit bank mask.
const maxBanks = 64

// MaxWorkers bounds the ignored Config.Workers, so submissions that
// were invalid when it meant a goroutine count stay invalid.
const MaxWorkers = 64

// effectiveFault resolves the fault configuration, folding the
// deprecated flat FaultPPM/FaultSeed knobs onto the transient link rate
// when the new fields are unset.
func (c Config) effectiveFault() fault.Config {
	fc := c.Fault
	if fc.TransientPPM == 0 {
		fc.TransientPPM = c.FaultPPM
	}
	if fc.Seed == 0 {
		fc.Seed = c.FaultSeed
	}
	return fc
}

// Validate checks the configuration. Every rejection wraps ErrConfig,
// so callers can classify configuration failures with
// errors.Is(err, ErrConfig) regardless of which field was at fault.
func (c Config) Validate() error {
	if c.FaultPPM < 0 || c.FaultPPM >= 1000000 {
		return fmt.Errorf("%w: fault rate %d PPM out of [0, 1000000)", ErrConfig, c.FaultPPM)
	}
	if err := c.effectiveFault().Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	for _, l := range c.Fault.FailedLinks {
		if l.Dev < 0 || l.Dev >= c.NumDevs || l.Link < 0 || l.Link >= c.NumLinks {
			return fmt.Errorf("%w: failed link %v outside %d devices x %d links",
				ErrConfig, l, c.NumDevs, c.NumLinks)
		}
	}
	for _, t := range c.Fault.FailAt {
		if t.Dev < 0 || t.Dev >= c.NumDevs || t.Link < 0 || t.Link >= c.NumLinks {
			return fmt.Errorf("%w: timed link failure %v outside %d devices x %d links",
				ErrConfig, t, c.NumDevs, c.NumLinks)
		}
	}
	for _, v := range c.Fault.FailedVaults {
		if v.Dev < 0 || v.Dev >= c.NumDevs || v.Vault < 0 || v.Vault >= c.NumVaults {
			return fmt.Errorf("%w: failed vault %v outside %d devices x %d vaults",
				ErrConfig, v, c.NumDevs, c.NumVaults)
		}
	}
	if c.RefreshInterval < 0 || c.RefreshDuration < 0 {
		return fmt.Errorf("%w: negative refresh parameters", ErrConfig)
	}
	if c.RefreshInterval > 0 && c.RefreshDuration >= c.RefreshInterval {
		return fmt.Errorf("%w: refresh duration %d must be below the interval %d",
			ErrConfig, c.RefreshDuration, c.RefreshInterval)
	}
	if c.RefreshInterval == 0 && c.RefreshDuration > 0 {
		return fmt.Errorf("%w: refresh duration without an interval", ErrConfig)
	}
	if c.LinkLatency < 0 || c.LinkLatency > 1024 {
		return fmt.Errorf("%w: link latency %d out of [0, 1024] cycles", ErrConfig, c.LinkLatency)
	}
	if c.Workers < 0 || c.Workers > MaxWorkers {
		return fmt.Errorf("%w: worker count %d out of [0, %d]", ErrConfig, c.Workers, MaxWorkers)
	}
	if c.NumDevs < 1 {
		return fmt.Errorf("%w: device count %d < 1", ErrConfig, c.NumDevs)
	}
	if c.NumDevs >= packet.MaxCUB {
		return fmt.Errorf("%w: device count %d exceeds the %d-cube ID space",
			ErrConfig, c.NumDevs, packet.MaxCUB)
	}
	if c.NumBanks > maxBanks {
		return fmt.Errorf("%w: bank count %d exceeds %d per vault", ErrConfig, c.NumBanks, maxBanks)
	}
	if err := c.deviceConfig().Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	return nil
}

func (c Config) deviceConfig() device.Config {
	return device.Config{
		NumLinks:   c.NumLinks,
		NumVaults:  c.NumVaults,
		NumBanks:   c.NumBanks,
		NumDRAMs:   c.NumDRAMs,
		CapacityGB: c.CapacityGB,
		QueueDepth: c.QueueDepth,
		XbarDepth:  c.XbarDepth,
		BlockSize:  c.BlockSize,
		StoreData:  c.StoreData,
	}
}

// Canonical returns the configuration with every default materialized
// and every execution-only hint cleared, the form hashed into a content
// key (ckey/cache). Two configurations with equal Canonical() values
// build engines that produce bit-identical results:
//
//   - Workers is zeroed: the engine ignores it.
//   - The deprecated FaultPPM/FaultSeed knobs fold into Fault
//     (effectiveFault) and are cleared; a fault config in which no fault
//     class can fire is normalized to the zero value, since its seed and
//     retry budget are never consulted; an enabled one materializes the
//     MaxRetries default.
//   - BlockSize 0 becomes the 64-byte default, ConflictWindow 0 becomes
//     the full queue depth, and LinkLatency 0 becomes the equivalent
//     single-cycle hop value 1.
func (c Config) Canonical() Config {
	out := c
	out.Workers = 0
	out.Fault = c.effectiveFault()
	out.FaultPPM, out.FaultSeed = 0, 0
	if !out.Fault.Enabled() {
		out.Fault = fault.Config{}
	} else if out.Fault.MaxRetries == 0 {
		out.Fault.MaxRetries = fault.DefaultMaxRetries
	}
	if out.BlockSize == 0 {
		out.BlockSize = 64
	}
	if out.ConflictWindow == 0 {
		out.ConflictWindow = c.QueueDepth
	}
	if out.LinkLatency == 0 {
		out.LinkLatency = 1
	}
	return out
}

// HostID returns the cube ID representing the host processor.
func (c Config) HostID() int { return c.NumDevs }

// String summarizes the configuration the way the paper labels them.
func (c Config) String() string {
	return fmt.Sprintf("%d-Link; %d-Bank; %dGB", c.NumLinks, c.NumBanks, c.CapacityGB)
}
