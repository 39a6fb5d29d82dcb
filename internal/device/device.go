// Package device implements the HMC-Sim software representation of a
// Hybrid Memory Cube device.
//
// Given the logical and physical hierarchy present in the HMC device
// specification, the internal software representation uses the same
// approach (the paper's Figure 2). From the highest level to the lowest:
//
//	Device   — a single HMC package: links, crossbar units, quad units,
//	           configuration registers
//	Link     — a physical device link (host or chained device endpoint)
//	           with its crossbar-unit request and response queues
//	Quad     — a locality domain: four vaults loosely associated with the
//	           closest physical link
//	Vault    — a vertically stacked storage unit with its vault-controller
//	           request and response queues
//	Bank     — a memory bank nested within its vault
//	DRAM     — the designated data storage parts of a bank
//
// Each structure type is allocated as a single block at initialization
// time, with hierarchical references pointing within the allocation, as a
// best effort toward good memory utilization and large-page allocation.
package device

import (
	"fmt"

	"hmcsim/internal/addr"
	"hmcsim/internal/queue"
	"hmcsim/internal/reg"
)

// VaultsPerQuad is the number of vault units per quad unit: each quad unit
// represents four vaults in both four and eight link configurations.
const VaultsPerQuad = 4

// Config describes the physical parameters of one HMC device. All devices
// within a single simulation object must be physically homogeneous.
type Config struct {
	// NumLinks is the external link count: 4 or 8.
	NumLinks int
	// NumVaults is the vault count; the specification ties it to the link
	// configuration (four quads of four vaults for 4-link devices, eight
	// quads for 8-link devices), so it must equal 4*NumLinks.
	NumVaults int
	// NumBanks is the bank count per vault (8 or 16 in the paper's
	// configurations; any positive power of two is accepted).
	NumBanks int
	// NumDRAMs is the DRAM part count per bank (structural; a 32-byte
	// column fetch is striped across the parts).
	NumDRAMs int
	// CapacityGB is the device storage capacity in gigabytes.
	CapacityGB int
	// QueueDepth is the depth of each vault request and response queue.
	QueueDepth int
	// XbarDepth is the depth of each link crossbar request and response
	// queue.
	XbarDepth int
	// BlockSize is the maximum block request size in bytes for the default
	// address map (32, 64, 128 or 256).
	BlockSize int
	// StoreData enables functional data storage: writes persist and reads
	// return them. When false, banks serve deterministic pseudo-data,
	// which is sufficient for performance studies and avoids backing
	// multi-gigabyte images.
	StoreData bool
}

// Validate checks cfg against the specification constraints.
func (c Config) Validate() error {
	if c.NumLinks != 4 && c.NumLinks != 8 {
		return fmt.Errorf("device: link count %d not 4 or 8", c.NumLinks)
	}
	if c.NumVaults != 4*c.NumLinks {
		return fmt.Errorf("device: %d links require %d vaults (4 per quad), got %d",
			c.NumLinks, 4*c.NumLinks, c.NumVaults)
	}
	if c.NumBanks < 1 {
		return fmt.Errorf("device: bank count %d < 1", c.NumBanks)
	}
	if c.NumDRAMs < 1 {
		return fmt.Errorf("device: DRAM count %d < 1", c.NumDRAMs)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("device: vault queue depth %d < 1", c.QueueDepth)
	}
	if c.XbarDepth < 1 {
		return fmt.Errorf("device: crossbar queue depth %d < 1", c.XbarDepth)
	}
	// Address map construction validates vault/bank/capacity/block
	// compatibility.
	_, err := addr.NewDefault(c.NumVaults, c.NumBanks, c.blockSize(), c.CapacityGB)
	return err
}

func (c Config) blockSize() int {
	if c.BlockSize == 0 {
		return 64
	}
	return c.BlockSize
}

// NumQuads returns the quad unit count for the configuration.
func (c Config) NumQuads() int { return c.NumVaults / VaultsPerQuad }

// Link is the software representation of a physical device link and its
// crossbar unit. Each link holds a reference to its closest quad unit and
// the source and destination endpoint identifiers.
type Link struct {
	// ID is the link index within the device.
	ID int
	// Quad is the closest quad unit: requests entering on this link reach
	// that quad's vaults without a routed latency penalty.
	Quad int
	// SrcCube and DstCube identify the endpoints. SrcCube is this
	// device's cube ID. DstCube is the peer: another device's cube ID,
	// the host ID, or -1 when the link is inactive.
	SrcCube, DstCube int
	// DstLink is the peer device's link index for chained links, -1
	// otherwise.
	DstLink int
	// Active reports whether the link is wired into the topology.
	Active bool
	// RqstQ and RspQ are the crossbar-unit arbitration queues accessible
	// from this link.
	RqstQ, RspQ *queue.Queue
	// Tokens models the rudimentary link-level flow-control token count
	// adjusted by PRET/TRET flow packets.
	Tokens int
	// ReqFlits counts request FLITs received on this link end (inbound
	// traffic from the host or a chained device).
	ReqFlits uint64
	// RspFlits counts response FLITs transmitted from this link end
	// (outbound traffic toward the host).
	RspFlits uint64
}

// Quad is a quadrant: a locality domain of four vaults loosely associated
// with the closest physical link block.
type Quad struct {
	ID int
	// Link is the closest physical link.
	Link int
	// Vaults lists the vault IDs within this quad.
	Vaults [VaultsPerQuad]int
}

// Vault is a vertically stacked vault unit and its vault controller.
type Vault struct {
	ID   int
	Quad int
	// RqstQ and RspQ mimic the presence of a vault controller; their
	// depths are configured at initialization time.
	RqstQ, RspQ *queue.Queue
	// Banks indexes the device's bank block for this vault.
	Banks []Bank
}

// DRAM is one DRAM part within a bank. The vault controller breaks bank
// storage into 16-byte blocks; read and write requests to a target bank
// are performed as 32-byte column fetches striped across the parts. The
// parts are structural — nothing is stored per part — so a device
// computes them on request (Device.DRAM) instead of allocating them.
type DRAM struct {
	// ID is the part index within its bank.
	ID int
	// Bank is the device-wide bank index, vault-major.
	Bank int
}

// Device is one simulated HMC package.
type Device struct {
	// ID is the cube ID.
	ID  int
	Cfg Config

	Links  []Link
	Quads  []Quad
	Vaults []Vault

	// Regs is the device configuration/status register file.
	Regs *reg.File

	// Map is the device's address mapping (the default low-interleave map
	// unless replaced before simulation starts).
	Map addr.Mapper

	banks []Bank // single-block bank allocation
}

// New allocates and resets a device with cube ID id. All structure types
// are allocated as single blocks with hierarchical references into them.
func New(id int, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := addr.NewDefault(cfg.NumVaults, cfg.NumBanks, cfg.blockSize(), cfg.CapacityGB)
	if err != nil {
		return nil, err
	}
	d := &Device{ID: id, Cfg: cfg, Map: m}

	// One slab per queue layer.
	linkQs, err := queue.Slab(2*cfg.NumLinks, cfg.XbarDepth)
	if err != nil {
		return nil, err
	}
	vaultQs, err := queue.Slab(2*cfg.NumVaults, cfg.QueueDepth)
	if err != nil {
		return nil, err
	}

	d.Links = make([]Link, cfg.NumLinks)
	for i := range d.Links {
		d.Links[i] = Link{
			ID:      i,
			Quad:    i % cfg.NumQuads(),
			SrcCube: id,
			DstCube: -1,
			DstLink: -1,
			RqstQ:   &linkQs[2*i],
			RspQ:    &linkQs[2*i+1],
		}
	}

	d.Quads = make([]Quad, cfg.NumQuads())
	d.Vaults = make([]Vault, cfg.NumVaults)
	d.banks = make([]Bank, cfg.NumVaults*cfg.NumBanks)

	for q := range d.Quads {
		d.Quads[q] = Quad{ID: q, Link: q % cfg.NumLinks}
		for v := 0; v < VaultsPerQuad; v++ {
			d.Quads[q].Vaults[v] = q*VaultsPerQuad + v
		}
	}
	for v := range d.Vaults {
		bankBase := v * cfg.NumBanks
		d.Vaults[v] = Vault{
			ID:    v,
			Quad:  v / VaultsPerQuad,
			RqstQ: &vaultQs[2*v],
			RspQ:  &vaultQs[2*v+1],
			Banks: d.banks[bankBase : bankBase+cfg.NumBanks : bankBase+cfg.NumBanks],
		}
		for b := 0; b < cfg.NumBanks; b++ {
			d.banks[bankBase+b] = Bank{
				ID:    b,
				Vault: v,
				store: cfg.StoreData,
			}
		}
	}

	d.Regs = reg.NewFile(cfg.CapacityGB, cfg.NumVaults, cfg.NumBanks, cfg.NumDRAMs, cfg.NumLinks)
	return d, nil
}

// Reset returns the device to its initial state: queues drained, bank
// contents dropped, registers reinitialized.
func (d *Device) Reset() {
	for i := range d.Links {
		d.Links[i].RqstQ.Reset()
		d.Links[i].RspQ.Reset()
		d.Links[i].Tokens = 0
		d.Links[i].ReqFlits = 0
		d.Links[i].RspFlits = 0
	}
	for i := range d.Vaults {
		d.Vaults[i].RqstQ.Reset()
		d.Vaults[i].RspQ.Reset()
	}
	for i := range d.banks {
		d.banks[i].Reset()
	}
	d.Regs = reg.NewFile(d.Cfg.CapacityGB, d.Cfg.NumVaults, d.Cfg.NumBanks,
		d.Cfg.NumDRAMs, d.Cfg.NumLinks)
}

// Bank returns the bank b of vault v.
func (d *Device) Bank(v, b int) *Bank {
	return &d.Vaults[v].Banks[b]
}

// NumDRAMs returns the device's DRAM part count: vaults × banks × parts
// per bank.
func (d *Device) NumDRAMs() int {
	return d.Cfg.NumVaults * d.Cfg.NumBanks * d.Cfg.NumDRAMs
}

// DRAM returns part p of bank b of vault v. Like indexing, it panics on
// coordinates outside the device.
func (d *Device) DRAM(v, b, p int) DRAM {
	c := d.Cfg
	if v < 0 || v >= c.NumVaults || b < 0 || b >= c.NumBanks || p < 0 || p >= c.NumDRAMs {
		panic(fmt.Sprintf("device: DRAM(%d, %d, %d) outside %d vaults x %d banks x %d parts",
			v, b, p, c.NumVaults, c.NumBanks, c.NumDRAMs))
	}
	return DRAM{ID: p, Bank: v*c.NumBanks + b}
}

// LinkForQuad returns the link physically closest to quad q. Host devices
// minimize latency by sending request packets to links whose associated
// quad unit is closest to the required vault.
func (d *Device) LinkForQuad(q int) int {
	for i := range d.Links {
		if d.Links[i].Quad == q {
			return i
		}
	}
	return 0
}
