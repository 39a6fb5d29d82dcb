// Package reg implements the HMC device configuration, read and status
// register file.
//
// The specification groups registers into three classes: registers that
// can be read and written (RW), registers that are read-only (RO), and
// registers that are self-clearing after being written to (RWS). Each
// register structure carries its configuration class and storage.
//
// Register indexing on physical HMC devices is not purely linear and does
// not begin at zero; this package provides the translation between HMC
// physical register index formats and a dense linear format so that the
// register file occupies a single compact allocation.
//
// Two access paths exist. The in-band path uses MODE_READ and MODE_WRITE
// packets addressed by physical register index, routed like any other
// request (consuming memory bandwidth). The side-band path models the JTAG
// (IEEE 1149.1) / I2C interface: it accesses the same storage but exists
// outside the device clock domains.
package reg

import "fmt"

// Class is the register configuration class.
type Class int

const (
	// RW registers can be read and written.
	RW Class = iota
	// RO registers are read-only; in-band and JTAG writes fail.
	RO
	// RWS registers are self-clearing after being written to: the written
	// value is visible until the next clock edge, at which point the
	// device clears the register.
	RWS
)

// String returns the class mnemonic.
func (c Class) String() string {
	switch c {
	case RW:
		return "RW"
	case RO:
		return "RO"
	case RWS:
		return "RWS"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Physical register indices. The values model the nonlinear index space of
// a physical HMC device: per-link registers in one block, global
// configuration in another, error/status registers in a third. These are
// the indices carried in the address field of MODE_READ / MODE_WRITE
// packets.
const (
	// PhysLC0 is the link configuration register for link 0; links 1-7
	// follow at consecutive indices.
	PhysLC0 uint64 = 0x240000
	// PhysLRLL0 is the link run-length limit register for link 0; links
	// 1-7 follow at consecutive indices.
	PhysLRLL0 uint64 = 0x240010
	// PhysGC is the global configuration register.
	PhysGC uint64 = 0x280000
	// PhysGRLL is the global run-length limit register.
	PhysGRLL uint64 = 0x280001
	// PhysVCR is the vault control register.
	PhysVCR uint64 = 0x108000
	// PhysERR is the global error register (RWS: software writes a
	// clear-mask; the device clears it at the next clock edge).
	PhysERR uint64 = 0x2B0004
	// PhysEDR0 is error detail register 0; EDR1-3 follow at consecutive
	// indices. EDRs are read-only.
	PhysEDR0 uint64 = 0x2B0000
	// PhysFEAT is the feature register describing the device geometry
	// (read-only; see PackFeat).
	PhysFEAT uint64 = 0x2C0000
	// PhysRVID is the revision/vendor ID register (read-only).
	PhysRVID uint64 = 0x2C0001
)

// numLinkRegs is the number of per-link register instances (the maximum
// link count).
const numLinkRegs = 8

// Linear register layout.
const (
	linLC0   = 0                    // 8 link configuration registers
	linLRLL0 = linLC0 + numLinkRegs // 8 link run-length limit registers
	linGC    = linLRLL0 + numLinkRegs
	linGRLL  = linGC + 1
	linVCR   = linGRLL + 1
	linERR   = linVCR + 1
	linEDR0  = linERR + 1 // 4 error detail registers
	linFEAT  = linEDR0 + 4
	linRVID  = linFEAT + 1

	// NumRegs is the total number of linear register slots.
	NumRegs = linRVID + 1
)

// Linear translates a physical HMC register index into the dense linear
// index used for storage. It returns an error for indices that do not name
// a register.
func Linear(phys uint64) (int, error) {
	switch {
	case phys >= PhysLC0 && phys < PhysLC0+numLinkRegs:
		return linLC0 + int(phys-PhysLC0), nil
	case phys >= PhysLRLL0 && phys < PhysLRLL0+numLinkRegs:
		return linLRLL0 + int(phys-PhysLRLL0), nil
	case phys == PhysGC:
		return linGC, nil
	case phys == PhysGRLL:
		return linGRLL, nil
	case phys == PhysVCR:
		return linVCR, nil
	case phys == PhysERR:
		return linERR, nil
	case phys >= PhysEDR0 && phys < PhysEDR0+4:
		return linEDR0 + int(phys-PhysEDR0), nil
	case phys == PhysFEAT:
		return linFEAT, nil
	case phys == PhysRVID:
		return linRVID, nil
	}
	return 0, fmt.Errorf("reg: physical index %#x does not name a register", phys)
}

// Physical is the inverse of Linear.
func Physical(lin int) (uint64, error) {
	switch {
	case lin >= linLC0 && lin < linLC0+numLinkRegs:
		return PhysLC0 + uint64(lin-linLC0), nil
	case lin >= linLRLL0 && lin < linLRLL0+numLinkRegs:
		return PhysLRLL0 + uint64(lin-linLRLL0), nil
	case lin == linGC:
		return PhysGC, nil
	case lin == linGRLL:
		return PhysGRLL, nil
	case lin == linVCR:
		return PhysVCR, nil
	case lin == linERR:
		return PhysERR, nil
	case lin >= linEDR0 && lin < linEDR0+4:
		return PhysEDR0 + uint64(lin-linEDR0), nil
	case lin == linFEAT:
		return PhysFEAT, nil
	case lin == linRVID:
		return PhysRVID, nil
	}
	return 0, fmt.Errorf("reg: linear index %d out of range", lin)
}

// classOf returns the configuration class for a linear register index.
func classOf(lin int) Class {
	switch {
	case lin >= linEDR0 && lin < linEDR0+4:
		return RO
	case lin == linFEAT || lin == linRVID:
		return RO
	case lin == linERR:
		return RWS
	}
	return RW
}

// Register is one device register: its physical index, class and storage.
type Register struct {
	Phys  uint64
	Class Class
	Value uint64
}

// File is the register file of a single HMC device. All register instances
// are stored in one dense allocation.
type File struct {
	regs    [NumRegs]Register
	pending [NumRegs]bool // RWS registers written since the last clock edge
	// npending counts set entries of pending, so the per-cycle Tick is a
	// single compare on the (overwhelmingly common) cycles with no RWS
	// write.
	npending int
}

// NewFile returns a reset register file: all registers zero except FEAT
// and RVID, which are initialized from the device geometry.
func NewFile(capacityGB, numVaults, numBanks, numDRAMs, numLinks int) *File {
	f := &File{}
	for i := range f.regs {
		phys, _ := Physical(i)
		f.regs[i] = Register{Phys: phys, Class: classOf(i)}
	}
	f.regs[linFEAT].Value = PackFeat(capacityGB, numVaults, numBanks, numDRAMs, numLinks)
	f.regs[linRVID].Value = Revision
	return f
}

// Revision is the value presented by the RVID register: HMC specification
// revision 1.0, vendor field modeling the simulator.
const Revision uint64 = 0x0001_5348 // "SH" vendor tag, rev 1

// PackFeat encodes the device geometry into the FEAT register layout:
//
//	[7:0]   capacity in GB
//	[15:8]  vault count
//	[23:16] banks per vault
//	[31:24] DRAMs per bank
//	[39:32] link count
func PackFeat(capacityGB, numVaults, numBanks, numDRAMs, numLinks int) uint64 {
	return uint64(capacityGB)&0xFF |
		uint64(numVaults)&0xFF<<8 |
		uint64(numBanks)&0xFF<<16 |
		uint64(numDRAMs)&0xFF<<24 |
		uint64(numLinks)&0xFF<<32
}

// UnpackFeat decodes a FEAT register value.
func UnpackFeat(v uint64) (capacityGB, numVaults, numBanks, numDRAMs, numLinks int) {
	return int(v & 0xFF), int(v >> 8 & 0xFF), int(v >> 16 & 0xFF),
		int(v >> 24 & 0xFF), int(v >> 32 & 0xFF)
}

// Read returns the value of the register with the given physical index.
func (f *File) Read(phys uint64) (uint64, error) {
	lin, err := Linear(phys)
	if err != nil {
		return 0, err
	}
	return f.regs[lin].Value, nil
}

// LinkConfig returns the value of link configuration register LC<link>,
// zero for a link the device does not have. It is Read(PhysLC0+link)
// without the physical-index translation: the engine consults the
// link-down bit on every host send and receive.
func (f *File) LinkConfig(link int) uint64 {
	if uint(link) >= numLinkRegs {
		return 0
	}
	return f.regs[linLC0+link].Value
}

// Write stores v into the register with the given physical index,
// enforcing the register class. Writes to RO registers fail. Writes to
// RWS registers take effect immediately and self-clear at the next clock
// edge.
func (f *File) Write(phys uint64, v uint64) error {
	lin, err := Linear(phys)
	if err != nil {
		return err
	}
	r := &f.regs[lin]
	switch r.Class {
	case RO:
		return fmt.Errorf("reg: register %#x is read-only", phys)
	case RWS:
		r.Value = v
		if !f.pending[lin] {
			f.pending[lin] = true
			f.npending++
		}
	default:
		r.Value = v
	}
	return nil
}

// Poke stores v regardless of class. It models internal device updates
// (status and error capture), not host access.
func (f *File) Poke(phys uint64, v uint64) error {
	lin, err := Linear(phys)
	if err != nil {
		return err
	}
	f.regs[lin].Value = v
	return nil
}

// ClassOf reports the class of the register with the given physical index.
func (f *File) ClassOf(phys uint64) (Class, error) {
	lin, err := Linear(phys)
	if err != nil {
		return 0, err
	}
	return f.regs[lin].Class, nil
}

// Tick advances the register file by one clock edge: RWS registers written
// since the previous edge self-clear.
func (f *File) Tick() {
	if f.npending == 0 {
		return
	}
	for i := range f.pending {
		if f.pending[i] {
			f.regs[i].Value = 0
			f.pending[i] = false
		}
	}
	f.npending = 0
}

// Clean reports whether no RWS register write is awaiting its
// self-clearing edge.
func (f *File) Clean() bool { return f.npending == 0 }

// Registers returns a snapshot of all registers in linear order.
func (f *File) Registers() []Register {
	out := make([]Register, NumRegs)
	copy(out, f.regs[:])
	return out
}
