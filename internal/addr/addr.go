// Package addr implements the HMC physical addressing and interleave
// models.
//
// Physical addresses for HMC devices are encoded into a 34-bit field
// containing the vault, bank and DRAM address bits. Four-link devices use
// the lower 32 bits of the field; eight-link devices use the lower 33 bits.
//
// Rather than a single fixed structure, the specification permits the
// implementer to define the mapping most suited to the target access
// pattern, and provides default map modes that marry the physical vault and
// bank structure to the desired maximum block request size. The default
// schemas implement a low-interleave model: the least significant address
// bits above the block offset select the vault, followed immediately by the
// bank bits, so that sequential addresses interleave first across vaults
// and then across banks within a vault, avoiding bank conflicts.
package addr

import (
	"fmt"
	"math/bits"
)

// FieldBits is the width of the HMC physical address field.
const FieldBits = 34

// Decoded is the result of translating a physical address into device
// coordinates.
type Decoded struct {
	Vault int    // vault index within the device
	Bank  int    // bank index within the vault
	DRAM  uint64 // block address within the bank, in 16-byte units
	Off   uint64 // byte offset within the maximum request block
}

// Mapper translates physical addresses to device coordinates. Implementers
// and users may define a custom address mapping scheme optimized for the
// target memory access characteristics; Default provides the
// specification's default modes.
type Mapper interface {
	// Decode splits a physical address into vault, bank, DRAM block and
	// block offset.
	Decode(addr uint64) Decoded
	// Encode reassembles device coordinates into a physical address. It is
	// the inverse of Decode for addresses within range.
	Encode(d Decoded) uint64
	// AddrBits returns the number of significant physical address bits for
	// the configured capacity (32 for 4-link devices, 33 for 8-link).
	AddrBits() int
}

// Default is the specification's default low-interleave address map:
//
//	[ DRAM block ][ bank ][ vault ][ block offset ]
//	 high bits                      log2(BlockSize) low bits
//
// Sequential addresses first interleave across vaults, then across banks
// within a vault.
type Default struct {
	numVaults int
	numBanks  int
	blockSize int
	addrBits  int

	offBits   uint
	vaultBits uint
	bankBits  uint
}

// NewDefault constructs a default address map for a device with the given
// number of vaults and banks per vault, a maximum block request size in
// bytes (32, 64, 128 or 256), and the total per-device capacity in
// gigabytes. Vault and bank counts must be powers of two.
func NewDefault(numVaults, numBanks, blockSize, capacityGB int) (*Default, error) {
	if numVaults <= 0 || bits.OnesCount(uint(numVaults)) != 1 {
		return nil, fmt.Errorf("addr: vault count %d is not a positive power of two", numVaults)
	}
	if numBanks <= 0 || bits.OnesCount(uint(numBanks)) != 1 {
		return nil, fmt.Errorf("addr: bank count %d is not a positive power of two", numBanks)
	}
	switch blockSize {
	case 32, 64, 128, 256:
	default:
		return nil, fmt.Errorf("addr: block size %d not one of 32/64/128/256", blockSize)
	}
	if capacityGB <= 0 || bits.OnesCount(uint(capacityGB)) != 1 {
		return nil, fmt.Errorf("addr: capacity %d GB is not a positive power of two", capacityGB)
	}
	addrBits := 30 + bits.TrailingZeros(uint(capacityGB))
	if addrBits > FieldBits {
		return nil, fmt.Errorf("addr: capacity %d GB exceeds the %d-bit address field", capacityGB, FieldBits)
	}
	m := &Default{
		numVaults: numVaults,
		numBanks:  numBanks,
		blockSize: blockSize,
		addrBits:  addrBits,
		offBits:   uint(bits.TrailingZeros(uint(blockSize))),
		vaultBits: uint(bits.TrailingZeros(uint(numVaults))),
		bankBits:  uint(bits.TrailingZeros(uint(numBanks))),
	}
	if int(m.offBits+m.vaultBits+m.bankBits) > addrBits {
		return nil, fmt.Errorf("addr: vault/bank/offset fields (%d bits) exceed %d address bits",
			m.offBits+m.vaultBits+m.bankBits, addrBits)
	}
	return m, nil
}

// Decode implements Mapper.
func (m *Default) Decode(a uint64) Decoded {
	a &= 1<<uint(m.addrBits) - 1
	off := a & (1<<m.offBits - 1)
	a >>= m.offBits
	vault := int(a & (1<<m.vaultBits - 1))
	a >>= m.vaultBits
	bank := int(a & (1<<m.bankBits - 1))
	a >>= m.bankBits
	// The vault controller breaks the DRAM into blocks each addressing
	// 16 bytes; rebase the in-bank block address to 16-byte units so bank
	// storage indexing is independent of the interleave block size.
	dram := a<<m.offBits | off
	return Decoded{Vault: vault, Bank: bank, DRAM: dram >> 4, Off: off}
}

// Encode implements Mapper.
func (m *Default) Encode(d Decoded) uint64 {
	blk := d.DRAM << 4 // back to byte units
	off := blk & (1<<m.offBits - 1)
	high := blk >> m.offBits
	a := high
	a = a<<m.bankBits | uint64(d.Bank)&(1<<m.bankBits-1)
	a = a<<m.vaultBits | uint64(d.Vault)&(1<<m.vaultBits-1)
	a = a<<m.offBits | off
	return a & (1<<uint(m.addrBits) - 1)
}

// AddrBits implements Mapper.
func (m *Default) AddrBits() int { return m.addrBits }

// NumVaults returns the configured vault count.
func (m *Default) NumVaults() int { return m.numVaults }

// NumBanks returns the configured banks-per-vault count.
func (m *Default) NumBanks() int { return m.numBanks }

// BlockSize returns the configured maximum block request size in bytes.
func (m *Default) BlockSize() int { return m.blockSize }

// Capacity returns the addressable capacity, in bytes, described by the
// map.
func (m *Default) Capacity() uint64 { return 1 << uint(m.addrBits) }

// String describes the map layout.
func (m *Default) String() string {
	return fmt.Sprintf("default map: %d addr bits = dram[%d:%d] bank[%d:%d] vault[%d:%d] off[%d:0]",
		m.addrBits,
		m.addrBits-1, int(m.offBits+m.vaultBits+m.bankBits),
		int(m.offBits+m.vaultBits+m.bankBits)-1, int(m.offBits+m.vaultBits),
		int(m.offBits+m.vaultBits)-1, int(m.offBits),
		int(m.offBits)-1)
}
