package addr

import (
	"testing"
	"testing/quick"
)

func mustDefault(t *testing.T, vaults, banks, block, capGB int) *Default {
	t.Helper()
	m, err := NewDefault(vaults, banks, block, capGB)
	if err != nil {
		t.Fatalf("NewDefault(%d,%d,%d,%d): %v", vaults, banks, block, capGB, err)
	}
	return m
}

func TestDefaultFieldWidths(t *testing.T) {
	// Four-link devices (16 vaults) use the lower 32 bits of the field for
	// up to 4GB; eight-link devices (32 vaults) use the lower 33 bits for
	// 8GB.
	tests := []struct {
		vaults, banks, capGB int
		wantBits             int
	}{
		{16, 8, 2, 31},
		{16, 16, 4, 32},
		{32, 8, 4, 32},
		{32, 16, 8, 33},
		{16, 8, 16, 34},
	}
	for _, tt := range tests {
		m := mustDefault(t, tt.vaults, tt.banks, 64, tt.capGB)
		if got := m.AddrBits(); got != tt.wantBits {
			t.Errorf("%d vaults, %dGB: AddrBits() = %d, want %d", tt.vaults, tt.capGB, got, tt.wantBits)
		}
		if got := m.Capacity(); got != uint64(tt.capGB)<<30 {
			t.Errorf("Capacity() = %d, want %d", got, uint64(tt.capGB)<<30)
		}
	}
}

func TestDefaultRejectsBadParameters(t *testing.T) {
	cases := []struct{ vaults, banks, block, capGB int }{
		{0, 8, 64, 2},
		{15, 8, 64, 2}, // not a power of two
		{16, 0, 64, 2},
		{16, 12, 64, 2}, // not a power of two
		{16, 8, 48, 2},  // invalid block size
		{16, 8, 64, 0},
		{16, 8, 64, 3},  // not a power of two
		{16, 8, 64, 32}, // exceeds 34-bit field
	}
	for _, c := range cases {
		if _, err := NewDefault(c.vaults, c.banks, c.block, c.capGB); err == nil {
			t.Errorf("NewDefault(%+v) succeeded, want error", c)
		}
	}
}

func TestLowInterleaveOrdering(t *testing.T) {
	// "The default map schemas implement a low interleave model by mapping
	// the less significant address bits to the vault address, followed
	// immediately by the bank address bits. This method forces sequential
	// addresses to first interleave across vaults then across banks within
	// vault."
	m := mustDefault(t, 16, 8, 64, 2)
	// Walk sequential 64-byte blocks: the vault must change every block,
	// wrapping around all 16 vaults before the bank increments.
	for i := 0; i < 16*8*4; i++ {
		a := uint64(i) * 64
		d := m.Decode(a)
		wantVault := i % 16
		wantBank := (i / 16) % 8
		if d.Vault != wantVault || d.Bank != wantBank {
			t.Fatalf("block %d: vault=%d bank=%d, want vault=%d bank=%d",
				i, d.Vault, d.Bank, wantVault, wantBank)
		}
	}
}

func TestSequentialAddressesAvoidBankConflicts(t *testing.T) {
	// Any run of numVaults*numBanks consecutive blocks must touch every
	// (vault, bank) pair exactly once — that is the anti-conflict property
	// the low-interleave map exists for.
	m := mustDefault(t, 32, 16, 128, 8)
	seen := make(map[[2]int]int)
	for i := 0; i < 32*16; i++ {
		d := m.Decode(uint64(i) * 128)
		seen[[2]int{d.Vault, d.Bank}]++
	}
	if len(seen) != 32*16 {
		t.Fatalf("consecutive blocks covered %d (vault,bank) pairs, want %d", len(seen), 32*16)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("pair %v hit %d times, want 1", k, n)
		}
	}
}

func TestDecodeRanges(t *testing.T) {
	m := mustDefault(t, 16, 8, 64, 2)
	for _, a := range []uint64{0, 63, 64, 0x7FFFFFFF, 1<<31 - 1, 0xDEADBEEF} {
		d := m.Decode(a)
		if d.Vault < 0 || d.Vault >= 16 {
			t.Errorf("Decode(%#x).Vault = %d out of range", a, d.Vault)
		}
		if d.Bank < 0 || d.Bank >= 8 {
			t.Errorf("Decode(%#x).Bank = %d out of range", a, d.Bank)
		}
		if d.Off >= 64 {
			t.Errorf("Decode(%#x).Off = %d out of range", a, d.Off)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := mustDefault(t, 16, 8, 64, 2)
	f := func(raw uint64) bool {
		a := raw & (1<<31 - 1) &^ 0xF // in range, 16-byte aligned
		d := m.Decode(a)
		return m.Encode(d) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTripAllConfigs(t *testing.T) {
	for _, vaults := range []int{16, 32} {
		for _, banks := range []int{8, 16} {
			for _, block := range []int{32, 64, 128, 256} {
				m := mustDefault(t, vaults, banks, block, 8)
				mask := uint64(1)<<uint(m.AddrBits()) - 1
				f := func(raw uint64) bool {
					a := raw & mask &^ 0xF
					return m.Encode(m.Decode(a)) == a
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
					t.Errorf("v=%d b=%d blk=%d: %v", vaults, banks, block, err)
				}
			}
		}
	}
}

func TestDecodeBijectionOverCoordinates(t *testing.T) {
	// Distinct aligned addresses must decode to distinct coordinates.
	m := mustDefault(t, 16, 16, 64, 4)
	seen := make(map[Decoded]uint64)
	for i := 0; i < 4096; i++ {
		a := uint64(i) * 16
		d := m.Decode(a)
		d.Off = 0 // coordinates only
		d.DRAM = m.Decode(a).DRAM
		key := Decoded{Vault: d.Vault, Bank: d.Bank, DRAM: d.DRAM}
		if prev, dup := seen[key]; dup {
			t.Fatalf("addresses %#x and %#x decode to the same coordinates %+v", prev, a, key)
		}
		seen[key] = a
	}
}

func TestHighInterleaveOrdering(t *testing.T) {
	m, err := NewHighInterleave(16, 8, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential addresses must stay within vault 0, bank 0 until the DRAM
	// space of that bank is exhausted.
	for i := 0; i < 1024; i++ {
		d := m.Decode(uint64(i) * 64)
		if d.Vault != 0 || d.Bank != 0 {
			t.Fatalf("block %d: vault=%d bank=%d, want 0,0", i, d.Vault, d.Bank)
		}
	}
	// The top addresses land in the last vault.
	top := uint64(1)<<uint(m.AddrBits()) - 64
	d := m.Decode(top)
	if d.Vault != 15 {
		t.Errorf("top address vault = %d, want 15", d.Vault)
	}
}

func TestHighInterleaveRoundTrip(t *testing.T) {
	m, err := NewHighInterleave(32, 16, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	mask := uint64(1)<<uint(m.AddrBits()) - 1
	f := func(raw uint64) bool {
		a := raw & mask &^ 0xF
		return m.Encode(m.Decode(a)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDefaultAndHighInterleaveCoverSameSpace(t *testing.T) {
	lo := mustDefault(t, 16, 8, 64, 2)
	hi, err := NewHighInterleave(16, 8, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lo.AddrBits() != hi.AddrBits() {
		t.Errorf("address widths differ: %d vs %d", lo.AddrBits(), hi.AddrBits())
	}
}

func TestBlockSizeChangesVaultStride(t *testing.T) {
	// With a 32-byte block map, vaults rotate every 32 bytes; with 256-byte
	// blocks, every 256 bytes.
	for _, block := range []int{32, 64, 128, 256} {
		m := mustDefault(t, 16, 8, block, 4)
		d0 := m.Decode(0)
		dSame := m.Decode(uint64(block) - 16)
		dNext := m.Decode(uint64(block))
		if d0.Vault != dSame.Vault {
			t.Errorf("block=%d: addresses within one block map to different vaults", block)
		}
		if dNext.Vault != (d0.Vault+1)%16 {
			t.Errorf("block=%d: next block vault = %d, want %d", block, dNext.Vault, (d0.Vault+1)%16)
		}
	}
}

func TestStringDescribesLayout(t *testing.T) {
	m := mustDefault(t, 16, 8, 64, 2)
	if s := m.String(); s == "" {
		t.Error("String() returned empty")
	}
}

// BenchmarkAddressDecode decodes through the map of Table I
// configuration 1 (16 vaults, 8 banks, 64-byte blocks, 2GB).
func BenchmarkAddressDecode(b *testing.B) {
	m, err := NewDefault(16, 8, 64, 2)
	if err != nil {
		b.Fatal(err)
	}
	var a uint64
	for b.Loop() {
		m.Decode(a)
		a += 64
	}
}
