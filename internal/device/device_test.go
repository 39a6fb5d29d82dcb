package device

import (
	"testing"
	"testing/quick"
)

func cfg4() Config {
	return Config{
		NumLinks: 4, NumVaults: 16, NumBanks: 8, NumDRAMs: 20,
		CapacityGB: 2, QueueDepth: 64, XbarDepth: 128, StoreData: true,
	}
}

func cfg8() Config {
	return Config{
		NumLinks: 8, NumVaults: 32, NumBanks: 16, NumDRAMs: 20,
		CapacityGB: 8, QueueDepth: 64, XbarDepth: 128,
	}
}

func TestConfigValidate(t *testing.T) {
	good := cfg4()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.NumLinks = 6 },
		func(c *Config) { c.NumVaults = 8 },  // 4 links need 16 vaults
		func(c *Config) { c.NumVaults = 32 }, // 4 links need 16 vaults
		func(c *Config) { c.NumBanks = 0 },
		func(c *Config) { c.NumDRAMs = 0 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.XbarDepth = 0 },
		func(c *Config) { c.CapacityGB = 3 },
		func(c *Config) { c.BlockSize = 48 },
	}
	for i, mutate := range cases {
		c := cfg4()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, c)
		}
	}
}

func TestHierarchyFourLink(t *testing.T) {
	d, err := New(0, cfg4())
	if err != nil {
		t.Fatal(err)
	}
	// "this device contains four quad units and sixteen vaults"
	if len(d.Quads) != 4 {
		t.Errorf("quads = %d, want 4", len(d.Quads))
	}
	if len(d.Vaults) != 16 {
		t.Errorf("vaults = %d, want 16", len(d.Vaults))
	}
	if len(d.Links) != 4 {
		t.Errorf("links = %d, want 4", len(d.Links))
	}
	// Each quad unit represents four vaults.
	for q := range d.Quads {
		for i, v := range d.Quads[q].Vaults {
			if d.Vaults[v].Quad != q {
				t.Errorf("quad %d vault slot %d: vault %d claims quad %d", q, i, v, d.Vaults[v].Quad)
			}
		}
	}
	// Each link is physically closest to the respectively numbered quad.
	for l := range d.Links {
		if d.Links[l].Quad != l {
			t.Errorf("link %d quad = %d, want %d", l, d.Links[l].Quad, l)
		}
	}
	// Every vault has its configured bank block.
	for v := range d.Vaults {
		if got := len(d.Vaults[v].Banks); got != 8 {
			t.Errorf("vault %d has %d banks, want 8", v, got)
		}
		for b := range d.Vaults[v].Banks {
			bank := &d.Vaults[v].Banks[b]
			if bank.ID != b || bank.Vault != v {
				t.Errorf("bank identity wrong: %+v at vault %d slot %d", bank, v, b)
			}
		}
	}
	// DRAM parts: vaults * banks * drams, each attributed to its bank.
	if got, want := d.NumDRAMs(), 16*8*20; got != want {
		t.Errorf("NumDRAMs = %d, want %d", got, want)
	}
	if got, want := d.DRAM(15, 7, 19), (DRAM{ID: 19, Bank: 15*8 + 7}); got != want {
		t.Errorf("DRAM(15, 7, 19) = %+v, want %+v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("DRAM outside the device did not panic")
		}
	}()
	d.DRAM(16, 0, 0)
}

func TestHierarchyEightLink(t *testing.T) {
	d, err := New(3, cfg8())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Quads) != 8 || len(d.Vaults) != 32 || len(d.Links) != 8 {
		t.Errorf("geometry: %d quads, %d vaults, %d links", len(d.Quads), len(d.Vaults), len(d.Links))
	}
	if d.ID != 3 {
		t.Errorf("ID = %d", d.ID)
	}
	for l := range d.Links {
		if d.Links[l].SrcCube != 3 {
			t.Errorf("link %d SrcCube = %d, want 3", l, d.Links[l].SrcCube)
		}
		if d.Links[l].Active {
			t.Errorf("link %d active before topology config", l)
		}
	}
}

func TestQueueDepthsConfigured(t *testing.T) {
	c := cfg4()
	c.QueueDepth = 64
	c.XbarDepth = 128
	d, err := New(0, c)
	if err != nil {
		t.Fatal(err)
	}
	// "128 bi-directional arbitration queue slots for each crossbar link
	// and 64 bi-directional arbitration queue slots for each vault unit."
	for l := range d.Links {
		if d.Links[l].RqstQ.Depth() != 128 || d.Links[l].RspQ.Depth() != 128 {
			t.Errorf("link %d queue depths %d/%d, want 128",
				l, d.Links[l].RqstQ.Depth(), d.Links[l].RspQ.Depth())
		}
	}
	for v := range d.Vaults {
		if d.Vaults[v].RqstQ.Depth() != 64 || d.Vaults[v].RspQ.Depth() != 64 {
			t.Errorf("vault %d queue depths %d/%d, want 64",
				v, d.Vaults[v].RqstQ.Depth(), d.Vaults[v].RspQ.Depth())
		}
	}
}

func TestSingleBlockAllocation(t *testing.T) {
	d, err := New(0, cfg4())
	if err != nil {
		t.Fatal(err)
	}
	// Banks of adjacent vaults must be contiguous in one slab.
	b0 := &d.Vaults[0].Banks[len(d.Vaults[0].Banks)-1]
	b1 := &d.Vaults[1].Banks[0]
	if uintptr(ptr(b1))-uintptr(ptr(b0)) != bankSize() {
		t.Error("vault bank blocks are not contiguous (single-block allocation broken)")
	}
}

func TestLinkForQuad(t *testing.T) {
	d, _ := New(0, cfg4())
	for q := 0; q < 4; q++ {
		l := d.LinkForQuad(q)
		if d.Links[l].Quad != q {
			t.Errorf("LinkForQuad(%d) = %d with quad %d", q, l, d.Links[l].Quad)
		}
	}
}

func TestRegsInitialized(t *testing.T) {
	d, _ := New(0, cfg8())
	if d.Regs == nil {
		t.Fatal("register file nil")
	}
	v, err := d.Regs.Read(0x2C0000) // FEAT
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Error("FEAT register zero")
	}
}

func TestReset(t *testing.T) {
	d, _ := New(0, cfg4())
	d.Bank(2, 3).Write(7, []uint64{0xAA, 0xBB})
	if d.Bank(2, 3).Stored() != 1 {
		t.Fatal("write not stored")
	}
	d.Links[0].Tokens = 5
	d.Reset()
	if d.Bank(2, 3).Stored() != 0 {
		t.Error("bank data survived reset")
	}
	if d.Links[0].Tokens != 0 {
		t.Error("link tokens survived reset")
	}
}

func TestBankReadWrite(t *testing.T) {
	d, _ := New(0, cfg4())
	b := d.Bank(0, 0)
	in := []uint64{1, 2, 3, 4, 5, 6, 7, 8} // 64 bytes = 4 blocks
	b.Write(100, in)
	out := make([]uint64, 8)
	b.Read(100, out)
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("word %d = %d, want %d", i, out[i], in[i])
		}
	}
	// Unwritten blocks serve deterministic pseudo-data.
	a := make([]uint64, 2)
	bb := make([]uint64, 2)
	b.Read(999, a)
	b.Read(999, bb)
	if a[0] != bb[0] || a[1] != bb[1] {
		t.Error("pseudo-data not deterministic")
	}
	var other [2]uint64
	d.Bank(0, 1).Read(999, other[:])
	if a[0] == other[0] {
		t.Error("pseudo-data identical across banks")
	}
}

func TestBankStoreDisabled(t *testing.T) {
	c := cfg4()
	c.StoreData = false
	d, _ := New(0, c)
	b := d.Bank(0, 0)
	before := make([]uint64, 2)
	b.Read(5, before)
	b.Write(5, []uint64{0xDEAD, 0xBEEF})
	after := make([]uint64, 2)
	b.Read(5, after)
	if after[0] != before[0] || after[1] != before[1] {
		t.Error("write persisted with storage disabled")
	}
	if b.Stored() != 0 {
		t.Error("blocks materialized with storage disabled")
	}
}

func TestBankAtomics(t *testing.T) {
	d, _ := New(0, cfg4())
	b := d.Bank(1, 1)

	// ADD16 with carry across the 64-bit boundary.
	b.Write(0, []uint64{^uint64(0), 5})
	old := b.Add16(0, [2]uint64{1, 0})
	if old[0] != ^uint64(0) || old[1] != 5 {
		t.Errorf("Add16 old = %v", old)
	}
	var cur [2]uint64
	b.Read(0, cur[:])
	if cur[0] != 0 || cur[1] != 6 {
		t.Errorf("Add16 result = %v, want [0 6] (carry)", cur)
	}

	// 2ADD8: independent halves, no carry between them.
	b.Write(1, []uint64{^uint64(0), 10})
	b.Add8Dual(1, [2]uint64{1, 1})
	b.Read(1, cur[:])
	if cur[0] != 0 || cur[1] != 11 {
		t.Errorf("Add8Dual result = %v, want [0 11]", cur)
	}

	// BWR: masked bit write on the low word.
	b.Write(2, []uint64{0xFF00FF00FF00FF00, 7})
	b.BitWrite(2, 0x0000FFFF0000FFFF, 0x0000FFFF00000000)
	b.Read(2, cur[:])
	if cur[0] != 0xFF00FFFFFF00FF00 {
		t.Errorf("BitWrite low = %#x", cur[0])
	}
	if cur[1] != 7 {
		t.Errorf("BitWrite touched high word: %#x", cur[1])
	}
}

func TestPropertyBankReadBackWhatYouWrite(t *testing.T) {
	d, _ := New(0, cfg4())
	f := func(vaultSel, bankSel uint8, blk uint64, w0, w1 uint64) bool {
		v := int(vaultSel) % 16
		bk := int(bankSel) % 8
		b := d.Bank(v, bk)
		blk &= 1<<20 - 1
		b.Write(blk, []uint64{w0, w1})
		var out [2]uint64
		b.Read(blk, out[:])
		return out[0] == w0 && out[1] == w1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
