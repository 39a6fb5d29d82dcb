package workload

import (
	"testing"
	"testing/quick"

	"hmcsim/internal/addr"
)

func TestGlibcRandKnownSequence(t *testing.T) {
	// The TYPE_0 sequence for srand(1) is documented and widely
	// reproduced; pin the first five values.
	g := NewGlibcRand(1)
	want := []int32{1103527590, 377401575, 662824084, 1147902781, 2035015474}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("rand() call %d = %d, want %d", i+1, got, w)
		}
	}
}

func TestGlibcRandRange(t *testing.T) {
	g := NewGlibcRand(12345)
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v < 0 || v > RandMax {
			t.Fatalf("value %d out of [0, RandMax]", v)
		}
	}
}

func TestGlibcRandSeedRestartsSequence(t *testing.T) {
	g := NewGlibcRand(7)
	a := []int32{g.Next(), g.Next(), g.Next()}
	g.Seed(7)
	for i := range a {
		if got := g.Next(); got != a[i] {
			t.Fatalf("reseeded value %d = %d, want %d", i, got, a[i])
		}
	}
}

func TestGlibcBelow(t *testing.T) {
	g := NewGlibcRand(3)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := g.Below(7)
		if v >= 7 {
			t.Fatalf("Below(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("bucket %d count %d badly skewed", i, c)
		}
	}
	if g.Below(0) != 0 {
		t.Error("Below(0) != 0")
	}
}

func TestRandomAccessProperties(t *testing.T) {
	w, err := NewRandomAccess(1, 1<<30, 64, 50)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		a := w.Next()
		if a.Addr%64 != 0 {
			t.Fatalf("address %#x not 64-byte aligned", a.Addr)
		}
		if a.Addr >= 1<<30 {
			t.Fatalf("address %#x out of range", a.Addr)
		}
		if a.Size != 64 {
			t.Fatalf("size = %d", a.Size)
		}
		if a.Write {
			writes++
		}
	}
	// 50/50 mixture within a loose tolerance.
	if writes < n*4/10 || writes > n*6/10 {
		t.Errorf("writes = %d of %d, want ~50%%", writes, n)
	}
}

func TestRandomAccessDeterministic(t *testing.T) {
	a, _ := NewRandomAccess(99, 1<<28, 32, 30)
	b, _ := NewRandomAccess(99, 1<<28, 32, 30)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandomAccessValidation(t *testing.T) {
	if _, err := NewRandomAccess(1, 1<<20, 48, 50); err != nil {
		t.Errorf("rejected 48-byte blocks (a valid FLIT multiple): %v", err)
	}
	if _, err := NewRandomAccess(1, 1<<20, 20, 50); err == nil {
		t.Error("accepted 20-byte blocks")
	}
	if _, err := NewRandomAccess(1, 1<<20, 64, 101); err == nil {
		t.Error("accepted write percent 101")
	}
	if _, err := NewRandomAccess(1, 32, 64, 50); err == nil {
		t.Error("accepted range < block")
	}
}

func TestStreamSequential(t *testing.T) {
	w, err := NewStream(1, 1024, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 16; i++ {
			a := w.Next()
			if a.Addr != uint64(i)*64 {
				t.Fatalf("round %d access %d: addr %#x, want %#x", round, i, a.Addr, i*64)
			}
			if a.Write {
				t.Fatal("write generated with 0% writes")
			}
		}
	}
}

func TestStreamCoversVaultsUniformly(t *testing.T) {
	// Sequential traffic under the default map must rotate vaults evenly.
	m, err := addr.NewDefault(16, 8, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewStream(1, 1<<20, 64, 50)
	counts := make([]int, 16)
	for i := 0; i < 1600; i++ {
		counts[m.Decode(w.Next().Addr).Vault]++
	}
	for v, c := range counts {
		if c != 100 {
			t.Errorf("vault %d: %d accesses, want 100", v, c)
		}
	}
}

func TestStridePinsVault(t *testing.T) {
	// A stride equal to vaults*blocksize keeps every access in one vault.
	m, _ := addr.NewDefault(16, 8, 64, 2)
	w, err := NewStride(1, 0, 16*64, 1<<20, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	v0 := m.Decode(w.Next().Addr).Vault
	for i := 0; i < 100; i++ {
		if got := m.Decode(w.Next().Addr).Vault; got != v0 {
			t.Fatalf("stride escaped vault %d to %d", v0, got)
		}
	}
}

func TestStrideValidation(t *testing.T) {
	if _, err := NewStride(1, 0, 0, 1<<20, 64, 0); err == nil {
		t.Error("accepted zero stride")
	}
	if _, err := NewStride(1, 0, 64, 0, 64, 0); err == nil {
		t.Error("accepted zero range")
	}
}

func TestHotspotConcentration(t *testing.T) {
	w, err := NewHotspot(1, 1<<30, 1<<12, 90, 64, 50)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if w.Next().Addr < 1<<12 {
			hot++
		}
	}
	if hot < n*85/100 {
		t.Errorf("hot accesses = %d of %d, want >= 85%%", hot, n)
	}
	if _, err := NewHotspot(1, 1<<20, 1<<21, 50, 64, 50); err == nil {
		t.Error("accepted hot region larger than range")
	}
}

func TestPointerChaseFullPeriod(t *testing.T) {
	w, err := NewPointerChase(5, 256*64, 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < 256; i++ {
		a := w.Next()
		if a.Write {
			t.Fatal("pointer chase generated a write")
		}
		if seen[a.Addr] {
			t.Fatalf("address %#x revisited at step %d (period < range)", a.Addr, i)
		}
		seen[a.Addr] = true
	}
	if len(seen) != 256 {
		t.Errorf("covered %d blocks, want 256", len(seen))
	}
}

func TestRoundRobinSelector(t *testing.T) {
	s := &RoundRobin{NumLinks: 4}
	for i := 0; i < 12; i++ {
		if got := s.Select(Access{}); got != i%4 {
			t.Fatalf("select %d = %d, want %d", i, got, i%4)
		}
	}
}

func TestLocalitySelector(t *testing.T) {
	m, _ := addr.NewDefault(16, 8, 64, 2)
	s := &Locality{Map: m, NumLinks: 4}
	f := func(raw uint64) bool {
		a := Access{Addr: raw & (1<<31 - 1)}
		link := s.Select(a)
		wantQuad := m.Decode(a.Addr).Vault / 4
		return link == wantQuad%4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFixedSelector(t *testing.T) {
	s := Fixed{Link: 2}
	for i := 0; i < 5; i++ {
		if s.Select(Access{Addr: uint64(i) * 997}) != 2 {
			t.Fatal("fixed selector moved")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	w, err := NewZipf(1, 1<<30, 64, 50, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint64]int)
	const n = 50000
	writes := 0
	for i := 0; i < n; i++ {
		a := w.Next()
		if a.Addr%64 != 0 || a.Addr >= 1<<30 {
			t.Fatalf("bad address %#x", a.Addr)
		}
		counts[a.Addr]++
		if a.Write {
			writes++
		}
	}
	// Skew: the most popular block must dominate far beyond uniform.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/100 {
		t.Errorf("hottest block only %d of %d accesses; Zipf skew missing", max, n)
	}
	if writes < n*4/10 || writes > n*6/10 {
		t.Errorf("writes = %d of %d", writes, n)
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(1, 1<<20, 64, 50, 1.0); err == nil {
		t.Error("accepted s=1")
	}
	if _, err := NewZipf(1, 1<<20, 20, 50, 1.5); err == nil {
		t.Error("accepted bad size")
	}
	if _, err := NewZipf(1, 32, 64, 50, 1.5); err == nil {
		t.Error("accepted tiny range")
	}
	if _, err := NewZipf(1, 1<<20, 64, 101, 1.5); err == nil {
		t.Error("accepted bad write percent")
	}
}

func TestZipfDeterministic(t *testing.T) {
	a, _ := NewZipf(9, 1<<28, 64, 30, 1.5)
	b, _ := NewZipf(9, 1<<28, 64, 30, 1.5)
	for i := 0; i < 500; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed Zipf diverged")
		}
	}
}

func BenchmarkGlibcRand(b *testing.B) {
	g := NewGlibcRand(1)
	for b.Loop() {
		g.Next()
	}
}
