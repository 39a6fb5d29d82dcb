package packet

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// TestResetFeedsTheNextMiss pins the recycler: a pool that runs dry after
// another pool's Reset draws exactly the buffers that pool released, in
// its LIFO order, and moving a list between pools that way allocates
// nothing.
func TestResetFeedsTheNextMiss(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop released lists at random")
	}
	// With one P and no collection the recycler hands back exactly what
	// was put. Two collections first empty it of lists other tests
	// released (the second clears the victim cache).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Two whole batches, all put back: a's free list is exactly held.
	a, b := NewPool(), NewPool()
	held := make([]*Packet, 2*poolBatch)
	for i := range held {
		held[i] = a.Get()
	}
	for _, p := range held {
		a.Put(p)
	}
	a.Reset()
	if a.InUse() != 0 {
		t.Fatalf("InUse after Reset = %d", a.InUse())
	}
	for i := len(held) - 1; i >= 0; i-- {
		if p := b.Get(); p != held[i] {
			t.Fatalf("draw %d after the other pool's Reset = %p, want its released %p", len(held)-1-i, p, held[i])
		}
	}
	for _, p := range held {
		b.Put(p)
	}
	b.Reset()

	pools := [2]*Pool{a, b}
	allocs := testing.AllocsPerRun(20, func() {
		dst := pools[0]
		for i := range held {
			held[i] = dst.Get()
		}
		for _, p := range held {
			dst.Put(p)
		}
		dst.Reset()
		pools[0], pools[1] = pools[1], pools[0]
	})
	if allocs != 0 {
		t.Errorf("handing a free list from pool to pool: %v allocs per round, want 0", allocs)
	}

	if p := NewPool().Get(); !slices.Contains(held, p) {
		t.Errorf("a new pool's first miss drew %p, not a released buffer", p)
	}
	if p := NewPool().Get(); slices.Contains(held, p) {
		t.Errorf("with the recycler empty a miss drew the in-use buffer %p", p)
	}
}

// poisoned returns a buffer whose every word, those past any packet's
// length included, is ^0, and whose length is the longest a packet has:
// the worst a recycled buffer can hold.
func poisoned() *Packet {
	p := &Packet{words: MaxWords}
	for i := range p.raw {
		p.raw[i] = ^uint64(0)
	}
	return p
}

// TestBuildersOverwriteRecycledBuffers is the rule that lets buffers cross
// engines: every builder the engine uses on a pooled buffer writes every
// word Words() exposes, so a buffer's history never shows in a packet's
// Words(), Data() or CRC.
func TestBuildersOverwriteRecycledBuffers(t *testing.T) {
	data := make([]uint64, MaxWords)
	for i := range data {
		data[i] = uint64(i+1) * 0x0101010101010101
	}
	same := func(what string, clean, dirty *Packet) {
		t.Helper()
		if !slices.Equal(clean.Words(), dirty.Words()) || !slices.Equal(clean.Data(), dirty.Data()) {
			t.Errorf("%s: a recycled buffer shows through:\nclean %x\ndirty %x", what, clean.Words(), dirty.Words())
		}
		if err := dirty.Validate(); err != nil {
			t.Errorf("%s on a recycled buffer: %v", what, err)
		}
	}
	for c := Command(0); c <= cmdMask; c++ {
		switch {
		case c.IsRequest() || c.IsFlow():
			r := Request{CUB: 2, Addr: 0x1234560, Tag: 77, Cmd: c, SLID: 3, Seq: 5, Data: data[:c.DataBytes()/8]}
			clean, dirty := new(Packet), poisoned()
			if err := BuildRequestInto(clean, r); err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			if err := BuildRequestInto(dirty, r); err != nil {
				t.Fatalf("%v on a recycled buffer: %v", c, err)
			}
			same(c.String(), clean, dirty)
			// A request poisoned in place into its ERROR response.
			ErrorResponseInto(clean, clean, 1, ErrStatVaultFail)
			ErrorResponseInto(dirty, dirty, 1, ErrStatVaultFail)
			same(c.String()+" -> ERROR", clean, dirty)
		case c.IsResponse():
			for n := 0; n <= MaxWords-WordsPerFlit; n += WordsPerFlit {
				r := Response{CUB: 1, Tag: 9, Cmd: c, SLID: 2, Seq: 6, ErrStat: ErrStatPoison, DInv: true, Data: data[:n]}
				clean, dirty := new(Packet), poisoned()
				if err := BuildResponseInto(clean, r); err != nil {
					t.Fatalf("%v with %d words: %v", c, n, err)
				}
				if err := BuildResponseInto(dirty, r); err != nil {
					t.Fatalf("%v with %d words on a recycled buffer: %v", c, n, err)
				}
				same(c.String(), clean, dirty)
			}
		}
	}
}
