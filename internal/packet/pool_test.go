package packet

import (
	"slices"
	"testing"
)

// TestResetKeepsTheFreeList pins what an engine's Free relies on: after
// Reset the pool hands back the buffers its last run returned, in LIFO
// order, and a run over a warm list allocates nothing.
func TestResetKeepsTheFreeList(t *testing.T) {
	pl := NewPool()
	held := make([]*Packet, 2*poolBatch)
	for i := range held {
		held[i] = pl.Get()
	}
	for _, p := range held[:poolBatch] {
		pl.Put(p)
	}
	pl.Reset()
	if pl.InUse() != 0 {
		t.Fatalf("InUse after Reset = %d", pl.InUse())
	}
	for i := poolBatch - 1; i >= 0; i-- {
		if p := pl.Get(); p != held[i] {
			t.Fatalf("draw %d after Reset = %p, want the returned %p", poolBatch-1-i, p, held[i])
		}
	}
	for _, p := range held {
		pl.Put(p)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range held {
			held[i] = pl.Get()
		}
		for _, p := range held {
			pl.Put(p)
		}
		pl.Reset()
	})
	if allocs != 0 {
		t.Errorf("a run over a reset pool: %v allocs, want 0", allocs)
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

// TestBuildersOverwriteRecycledBuffers is the rule that lets a buffer carry
// one job's history into the next job on the same engine: every builder
// the engine uses on a pooled buffer writes every word Words() exposes, so
// a buffer's history never shows in a packet's Words(), Data() or CRC.
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
