package queue

import (
	"math/rand"
	"testing"
	"unsafe"

	"hmcsim/internal/packet"
)

// MustNew is New for statically valid depths; it panics on error.
func MustNew(depth int) *Queue {
	q, err := New(depth)
	if err != nil {
		panic(err)
	}
	return q
}

func mkpkt(t *testing.T, tag uint16) *packet.Packet {
	t.Helper()
	p, err := packet.BuildRequest(packet.Request{Cmd: packet.CmdRD16, Tag: tag, Addr: uint64(tag) * 64})
	if err != nil {
		t.Fatal(err)
	}
	return &p
}

func TestNewRejectsBadDepth(t *testing.T) {
	for _, d := range []int{0, -1, -128} {
		if _, err := New(d); err == nil {
			t.Errorf("New(%d) succeeded, want error", d)
		}
	}
	q, err := New(1)
	if err != nil {
		t.Fatalf("New(1): %v", err)
	}
	if q.Depth() != 1 {
		t.Errorf("Depth() = %d, want 1", q.Depth())
	}
}

func TestFIFOOrder(t *testing.T) {
	q := MustNew(8)
	for i := uint16(0); i < 8; i++ {
		if err := q.Push(mkpkt(t, i), uint64(i)); err != nil {
			t.Fatalf("Push(%d): %v", i, err)
		}
	}
	if !q.Full() {
		t.Error("queue should be full")
	}
	if err := q.Push(mkpkt(t, 99), 0); err != ErrFull {
		t.Errorf("Push on full queue = %v, want ErrFull", err)
	}
	for i := uint16(0); i < 8; i++ {
		p, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop %d failed", i)
		}
		if p.Tag() != i {
			t.Errorf("Pop order: got tag %d, want %d", p.Tag(), i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue succeeded")
	}
}

func TestWrapAround(t *testing.T) {
	q := MustNew(4)
	tag := uint16(0)
	// Interleave pushes and pops so head cycles through the ring multiple
	// times.
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if err := q.Push(mkpkt(t, tag), 0); err != nil {
				t.Fatal(err)
			}
			tag++
		}
		for i := 0; i < 3; i++ {
			p, ok := q.Pop()
			if !ok {
				t.Fatal("unexpected empty")
			}
			want := uint16(round*3 + i)
			if p.Tag() != want {
				t.Fatalf("round %d: got tag %d, want %d", round, p.Tag(), want)
			}
		}
	}
}

func TestAt(t *testing.T) {
	q := MustNew(4)
	// Force a wrapped layout: push 3, pop 2, push 2.
	for i := uint16(0); i < 3; i++ {
		_ = q.Push(mkpkt(t, i), 0)
	}
	q.Pop()
	q.Pop()
	_ = q.Push(mkpkt(t, 3), 0)
	_ = q.Push(mkpkt(t, 4), 0)
	want := []uint16{2, 3, 4}
	for i, w := range want {
		p := q.At(i)
		if p == nil || q.Tag(i) == nil {
			t.Fatalf("At(%d) = %v, Tag(%d) = %v", i, p, i, q.Tag(i))
		}
		if p.Tag() != w {
			t.Errorf("At(%d).Tag = %d, want %d", i, p.Tag(), w)
		}
	}
	if q.At(3) != nil || q.Tag(3) != nil {
		t.Error("At/Tag past count should be nil")
	}
	if q.At(-1) != nil || q.Tag(-1) != nil {
		t.Error("At/Tag(-1) should be nil")
	}
	if h := q.Head(); h == nil || h.Tag() != 2 {
		t.Errorf("Head() = %v", h)
	}
}

func TestRemoveMiddle(t *testing.T) {
	q := MustNew(8)
	for i := uint16(0); i < 5; i++ {
		_ = q.Push(mkpkt(t, i), 0)
	}
	if !q.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	want := []uint16{0, 1, 3, 4}
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	for i, w := range want {
		if got := q.At(i).Tag(); got != w {
			t.Errorf("after Remove: At(%d) = %d, want %d", i, got, w)
		}
	}
	// Remove head and tail.
	if !q.Remove(0) || !q.Remove(q.Len()-1) {
		t.Fatal("Remove head/tail failed")
	}
	want = []uint16{1, 3}
	for i, w := range want {
		if got := q.At(i).Tag(); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
	if q.Remove(5) {
		t.Error("Remove out of range succeeded")
	}
}

func TestRemoveWrapped(t *testing.T) {
	q := MustNew(4)
	for i := uint16(0); i < 4; i++ {
		_ = q.Push(mkpkt(t, i), 0)
	}
	q.Pop()
	q.Pop()
	_ = q.Push(mkpkt(t, 4), 0)
	_ = q.Push(mkpkt(t, 5), 0)
	// Queue now holds 2,3,4,5 with head mid-ring.
	if !q.Remove(1) {
		t.Fatal("Remove(1) failed")
	}
	want := []uint16{2, 4, 5}
	for i, w := range want {
		if got := q.At(i).Tag(); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestDeferredLifecycle: the deferred and moved marks live in the tag
// ring and clear at the cycle edge; the cached bank beside them survives
// it.
func TestDeferredLifecycle(t *testing.T) {
	q := MustNew(4)
	_ = q.Push(mkpkt(t, 0), 0)
	_ = q.Push(mkpkt(t, 1), 0)
	if q.Tag(1).Deferred() || q.Tag(0).Moved() {
		t.Fatal("a pushed slot starts marked")
	}
	q.Tag(1).MarkDeferred()
	q.Tag(1).SetBank(5)
	if !q.Tag(1).Deferred() || q.Tag(1).Moved() {
		t.Fatal("MarkDeferred set the wrong mark")
	}
	q.Tag(0).MarkMoved()
	if !q.Tag(0).Moved() || q.Tag(0).Deferred() {
		t.Fatal("MarkMoved set the wrong mark")
	}
	q.ClearCycleFlags()
	for i := 0; i < q.Len(); i++ {
		if q.Tag(i).Deferred() || q.Tag(i).Moved() {
			t.Errorf("slot %d still flagged after ClearCycleFlags", i)
		}
	}
	if bank, ok := q.Tag(1).Bank(); !ok || bank != 5 {
		t.Errorf("ClearCycleFlags dropped the cached bank: %d, %v", bank, ok)
	}
}

// TestArrivalClock: Push stamps the packet's arrival clock and zeroes the
// retry count a previous hop left in it.
func TestArrivalClock(t *testing.T) {
	q := MustNew(2)
	p := mkpkt(t, 7)
	p.Arrived, p.Retries = 3, 4
	_ = q.Push(p, 42)
	if got := q.Head().Arrived; got != 42 {
		t.Errorf("Arrived = %d, want 42", got)
	}
	if got := q.Head().Retries; got != 0 {
		t.Errorf("Retries = %d after Push, want 0", got)
	}
}

func TestReset(t *testing.T) {
	q := MustNew(4)
	for i := uint16(0); i < 4; i++ {
		_ = q.Push(mkpkt(t, i), 0)
	}
	q.Reset()
	if !q.Empty() || q.Len() != 0 || q.Free() != 4 {
		t.Errorf("after Reset: len=%d free=%d", q.Len(), q.Free())
	}
	// Queue must be usable after reset.
	if err := q.Push(mkpkt(t, 9), 0); err != nil {
		t.Fatal(err)
	}
	if q.Head().Tag() != 9 {
		t.Error("push after reset broken")
	}
}

// modelSlot is what the reference model remembers of one queued packet:
// its transaction tag, which identifies the packet, its slot tag's
// fields, and the two fields Push stamps into the packet.
type modelSlot struct {
	tag             uint16
	deferred, moved bool
	retries         uint8
	bank            int // -1: none cached
	arrived         uint64
}

// TestPropertyFIFOModel drives the queue with a random
// push/pop/remove/compact/clear-flags sequence and checks it against a
// plain-slice reference model: the depths the engine uses (and the
// degenerate ones), started from every head position so each ring
// operation is exercised across the wrap. Every slot carries a random
// tag, so the model checks that each tag stays with its packet through
// every move of the two rings. Every other queue is bound to a bit of an
// occupancy word whose other bits belong to someone else; the rest stay
// as New made them, with no word to keep.
func TestPropertyFIFOModel(t *testing.T) {
	pkts := make([]*packet.Packet, 512)
	for i := range pkts {
		pkts[i] = mkpktQuick(uint16(i))
	}
	for _, depth := range []int{1, 2, 3, 16, 64, 128} {
		for start := 0; start < depth; start++ {
			r := rand.New(rand.NewSource(int64(depth)<<16 | int64(start)))
			q := MustNew(depth)
			const others = 0xA5A5_5A5A_C3C3_3C3C
			word, bit := uint64(others), uint64(0)
			if start%2 == 1 {
				bit = 1 << uint(start%64)
				q.Bind(&word, uint(start%64))
			}
			for i := 0; i < start; i++ { // walk the head to the start position
				if err := q.Push(pkts[0], 0); err != nil {
					t.Fatal(err)
				}
				q.Pop()
			}
			if q.head != start {
				t.Fatalf("depth %d: head %d, want %d", depth, q.head, start)
			}
			var model []modelSlot
			tag := uint16(0)
			for op := 0; op < 300; op++ {
				switch r.Intn(6) {
				case 0, 1: // push (twice as likely, so queues fill and wrap)
					clk := uint64(op)
					err := q.Push(pkts[tag], clk)
					if len(model) == depth {
						if err != ErrFull {
							t.Fatalf("depth %d start %d op %d: Push on full queue: %v", depth, start, op, err)
						}
						break
					}
					if err != nil {
						t.Fatalf("depth %d start %d op %d: Push: %v", depth, start, op, err)
					}
					m := modelSlot{tag: tag, bank: -1, arrived: clk}
					p, st := q.At(q.Len()-1), q.Tag(q.Len()-1)
					// Decorate the new slot the way the engine's stages do.
					if r.Intn(2) == 0 {
						st.MarkDeferred()
						m.deferred = true
					}
					if r.Intn(2) == 0 {
						st.MarkMoved()
						m.moved = true
					}
					if r.Intn(4) == 0 {
						m.retries = uint8(1 + r.Intn(200))
						p.Retries = m.retries
					}
					if r.Intn(2) == 0 {
						m.bank = r.Intn(127)
						st.SetBank(m.bank)
					}
					model = append(model, m)
					tag = (tag + 1) % uint16(len(pkts))
				case 2: // pop
					p, ok := q.Pop()
					if len(model) == 0 {
						if ok {
							t.Fatalf("depth %d start %d op %d: Pop on empty queue succeeded", depth, start, op)
						}
						break
					}
					if !ok || p.Tag() != model[0].tag {
						t.Fatalf("depth %d start %d op %d: Pop = %v, %v; want tag %d", depth, start, op, p, ok, model[0].tag)
					}
					model = model[1:]
				case 3: // remove random index
					if q.Remove(len(model)) || q.Remove(-1) {
						t.Fatalf("depth %d start %d op %d: Remove out of range succeeded", depth, start, op)
					}
					if len(model) == 0 {
						break
					}
					i := r.Intn(len(model))
					if !q.Remove(i) {
						t.Fatalf("depth %d start %d op %d: Remove(%d) failed", depth, start, op, i)
					}
					model = append(model[:i:i], model[i+1:]...)
				case 4: // retire a random subset of a random window, compact once
					n := r.Intn(len(model) + 2) // may exceed Len: Compact clamps
					kept := make([]modelSlot, 0, len(model))
					for i, m := range model {
						if i < n && r.Intn(2) == 0 {
							q.Retire(i)
							continue
						}
						kept = append(kept, m)
					}
					q.Compact(n)
					model = kept
				case 5:
					q.ClearCycleFlags()
					for i := range model {
						model[i].deferred, model[i].moved = false, false
					}
				}
				checkAgainstModel(t, q, model, depth)
				if word&^bit != others&^bit {
					t.Errorf("occupancy word %#x: bits other than %#x changed from %#x", word, bit, uint64(others))
				}
				if t.Failed() {
					t.Fatalf("depth %d start %d: diverged from the model at op %d", depth, start, op)
				}
			}
			q.Reset() // however full the walk left it
			checkAgainstModel(t, q, nil, depth)
		}
	}
}

// checkAgainstModel compares every observable of q with the model, and
// the unobservable one the rings rely on: slots outside the valid range
// hold nil and a zero tag, so no stale packet pointer or mark outlives
// its slot.
func checkAgainstModel(t *testing.T, q *Queue, model []modelSlot, depth int) {
	t.Helper()
	if q.Len() != len(model) || q.Free() != depth-len(model) ||
		q.Empty() != (len(model) == 0) || q.Full() != (len(model) == depth) {
		t.Errorf("Len %d Free %d Empty %v Full %v with %d modelled slots of %d",
			q.Len(), q.Free(), q.Empty(), q.Full(), len(model), depth)
		return
	}
	if q.head < 0 || q.head >= depth {
		t.Errorf("head %d outside the ring", q.head)
		return
	}
	if q.occ != nil && (*q.occ&q.bit != 0) != (len(model) > 0) {
		t.Errorf("occupancy bit %#x of %#x with %d modelled slots", q.bit, *q.occ, len(model))
	}
	for i, m := range model {
		p, st := q.At(i), q.Tag(i)
		if p == nil || st == nil {
			t.Errorf("slot %d: packet %v, tag %v", i, p, st)
			continue
		}
		bank, ok := st.Bank()
		if p.Tag() != m.tag || st.Deferred() != m.deferred ||
			st.Moved() != m.moved || p.Retries != m.retries || p.Arrived != m.arrived ||
			ok != (m.bank >= 0) || (ok && bank != m.bank) {
			t.Errorf("slot %d = packet %d tag %#x retries %d arrived %d, model %+v",
				i, p.Tag(), uint16(*st), p.Retries, p.Arrived, m)
		}
	}
	if q.At(len(model)) != nil || q.At(-1) != nil || q.Tag(len(model)) != nil || q.Tag(-1) != nil {
		t.Error("At or Tag outside the valid range returned a slot")
	}
	if (q.Head() == nil) != (len(model) == 0) || (len(model) > 0 && q.Head() != q.At(0)) {
		t.Error("Head disagrees with At(0)")
	}
	for i := len(model); i < depth; i++ {
		if j := q.index(i); q.pkts[j] != nil || q.tags[j] != 0 {
			t.Errorf("free slot %d not zero: packet %v, tag %#x", i, q.pkts[j], uint16(q.tags[j]))
		}
	}
	if err := q.Audit(); err != nil {
		t.Error(err)
	}
}

// TestSlotSize pins the slot footprint at 10 bytes, a packet reference
// and a tag: queue storage is most of what an engine build allocates,
// and the arrival clock and retry count ride in the packet instead.
func TestSlotSize(t *testing.T) {
	var q Queue
	if got := unsafe.Sizeof(q.pkts[:1][0]) + unsafe.Sizeof(q.tags[:1][0]); got != 10 {
		t.Errorf("a slot is %d bytes, want 10", got)
	}
}

// TestBankCache covers the cached bank's encoding edges, and that the
// bank field and the two marks leave each other alone.
func TestBankCache(t *testing.T) {
	var tag Tag
	if _, ok := tag.Bank(); ok {
		t.Error("zero tag reports a cached bank")
	}
	for _, b := range []int{0, 1, 63, 126} {
		tag = 0
		tag.SetBank(b)
		if got, ok := tag.Bank(); !ok || got != b {
			t.Errorf("SetBank(%d) read back %d, %v", b, got, ok)
		}
		tag.MarkDeferred()
		tag.MarkMoved()
		if got, ok := tag.Bank(); !ok || got != b {
			t.Errorf("marks clobbered bank %d: read back %d, %v", b, got, ok)
		}
		tag.SetBank(b ^ 1)
		if !tag.Deferred() || !tag.Moved() {
			t.Errorf("SetBank(%d) clobbered the marks: %#x", b^1, uint16(tag))
		}
	}
	for _, b := range []int{-1, 127, 255, 1024} {
		tag = 0
		tag.SetBank(b)
		if _, ok := tag.Bank(); ok || tag != 0 {
			t.Errorf("SetBank(%d) cached a bank the 7-bit field cannot hold: %#x", b, uint16(tag))
		}
	}
}

func mkpktQuick(tag uint16) *packet.Packet {
	p, err := packet.BuildRequest(packet.Request{Cmd: packet.CmdRD16, Tag: tag})
	if err != nil {
		panic(err)
	}
	return &p
}

func TestSlab(t *testing.T) {
	qs, err := Slab(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 4 {
		t.Fatalf("%d queues", len(qs))
	}
	for i := range qs {
		if qs[i].Depth() != 8 {
			t.Errorf("queue %d depth %d", i, qs[i].Depth())
		}
	}
	// Queues are independent despite the shared slab.
	_ = qs[0].Push(mkpkt(t, 1), 0)
	if qs[1].Len() != 0 {
		t.Error("slab queues share state")
	}
	// Overfilling one queue must not leak into its neighbour's slots.
	for i := uint16(0); i < 8; i++ {
		_ = qs[2].Push(mkpkt(t, i), 0)
	}
	if err := qs[2].Push(mkpkt(t, 99), 0); err != ErrFull {
		t.Error("slab queue exceeded its slice")
	}
	if qs[3].Len() != 0 {
		t.Error("overflow leaked into the next queue")
	}
	if _, err := Slab(0, 8); err == nil {
		t.Error("accepted zero queues")
	}
	if _, err := Slab(4, 0); err == nil {
		t.Error("accepted zero depth")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestQueueString(t *testing.T) {
	q := MustNew(4)
	_ = q.Push(mkpkt(t, 1), 0)
	if got := q.String(); got != "queue[1/4]" {
		t.Errorf("String() = %q", got)
	}
}
