// Package queue implements the shared queuing structure used throughout
// the HMC-Sim device hierarchy.
//
// All queuing structures present in the HMC-Sim structure hierarchy — the
// crossbar request and response queues attached to every link and the vault
// request and response queues attached to every vault controller — share
// the same software representation. Each queue contains one or more queue
// slots; a slot is in use exactly when it holds a packet reference, and the
// packet buffer it references has storage for the largest possible packet
// of nine FLITs.
//
// A queue keeps two rings of the same depth. The packet ring holds one
// *packet.Packet per slot, nil in a free slot. The tag ring holds one
// 16-bit Tag per slot: the three fields a per-cycle pass reads for every
// waiting packet (the cached bank and the deferred and moved marks), kept
// dense so those passes never dereference a packet they do not otherwise
// need. The arrival clock and the per-hop retry count live in the packet
// itself (packet.Packet.Arrived, Retries): a packet sits in at most one
// queue at a time, and every reader of either field already holds it. A
// slot therefore costs 10 bytes.
//
// The specification deliberately leaves queuing behaviour ambiguous so that
// implementers may tailor devices to specific requirements; HMC-Sim follows
// that paradigm by requiring users to specify the depth of both queuing
// layers at initialization time. The queues here are strict FIFOs with
// head-of-line semantics: packets drain in arrival order, and a stalled
// head blocks the packets behind it.
package queue

import (
	"errors"
	"fmt"

	"hmcsim/internal/packet"
)

// ErrFull is returned by Push when no free queue slot exists. Callers
// translate it into crossbar or vault stall events.
var ErrFull = errors.New("queue: all slots valid (queue full)")

// Tag is the per-slot bookkeeping of a queued packet that the clock
// engine's stages keep beside it: bits 0-6 cache the decoded bank as
// bank+1 (zero: not cached), bit 7 is the deferred mark and bit 8 the
// moved mark. A free slot's tag is zero, and Push leaves a new packet's
// tag zero.
//
// The cached bank is derived state — a pure function of the packet's
// address and the device's address map — so checkpoints and digests never
// carry it, and a reader that finds it empty decodes the address and
// fills it in. The deferred mark makes a request that lost bank
// arbitration ineligible for vault service in the current cycle; the
// moved mark records that a packet already progressed by one internal
// stage in the current cycle, so the crossbar stages skip it. Both marks
// clear at the next clock edge (ClearCycleFlags).
type Tag uint16

const (
	tagBank     Tag = 1<<7 - 1
	tagDeferred Tag = 1 << 7
	tagMoved    Tag = 1 << 8
)

// Bank returns the cached bank; ok is false when none is cached.
func (t Tag) Bank() (bank int, ok bool) { return int(t&tagBank) - 1, t&tagBank != 0 }

// SetBank caches a decoded bank. A bank too large for the 7-bit field
// (127 or more) is not cached; its readers decode on every use.
func (t *Tag) SetBank(bank int) {
	if bank >= 0 && bank < int(tagBank) {
		*t = *t&^tagBank | Tag(bank+1)
	}
}

// Deferred reports the deferred mark.
func (t Tag) Deferred() bool { return t&tagDeferred != 0 }

// MarkDeferred sets the deferred mark.
func (t *Tag) MarkDeferred() { *t |= tagDeferred }

// Moved reports the moved mark.
func (t Tag) Moved() bool { return t&tagMoved != 0 }

// MarkMoved sets the moved mark.
func (t *Tag) MarkMoved() { *t |= tagMoved }

// Queue is a fixed-depth FIFO of packet slots.
type Queue struct {
	// pkts and tags are the two rings, of equal length: the packet in
	// each slot (nil when free) and its tag (zero when free).
	pkts  []*packet.Packet
	tags  []Tag
	head  int // ring position of the oldest packet
	count int
	// occ and bit are the queue's entry in its owner's occupancy index
	// (Bind): the queue keeps bit set in *occ exactly while it holds a
	// packet, writing the word only when it goes from empty to non-empty
	// or back. An unbound queue has no word and skips the bookkeeping.
	occ *uint64
	bit uint64
}

// New returns a queue with the given number of slots. Depth must be at
// least one: there must exist at least one queue slot for each logical
// queue representation to act as a registered input or output stage.
func New(depth int) (*Queue, error) {
	if depth < 1 {
		return nil, fmt.Errorf("queue: depth %d < 1", depth)
	}
	return &Queue{pkts: make([]*packet.Packet, depth), tags: make([]Tag, depth)}, nil
}

// Slab allocates n queues of the given depth whose rings share storage:
// one allocation holds the packet rings of all n queues, and one their
// tag rings. HMC-Sim performs well-aligned internal memory allocation at
// initialization time — each structure type is allocated as one block
// with hierarchical pointers into it — to promote good memory utilization
// and large-page allocation; Slab reproduces that layout for queue slots.
func Slab(n, depth int) ([]Queue, error) {
	if n < 1 {
		return nil, fmt.Errorf("queue: slab count %d < 1", n)
	}
	if depth < 1 {
		return nil, fmt.Errorf("queue: depth %d < 1", depth)
	}
	pkts := make([]*packet.Packet, n*depth)
	tags := make([]Tag, n*depth)
	qs := make([]Queue, n)
	for i := range qs {
		lo, hi := i*depth, (i+1)*depth
		qs[i].pkts = pkts[lo:hi:hi]
		qs[i].tags = tags[lo:hi:hi]
	}
	return qs, nil
}

// Bind makes the queue maintain bit of *word from now on: set while the
// queue is non-empty, clear while it is empty, every other bit of the
// word left alone. Whoever walks many queues binds them to the bits of a
// shared word and visits only the set ones. The bit is brought up to date
// at once, so binding a queue that already holds packets is safe; a queue
// bound before is released from its old word without touching it. Queues
// that share a word must not be used concurrently.
func (q *Queue) Bind(word *uint64, bit uint) {
	q.occ, q.bit = word, 1<<bit
	if q.count > 0 {
		q.markOccupied()
	} else {
		q.markEmpty()
	}
}

func (q *Queue) markOccupied() {
	if q.occ != nil {
		*q.occ |= q.bit
	}
}

func (q *Queue) markEmpty() {
	if q.occ != nil {
		*q.occ &^= q.bit
	}
}

// Depth returns the configured slot count.
func (q *Queue) Depth() int { return len(q.pkts) }

// Len returns the number of occupied slots.
func (q *Queue) Len() int { return q.count }

// Free returns the number of empty slots.
func (q *Queue) Free() int { return len(q.pkts) - q.count }

// Full reports whether every slot is occupied.
func (q *Queue) Full() bool { return q.count == len(q.pkts) }

// Empty reports whether no slot is occupied.
func (q *Queue) Empty() bool { return q.count == 0 }

// index returns the ring position of the i-th occupied slot, 0 <= i <=
// count. head and i are both below the depth, so one compare-and-wrap
// replaces the modulo (an integer division per slot touched).
func (q *Queue) index(i int) int {
	i += q.head
	if i >= len(q.pkts) {
		i -= len(q.pkts)
	}
	return i
}

// Push appends p to the tail of the queue with a zero tag, stamping the
// packet's arrival clock and zeroing its retry count: both describe the
// packet's stay in this queue. It returns ErrFull when no free slot
// exists. The queue takes ownership of the pointed-to packet until Pop,
// Remove or Compact surrenders it; a packet must not sit in two queues.
func (q *Queue) Push(p *packet.Packet, clock uint64) error {
	if q.Full() {
		return ErrFull
	}
	p.Arrived, p.Retries = clock, 0
	q.pkts[q.index(q.count)] = p
	if q.count++; q.count == 1 {
		q.markOccupied()
	}
	return nil
}

// Head returns the oldest packet, or nil when the queue is empty.
func (q *Queue) Head() *packet.Packet {
	if q.Empty() {
		return nil
	}
	return q.pkts[q.head]
}

// At returns the i-th packet in FIFO order (0 is the head), or nil when
// fewer than i+1 slots are occupied.
func (q *Queue) At(i int) *packet.Packet {
	if i < 0 || i >= q.count {
		return nil
	}
	return q.pkts[q.index(i)]
}

// Tag returns the tag of the i-th slot in FIFO order, or nil when fewer
// than i+1 slots are occupied. The pointer stays valid until the next
// operation that moves slots (Pop, Remove, Compact, Reset).
func (q *Queue) Tag(i int) *Tag {
	if i < 0 || i >= q.count {
		return nil
	}
	return &q.tags[q.index(i)]
}

// Pop removes and returns the head packet, transferring ownership to the
// caller. The second result is false when the queue is empty.
func (q *Queue) Pop() (*packet.Packet, bool) {
	if q.Empty() {
		return nil, false
	}
	p := q.pkts[q.head]
	q.pkts[q.head], q.tags[q.head] = nil, 0
	q.head = q.index(1)
	if q.count--; q.count == 0 {
		q.markEmpty()
	}
	return p, true
}

// Remove deletes the i-th slot (FIFO order) and compacts the queue,
// preserving the relative order of the remaining packets. It reports
// whether a slot was removed. Remove supports the crossbar stages, which
// may move a packet from behind a stalled head. The caller is responsible
// for having taken the slot's packet pointer first if it still needs it.
func (q *Queue) Remove(i int) bool {
	if i < 0 || i >= q.count {
		return false
	}
	if i == 0 {
		// Head removal is the common case (strict FIFO drains); it only
		// advances the ring head.
		q.Pop()
		return true
	}
	// Shift everything after i forward by one slot: a pointer and a tag
	// per slot, never a packet body.
	cur := q.index(i)
	for j := i; j < q.count-1; j++ {
		next := cur + 1
		if next == len(q.pkts) {
			next = 0
		}
		q.pkts[cur], q.tags[cur] = q.pkts[next], q.tags[next]
		cur = next
	}
	q.pkts[cur], q.tags[cur] = nil, 0
	q.count--
	return true
}

// Retire empties the i-th slot (FIFO order) in place, leaving a hole for
// the next Compact; the caller takes the packet first. Until that
// Compact, Len still counts the hole and At returns nil for it.
func (q *Queue) Retire(i int) {
	if i >= 0 && i < q.count {
		j := q.index(i)
		q.pkts[j], q.tags[j] = nil, 0
	}
}

// Compact removes, in one pass, every slot among the first n in FIFO
// order that the caller has retired (Retire), preserving the relative
// order of all remaining packets. It supports the vault processing stage,
// which services any number of unconflicted packets behind deferred ones
// in a cycle: retiring them one Remove at a time costs a shift of the
// queue's tail per packet, Compact costs n slot visits in total. The
// survivors of the window slide toward the tail and the head advances
// past the vacated slots, so slots beyond the window are never touched.
func (q *Queue) Compact(n int) {
	if n > q.count {
		n = q.count
	}
	if n <= 0 {
		return
	}
	src := q.index(n - 1)
	dst := src
	kept := 0
	for k := 0; k < n; k++ {
		if q.pkts[src] != nil {
			if dst != src {
				q.pkts[dst], q.tags[dst] = q.pkts[src], q.tags[src]
				q.pkts[src], q.tags[src] = nil, 0
			}
			kept++
			if dst == 0 {
				dst = len(q.pkts)
			}
			dst--
		}
		if src == 0 {
			src = len(q.pkts)
		}
		src--
	}
	q.head = q.index(n - kept)
	if q.count -= n - kept; q.count == 0 {
		q.markEmpty()
	}
}

// ClearCycleFlags resets the deferred and moved marks of every occupied
// slot, keeping the cached banks. It touches the tag ring only. The clock
// engine calls it at the start of each cycle.
func (q *Queue) ClearCycleFlags() {
	i := q.head
	for n := q.count; n > 0; n-- {
		q.tags[i] &^= tagDeferred | tagMoved
		if i++; i == len(q.tags) {
			i = 0
		}
	}
}

// Audit checks the rings against the count: every occupied slot holds a
// packet, and every free slot holds nil and a zero tag, so no stale
// packet pointer or mark outlives its slot. It returns the first
// violation, or nil.
func (q *Queue) Audit() error {
	for i := range q.pkts {
		j := q.index(i)
		switch {
		case i < q.count && q.pkts[j] == nil:
			return fmt.Errorf("queue: slot %d of %d holds no packet", i, q.count)
		case i >= q.count && (q.pkts[j] != nil || q.tags[j] != 0):
			return fmt.Errorf("queue: free slot %d (length %d) holds packet %p, tag %#x", i, q.count, q.pkts[j], uint16(q.tags[j]))
		}
	}
	return nil
}

// Reset empties every slot.
func (q *Queue) Reset() {
	clear(q.pkts)
	clear(q.tags)
	q.head, q.count = 0, 0
	q.markEmpty()
}

// String summarizes occupancy.
func (q *Queue) String() string {
	return fmt.Sprintf("queue[%d/%d]", q.count, len(q.pkts))
}
