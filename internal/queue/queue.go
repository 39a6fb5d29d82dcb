// Package queue implements the shared queuing structure used throughout
// the HMC-Sim device hierarchy.
//
// All queuing structures present in the HMC-Sim structure hierarchy — the
// crossbar request and response queues attached to every link and the vault
// request and response queues attached to every vault controller — share
// the same software representation. Each queue contains one or more queue
// slots; each slot carries a valid designator describing whether the slot
// is in use, and storage sufficient for the largest possible packet of nine
// FLITs.
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

// Slot is a registered input or output logic stage holding at most one
// packet.
//
// Slots hold packets by pointer: the packet buffers themselves live in a
// free-list pool owned by the simulation object (or wherever the caller
// built them), so moving a packet between queues moves one word instead
// of copying the 144-byte maximum-size packet through every hop.
type Slot struct {
	// Valid designates whether the slot is in use.
	Valid bool
	// Packet points at the slot's packet buffer. It is non-nil exactly
	// when Valid is set; the queue never dereferences it.
	Packet *packet.Packet
	// Deferred marks the slot as not eligible for processing in the
	// current clock cycle. The bank-conflict recognition stage sets it on
	// request packets that lost bank arbitration; the vault processing
	// stage skips deferred slots and the flag clears at the next clock
	// edge.
	Deferred bool
	// Moved marks a packet that already progressed by one internal stage
	// during the current clock cycle. Packets progress at most a single
	// stage per sub-cycle operation; the crossbar stages skip moved slots
	// and the flag clears at the next clock edge.
	Moved bool
	// Retries counts the transparent link-level retransmissions this
	// packet has consumed on its current hop (fault model). Unlike the
	// cycle flags it persists across clock edges; it resets when the
	// packet moves to the next queue.
	Retries uint8
	// bank caches the decoded bank of a request waiting in a vault request
	// queue as bank+1; zero means not cached. It is derived state — a
	// pure function of the packet's address and the device's address map —
	// so checkpoints and digests never carry it and a reader that finds it
	// empty decodes the address and fills it in. It occupies padding the
	// struct already had: Slot stays 32 bytes.
	bank uint8
	// Arrived records the device clock value at which the packet entered
	// this queue, for latency tracing.
	Arrived uint64
}

// Bank returns the bank cached by SetBank; ok is false when none is.
func (s *Slot) Bank() (bank int, ok bool) { return int(s.bank) - 1, s.bank != 0 }

// SetBank caches the slot's decoded bank. A bank index too large for
// the byte is not cached; its readers decode on every use.
func (s *Slot) SetBank(bank int) {
	if bank >= 0 && bank < 255 {
		s.bank = uint8(bank + 1)
	}
}

// Queue is a fixed-depth FIFO of packet slots.
type Queue struct {
	slots []Slot
	head  int // index of the oldest valid slot
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
	return &Queue{slots: make([]Slot, depth)}, nil
}

// MustNew is New for statically valid depths; it panics on error.
func MustNew(depth int) *Queue {
	q, err := New(depth)
	if err != nil {
		panic(err)
	}
	return q
}

// Slab allocates n queues of the given depth whose slot storage shares a
// single contiguous allocation. HMC-Sim performs well-aligned internal
// memory allocation at initialization time — each structure type is
// allocated as one block with hierarchical pointers into it — to promote
// good memory utilization and large-page allocation; Slab reproduces that
// layout for queue slots.
func Slab(n, depth int) ([]Queue, error) {
	if n < 1 {
		return nil, fmt.Errorf("queue: slab count %d < 1", n)
	}
	if depth < 1 {
		return nil, fmt.Errorf("queue: depth %d < 1", depth)
	}
	slots := make([]Slot, n*depth)
	qs := make([]Queue, n)
	for i := range qs {
		qs[i].slots = slots[i*depth : (i+1)*depth : (i+1)*depth]
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
func (q *Queue) Depth() int { return len(q.slots) }

// Len returns the number of valid slots.
func (q *Queue) Len() int { return q.count }

// Free returns the number of empty slots.
func (q *Queue) Free() int { return len(q.slots) - q.count }

// Full reports whether every slot is valid.
func (q *Queue) Full() bool { return q.count == len(q.slots) }

// Empty reports whether no slot is valid.
func (q *Queue) Empty() bool { return q.count == 0 }

// index returns the ring position of the i-th valid slot, 0 <= i <=
// count. head and i are both below len(slots), so one compare-and-wrap
// replaces the modulo (an integer division per slot touched).
func (q *Queue) index(i int) int {
	i += q.head
	if i >= len(q.slots) {
		i -= len(q.slots)
	}
	return i
}

// Push appends p to the tail of the queue, recording the arrival clock.
// It returns ErrFull when no free slot exists. The queue takes ownership
// of the pointed-to packet until Pop, Remove or Compact surrenders it.
func (q *Queue) Push(p *packet.Packet, clock uint64) error {
	if q.Full() {
		return ErrFull
	}
	q.slots[q.index(q.count)] = Slot{Valid: true, Packet: p, Arrived: clock}
	if q.count++; q.count == 1 {
		q.markOccupied()
	}
	return nil
}

// Head returns the oldest valid slot, or nil when the queue is empty. The
// returned pointer remains valid until the next Pop or Push.
func (q *Queue) Head() *Slot {
	if q.Empty() {
		return nil
	}
	return &q.slots[q.head]
}

// At returns the i-th valid slot in FIFO order (0 is the head), or nil
// when fewer than i+1 slots are valid.
func (q *Queue) At(i int) *Slot {
	if i < 0 || i >= q.count {
		return nil
	}
	return &q.slots[q.index(i)]
}

// Pop removes and returns the head packet, transferring ownership to the
// caller. The second result is false when the queue is empty.
func (q *Queue) Pop() (*packet.Packet, bool) {
	if q.Empty() {
		return nil, false
	}
	s := &q.slots[q.head]
	p := s.Packet
	*s = Slot{}
	q.head = q.index(1)
	if q.count--; q.count == 0 {
		q.markEmpty()
	}
	return p, true
}

// Remove deletes the i-th valid slot (FIFO order) and compacts the queue,
// preserving the relative order of the remaining packets. It reports
// whether a slot was removed. Remove supports the vault processing stage,
// which may service an unconflicted packet behind a deferred head. The
// caller is responsible for having taken the slot's packet pointer first
// if it still needs it.
func (q *Queue) Remove(i int) bool {
	if i < 0 || i >= q.count {
		return false
	}
	if i == 0 {
		// Head removal is the common case (strict FIFO drains); it only
		// advances the ring head.
		q.slots[q.head] = Slot{}
		q.head = q.index(1)
		if q.count--; q.count == 0 {
			q.markEmpty()
		}
		return true
	}
	// Shift everything after i forward by one slot. Slots carry packet
	// pointers, so the shift moves words, not packet bodies.
	cur := q.index(i)
	for j := i; j < q.count-1; j++ {
		next := cur + 1
		if next == len(q.slots) {
			next = 0
		}
		q.slots[cur] = q.slots[next]
		cur = next
	}
	q.slots[cur] = Slot{}
	q.count--
	return true
}

// Compact removes, in one pass, every slot among the first n in FIFO
// order that the caller has retired by zeroing it (*s = Slot{}),
// preserving the relative order of all remaining packets. It supports the
// vault processing stage, which services any number of unconflicted
// packets behind deferred ones in a cycle: retiring them one Remove at a
// time costs a shift of the queue's tail per packet, Compact costs n slot
// visits in total. The survivors of the window slide toward the tail and
// the head advances past the vacated slots, so slots beyond the window are
// never touched.
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
		if q.slots[src].Valid {
			if dst != src {
				q.slots[dst] = q.slots[src]
				q.slots[src] = Slot{}
			}
			kept++
			if dst == 0 {
				dst = len(q.slots)
			}
			dst--
		}
		if src == 0 {
			src = len(q.slots)
		}
		src--
	}
	q.head = q.index(n - kept)
	if q.count -= n - kept; q.count == 0 {
		q.markEmpty()
	}
}

// ClearCycleFlags resets the Deferred and Moved marks on every valid
// slot. The clock engine calls it at the start of each cycle.
func (q *Queue) ClearCycleFlags() {
	i := q.head
	for n := q.count; n > 0; n-- {
		s := &q.slots[i]
		s.Deferred = false
		s.Moved = false
		if i++; i == len(q.slots) {
			i = 0
		}
	}
}

// Reset invalidates every slot.
func (q *Queue) Reset() {
	for i := range q.slots {
		q.slots[i] = Slot{}
	}
	q.head, q.count = 0, 0
	q.markEmpty()
}

// String summarizes occupancy.
func (q *Queue) String() string {
	return fmt.Sprintf("queue[%d/%d]", q.count, len(q.slots))
}
