package packet

// Pool is a free list of packet buffers. The simulation engine draws every
// in-flight packet from a pool so that the steady-state clock path
// performs no heap allocation: once the working set of a run has been
// reached, Get is a slice pop and Put a slice push.
//
// A Pool is owned by a single HMC object (one goroutine) and takes no
// lock: its free list is LIFO and its accounting (InUse) is a pure
// function of the owner's Get/Put sequence. The free list stays with its
// owner for the owner's whole life — Reset keeps it — so an engine that
// is freed and reused runs its next job on the buffers of the last one,
// and no buffer ever crosses from one engine to another. Which buffer a
// Get returns therefore depends on the owner's history — and need not be
// reproducible: every builder (BuildRequestInto, BuildResponseInto,
// ErrorResponseInto) writes every word Words() exposes, so packet
// contents, and every digest computed over them, never depend on a
// buffer's history. (The engine's other way in, copying a whole Packet
// value into a buffer, overwrites every word as well.)
//
// Ownership rules (see DESIGN.md "Pooled hot path"):
//
//   - A packet obtained from Get is owned by exactly one place at a time:
//     a queue slot, a link-controller retry buffer, or the local frame
//     that is still building it.
//   - A packet may be recycled (Put) only when it leaves the simulation:
//     it was received by the host, dropped as a posted request, or dropped
//     as a zombie response with no route back to any host. Moving a packet
//     between queues transfers ownership and must not Put.
//   - A packet's storage may be rewritten in place (request serviced into
//     its response, response poisoned into an ERROR response) by the
//     current owner; correlation fields must be read out first.
//   - After Put the buffer contents are indeterminate; holding a pointer
//     past Put, or past Reset, is a reuse-after-free bug.
type Pool struct {
	free []*Packet
	// outstanding counts Gets minus Puts. It can go negative when
	// externally built packets are handed to Put (tests push stack
	// packets straight into device queues); callers must therefore treat
	// InUse() == 0 as a hint, not a proof of quiescence.
	outstanding int
}

// poolBatch is the number of packets allocated per free-list miss. Batch
// allocation keeps the warm-up phase from paying one heap allocation per
// packet while the working set grows.
const poolBatch = 64

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a packet buffer with unspecified contents.
func (pl *Pool) Get() *Packet {
	if len(pl.free) == 0 {
		batch := make([]Packet, poolBatch)
		for i := range batch {
			pl.free = append(pl.free, &batch[i])
		}
	}
	n := len(pl.free) - 1
	p := pl.free[n]
	pl.free = pl.free[:n]
	pl.outstanding++
	return p
}

// Put returns a packet buffer to the free list. p must not be used after
// Put. A nil p is ignored.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	pl.outstanding--
	pl.free = append(pl.free, p)
}

// InUse returns the number of buffers drawn from the pool and not yet
// returned — with pure pool usage, the number of packets alive inside the
// simulation.
func (pl *Pool) InUse() int { return pl.outstanding }

// Reset zeroes the accounting and keeps the free list, so the owner's
// next run draws the buffers its last run returned. Outstanding buffers
// remain valid Go objects but are no longer tracked; they are not
// recycled.
func (pl *Pool) Reset() { pl.outstanding = 0 }
