// Package ddrsim implements a traditional banked DRAM (DDR3-style) memory
// simulator: the two-dimensional row/column memory model with a discrete
// memory controller that HMC-Sim's three-dimensional model is contrasted
// against in the paper's introduction and related work.
//
// The model is deliberately conventional: a small number of independent
// channels, each with a shared data bus, a per-channel command queue, and
// banks with open-page row buffers governed by tRCD/tCAS/tRP timing. It
// exists as the baseline comparator for the HMC-vs-DDR benchmark
// experiments.
package ddrsim

import (
	"errors"
	"fmt"
	"math/bits"

	"hmcsim/internal/workload"
)

// Config describes the banked DRAM geometry and timing. Timing values are
// in memory-controller clock cycles.
type Config struct {
	// Channels is the number of independent channels.
	Channels int
	// Banks is the bank count per channel.
	Banks int
	// RowBytes is the row-buffer size in bytes (a power of two).
	RowBytes uint64
	// CapacityGB is the total capacity in gigabytes.
	CapacityGB int
	// QueueDepth is the per-channel command queue depth.
	QueueDepth int

	// TRCD is the activate-to-column delay.
	TRCD int
	// TCAS is the column access latency.
	TCAS int
	// TRP is the precharge latency.
	TRP int
	// TBurst is the data-bus occupancy per access.
	TBurst int

	// FRFCFS selects first-ready first-come-first-served scheduling (row
	// hits bypass older row misses); false selects strict FCFS.
	FRFCFS bool
}

// DDR3_1600 returns a conventional single-rank DDR3-1600-like
// configuration: 2 channels, 8 banks per channel, 8KB rows, 11-11-11
// timing and 4-cycle bursts.
func DDR3_1600(capacityGB int) Config {
	return Config{
		Channels: 2, Banks: 8, RowBytes: 8192, CapacityGB: capacityGB,
		QueueDepth: 32, TRCD: 11, TCAS: 11, TRP: 11, TBurst: 4,
		FRFCFS: true,
	}
}

// Validate checks cfg.
func (c Config) Validate() error {
	if c.Channels < 1 || bits.OnesCount(uint(c.Channels)) != 1 {
		return fmt.Errorf("ddrsim: channel count %d not a positive power of two", c.Channels)
	}
	if c.Banks < 1 || bits.OnesCount(uint(c.Banks)) != 1 {
		return fmt.Errorf("ddrsim: bank count %d not a positive power of two", c.Banks)
	}
	if c.RowBytes == 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("ddrsim: row size %d not a positive power of two", c.RowBytes)
	}
	if c.CapacityGB < 1 {
		return fmt.Errorf("ddrsim: capacity %d GB < 1", c.CapacityGB)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("ddrsim: queue depth %d < 1", c.QueueDepth)
	}
	if c.TRCD < 1 || c.TCAS < 1 || c.TRP < 1 || c.TBurst < 1 {
		return fmt.Errorf("ddrsim: timing parameters must be >= 1")
	}
	return nil
}

// Request is one memory access presented to the controller.
type Request struct {
	Addr  uint64
	Write bool
	Tag   uint64
}

// Completion reports a finished request.
type Completion struct {
	Tag    uint64
	Finish uint64 // cycle at which the data burst completed
}

// ErrFull is returned by Enqueue when the target channel queue is full.
var ErrFull = errors.New("ddrsim: channel queue full")

const noRow = ^uint64(0)

type bank struct {
	openRow uint64
	readyAt uint64 // cycle at which the bank can accept a new command
}

type pending struct {
	req     Request
	channel int
	bank    int
	row     uint64
	// busyUntil is nonzero while the access is in service.
	busyUntil uint64
	inService bool
}

// Stats counts controller events.
type Stats struct {
	RowHits    uint64
	RowMisses  uint64
	RowOpens   uint64 // activations on idle (closed) banks
	Reads      uint64
	Writes     uint64
	EnqStalls  uint64
	BusWaits   uint64 // cycles requests spent waiting on the data bus
	BankWaits  uint64 // cycles requests spent waiting on a busy bank
	QueueWaits uint64 // cycles spent queued behind other requests
}

// DDR is one banked-DRAM memory subsystem.
type DDR struct {
	cfg   Config
	clk   uint64
	banks [][]bank // [channel][bank]
	queue [][]pending
	// busFreeAt is the cycle at which each channel's data bus frees.
	busFreeAt []uint64
	stats     Stats

	// nextTag numbers the requests Issue enqueues; ids is the completion
	// list Tick returns, reused every cycle.
	nextTag uint64
	ids     []uint64

	chanShift, chanBits uint
	chanMask, bankMask  uint64
}

// New builds a DDR subsystem.
func New(cfg Config) (*DDR, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DDR{cfg: cfg}
	d.banks = make([][]bank, cfg.Channels)
	d.queue = make([][]pending, cfg.Channels)
	d.busFreeAt = make([]uint64, cfg.Channels)
	for c := range d.banks {
		d.banks[c] = make([]bank, cfg.Banks)
		for b := range d.banks[c] {
			d.banks[c][b].openRow = noRow
		}
	}
	// Channels interleave at 64-byte block granularity; within a channel
	// the conventional open-page layout applies: [row][bank][column].
	d.chanShift = 6
	d.chanMask = uint64(cfg.Channels - 1)
	d.chanBits = uint(bits.TrailingZeros(uint(cfg.Channels)))
	d.bankMask = uint64(cfg.Banks - 1)
	return d, nil
}

// Clk returns the controller clock.
func (d *DDR) Clk() uint64 { return d.clk }

// Stats returns a snapshot of the controller counters.
func (d *DDR) Stats() Stats { return d.stats }

// QueueLen returns the number of queued plus in-service requests on a
// channel.
func (d *DDR) QueueLen(channel int) int { return len(d.queue[channel]) }

func (d *DDR) decode(addr uint64) (channel, bankIdx int, row uint64) {
	channel = int(addr >> d.chanShift & d.chanMask)
	// Squeeze the channel bits out so the per-channel address space is
	// contiguous, then split it as [row][bank][column].
	local := addr>>(d.chanShift+d.chanBits)<<d.chanShift | addr&(1<<d.chanShift-1)
	rowShift := uint(bits.TrailingZeros64(d.cfg.RowBytes))
	bankIdx = int(local >> rowShift & d.bankMask)
	row = local >> rowShift >> uint(bits.TrailingZeros(uint(d.cfg.Banks)))
	return channel, bankIdx, row
}

// Enqueue presents a request to the controller. It returns ErrFull when
// the target channel's command queue has no free entry.
func (d *DDR) Enqueue(r Request) error {
	ch, b, row := d.decode(r.Addr)
	if len(d.queue[ch]) >= d.cfg.QueueDepth {
		d.stats.EnqStalls++
		return ErrFull
	}
	d.queue[ch] = append(d.queue[ch], pending{req: r, channel: ch, bank: b, row: row})
	return nil
}

// Issue enqueues a — the memory interface of the processor model
// (cpu.Memory) — and returns its tag, numbered in issue order. ok is
// false when the channel queue is full.
func (d *DDR) Issue(a workload.Access) (id uint64, ok bool) {
	if d.Enqueue(Request{Addr: a.Addr, Write: a.Write, Tag: d.nextTag}) != nil {
		return 0, false
	}
	d.nextTag++
	return d.nextTag - 1, true
}

// Tick advances the controller one cycle and returns the tags of every
// request that completed, stores included. The slice is reused by the
// next Tick.
func (d *DDR) Tick() ([]uint64, error) {
	d.ids = d.ids[:0]
	for _, c := range d.Clock() {
		d.ids = append(d.ids, c.Tag)
	}
	return d.ids, nil
}

// OutstandingLimit reports no tag-space bound: the channel queues bound
// the requests in flight through Issue's refusals.
func (d *DDR) OutstandingLimit() int { return 1 << 30 }

// Clock advances the controller by one cycle and returns the requests
// whose data bursts completed during this cycle.
func (d *DDR) Clock() []Completion {
	d.clk++
	var done []Completion

	for ch := range d.queue {
		q := d.queue[ch]
		// Retire finished accesses.
		out := q[:0]
		for _, p := range q {
			if p.inService && p.busyUntil <= d.clk {
				done = append(done, Completion{Tag: p.req.Tag, Finish: d.clk})
				if p.req.Write {
					d.stats.Writes++
				} else {
					d.stats.Reads++
				}
				continue
			}
			out = append(out, p)
		}
		d.queue[ch] = out

		// Issue new commands. One scheduling decision per bank per cycle;
		// the data bus serializes bursts.
		d.schedule(ch)
	}
	return done
}

// schedule starts service for eligible queued requests on a channel.
func (d *DDR) schedule(ch int) {
	q := d.queue[ch]
	// Banks that accepted a command this cycle; in-service occupancy is
	// governed by each bank's readyAt.
	var committed uint64

	tryStart := func(p *pending) bool {
		bk := &d.banks[ch][p.bank]
		if committed&(1<<uint(p.bank)) != 0 {
			d.stats.BankWaits++
			return false
		}
		if bk.readyAt > d.clk {
			d.stats.BankWaits++
			return false
		}
		lat := 0
		switch {
		case bk.openRow == p.row:
			lat = d.cfg.TCAS
			d.stats.RowHits++
		case bk.openRow == noRow:
			lat = d.cfg.TRCD + d.cfg.TCAS
			d.stats.RowOpens++
		default:
			lat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
			d.stats.RowMisses++
		}
		// The data burst needs the shared bus after the column access.
		burstStart := d.clk + uint64(lat)
		if d.busFreeAt[ch] > burstStart {
			burstStart = d.busFreeAt[ch]
			d.stats.BusWaits += d.busFreeAt[ch] - (d.clk + uint64(lat))
		}
		finish := burstStart + uint64(d.cfg.TBurst)
		d.busFreeAt[ch] = finish
		bk.openRow = p.row
		// The bank accepts its next column command one burst interval
		// after the activation path completes (tCCD), so consecutive row
		// hits pipeline at the burst rate while row cycles still
		// serialize on the precharge/activate path.
		bk.readyAt = d.clk + uint64(lat-d.cfg.TCAS+d.cfg.TBurst)
		p.inService = true
		p.busyUntil = finish
		committed |= 1 << uint(p.bank)
		return true
	}

	if d.cfg.FRFCFS {
		// First pass: row hits in FIFO order.
		for i := range q {
			if q[i].inService {
				continue
			}
			bk := &d.banks[ch][q[i].bank]
			if bk.openRow == q[i].row {
				tryStart(&q[i])
			}
		}
	}
	// FIFO pass for everything else.
	for i := range q {
		if q[i].inService {
			continue
		}
		if !tryStart(&q[i]) {
			d.stats.QueueWaits++
		}
	}
}
