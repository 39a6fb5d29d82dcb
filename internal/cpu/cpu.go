// Package cpu implements a simple in-order processor timing model — a
// stand-in for the Goblin-Core64 front end the original HMC-Sim was
// developed to support. The model translates memory-system behaviour into
// application-level metrics: cycles per instruction as a function of
// memory-level parallelism, the dependent-load fraction, and the attached
// memory device.
//
// The core retires at most one instruction per cycle. Memory instructions
// issue requests to an attached Memory backend; the core stalls when the
// outstanding-request window (MLP) is exhausted, when the backend refuses
// an issue, or when a dependent (blocking) load has not yet returned.
// Both memory models of this repository satisfy Memory directly: the HMC
// engine through its host driver (host.Driver) and the banked-DDR
// baseline (ddrsim.DDR). Stream drives either open loop.
package cpu

import (
	"fmt"

	"hmcsim/internal/stats"
	"hmcsim/internal/workload"
)

// Memory is the backend a core issues requests to. Implementations
// advance one memory clock per Tick and report completed request IDs.
type Memory interface {
	// Issue submits an access. ok is false when the backend cannot accept
	// it this cycle (the core must stall and retry after Tick).
	Issue(a workload.Access) (id uint64, ok bool)
	// Tick advances the memory clock one cycle and returns the IDs of
	// requests that completed; the slice is valid until the next Tick.
	// Posted stores may complete silently, and a backend may report IDs
	// its caller does not track (stores, say): the core ignores those.
	Tick() ([]uint64, error)
	// OutstandingLimit is the backend's own bound on in-flight requests
	// (tag space); the effective window is min(MLP, OutstandingLimit).
	OutstandingLimit() int
}

// Config describes the core.
type Config struct {
	// MLP is the maximum number of in-flight memory requests the core
	// sustains (its miss-status holding registers).
	MLP int
	// MemPercent is the share of instructions that access memory.
	MemPercent int
	// LoadPercent is the share of memory instructions that are loads (the
	// rest are posted stores).
	LoadPercent int
	// BlockingPercent is the share of loads whose result the very next
	// instruction consumes: the core stalls until such a load returns
	// (100 models a pointer chase, 0 a fully decoupled stream).
	BlockingPercent int
	// Seed drives the instruction mix and addresses.
	Seed uint32
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MLP < 1 {
		return fmt.Errorf("cpu: MLP %d < 1", c.MLP)
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"MemPercent", c.MemPercent},
		{"LoadPercent", c.LoadPercent},
		{"BlockingPercent", c.BlockingPercent},
	} {
		if p.v < 0 || p.v > 100 {
			return fmt.Errorf("cpu: %s %d out of [0,100]", p.name, p.v)
		}
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	Instructions uint64
	MemOps       uint64
	Loads        uint64
	Stores       uint64
	Cycles       uint64
	// StallMLP counts cycles lost waiting for a free window slot or a
	// refused issue; StallDepend counts cycles lost waiting on blocking
	// loads.
	StallMLP    uint64
	StallDepend uint64
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// Core is one in-order processor attached to a memory backend.
type Core struct {
	cfg Config
	mem Memory
	gen workload.Generator
	rng *workload.GlibcRand
}

// New builds a core. gen supplies the addresses of memory instructions
// (its Write flags are ignored; the LoadPercent mix decides).
func New(cfg Config, mem Memory, gen workload.Generator) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil || gen == nil {
		return nil, fmt.Errorf("cpu: nil memory or generator")
	}
	return &Core{cfg: cfg, mem: mem, gen: gen, rng: workload.NewGlibcRand(cfg.Seed)}, nil
}

// Run executes n instructions and returns the timing summary.
func (c *Core) Run(n uint64) (Result, error) {
	var res Result
	window := c.cfg.MLP
	if lim := c.mem.OutstandingLimit(); lim < window {
		window = lim
	}
	inFlight := make(map[uint64]bool)
	var blockOn uint64
	blocked := false
	// A memory instruction holds the head, its access and load/store
	// draw with it, until it issues: a stall delays it, never redraws it.
	var a workload.Access
	isLoad, headMem := false, false

	// Every iteration is one cycle: at most one instruction retires, then
	// the memory ticks.
	for res.Instructions < n || len(inFlight) > 0 {
		switch {
		case res.Instructions == n:
			// Drain outstanding loads so latency is fully accounted.
			if res.Cycles > 1000*n+100000 {
				return res, fmt.Errorf("cpu: drain did not converge with %d loads in flight", len(inFlight))
			}
		case blocked:
			// A blocking load in flight freezes the pipeline.
			res.StallDepend++
		case !headMem && int(c.rng.Next()%100) >= c.cfg.MemPercent:
			res.Instructions++
		default:
			if !headMem {
				a = c.gen.Next()
				isLoad = int(c.rng.Next()%100) < c.cfg.LoadPercent
				a.Write = !isLoad
				headMem = true
			}
			// The memory instruction needs a window slot and an accepted
			// issue.
			id, ok := uint64(0), len(inFlight) < window
			if ok {
				id, ok = c.mem.Issue(a)
			}
			if !ok {
				res.StallMLP++
				break
			}
			headMem = false
			res.Instructions++
			res.MemOps++
			if !isLoad {
				// Stores are not waited on; a backend may post them.
				res.Stores++
				break
			}
			res.Loads++
			inFlight[id] = true
			if int(c.rng.Next()%100) < c.cfg.BlockingPercent {
				blocked, blockOn = true, id
			}
		}
		done, err := c.mem.Tick()
		if err != nil {
			return res, err
		}
		res.Cycles++
		for _, id := range done {
			delete(inFlight, id)
			if blocked && id == blockOn {
				blocked = false
			}
		}
	}
	return res, nil
}

// StreamResult summarizes a Stream run.
type StreamResult struct {
	// Cycles is the memory clock at the last completion.
	Cycles uint64
	// Sent is the number of accesses issued.
	Sent uint64
	// Latency is the distribution of issue-to-completion cycles.
	Latency stats.Histogram
}

// Throughput returns requests per cycle.
func (r StreamResult) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Sent) / float64(r.Cycles)
}

// Stream drives n accesses from gen through mem open loop, with the host
// driver's inject-until-stall discipline: each cycle it issues until mem
// refuses, keeping the refused access for the next cycle, then ticks.
// It runs until every access has completed, so mem must report each one:
// a memory that posts stores never does.
func Stream(mem Memory, gen workload.Generator, n uint64) (StreamResult, error) {
	var res StreamResult
	issued := make(map[uint64]uint64) // ID -> issue cycle
	maxCycles := 1000*n + 100000
	var a workload.Access
	queued := false
	for {
		for res.Sent < n {
			if !queued {
				a, queued = gen.Next(), true
			}
			id, ok := mem.Issue(a)
			if !ok {
				break
			}
			issued[id] = res.Cycles
			res.Sent++
			queued = false
		}
		if res.Sent == n && len(issued) == 0 {
			return res, nil
		}
		done, err := mem.Tick()
		if err != nil {
			return res, err
		}
		res.Cycles++
		for _, id := range done {
			res.Latency.Observe(res.Cycles - issued[id])
			delete(issued, id)
		}
		if res.Cycles > maxCycles {
			return res, fmt.Errorf("cpu: stream exceeded %d cycles with %d outstanding (%d/%d sent)",
				maxCycles, len(issued), res.Sent, n)
		}
	}
}
