package core_test

import (
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/fault"
	"hmcsim/internal/packet"
	"hmcsim/internal/queue"
)

// eachQueued calls fn for every packet queued anywhere in h.
func eachQueued(h *core.HMC, fn func(*packet.Packet)) {
	for dev := 0; dev < h.Config().NumDevs; dev++ {
		d := h.Device(dev)
		var qs []*queue.Queue
		for l := range d.Links {
			qs = append(qs, d.Links[l].RqstQ, d.Links[l].RspQ)
		}
		for v := range d.Vaults {
			qs = append(qs, d.Vaults[v].RqstQ, d.Vaults[v].RspQ)
		}
		for _, q := range qs {
			for i := 0; i < q.Len(); i++ {
				fn(q.At(i).Packet)
			}
		}
	}
}

// TestFreedBuffersCarryNoState runs a dirty engine to completion — two
// chained cubes, posted writes, transient link faults with a one-retry
// budget, poisoned reads and two failed vaults, so ERROR and poisoned
// responses of every length pass through its buffers — and frees it. A
// freshly built engine then draws those buffers and must still end on
// the digests TestBankArbitrationWithoutCachedBank pins: packet contents,
// not buffer history, are what the digests see.
func TestFreedBuffersCarryNoState(t *testing.T) {
	// With one P and no collection, the list Free releases is the one
	// the next engine's first miss draws. Two collections first empty the
	// recycler of lists earlier tests' engines released.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cfg := core.Config{
		NumDevs: 2, NumLinks: 4, NumVaults: 16, QueueDepth: 8,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 8,
		Fault: fault.Config{
			TransientPPM: 100000, VaultPPM: 100000, MaxRetries: 1, Seed: 11,
			FailedVaults: []fault.VaultID{{Dev: 0, Vault: 2}, {Dev: 1, Vault: 5}},
		},
	}
	r := &occupancyRig{t: t, cfg: cfg, rng: 0x5eed, result: fnv.New64a()}
	r.h = r.build()
	dirty := map[*packet.Packet]bool{}
	r.step = "dirty burst"
	for c := 0; c < 100; c++ {
		for l := 1; l < cfg.NumLinks; l++ {
			for {
				if accepted, _ := r.send(l); !accepted {
					break
				}
			}
		}
		r.clock(8)
		eachQueued(r.h, func(p *packet.Packet) { dirty[p] = true })
		r.drain()
	}
	r.settle()
	st := r.h.Stats()
	if st.Posted == 0 || st.PoisonedReads == 0 || st.ErrorResponses == 0 || st.LinkRetransmits == 0 {
		t.Fatalf("dirty run missed a kind of traffic: %+v", st)
	}
	r.h.Free()

	h, state, result := bankArbitrationRun(t)
	if state != bankArbitrationState || result != bankArbitrationResult {
		t.Errorf("on recycled buffers: state digest %#x, result digest %#x; pinned %#x, %#x",
			state, result, bankArbitrationState, bankArbitrationResult)
	}
	if raceEnabled {
		return // the recycler may have dropped the list
	}
	drawn := 0
	eachQueued(h, func(p *packet.Packet) {
		if dirty[p] {
			drawn++
		}
	})
	if drawn == 0 {
		t.Fatal("the fresh engine holds none of the freed engine's buffers")
	}
	t.Logf("%d of the fresh engine's queued packets sit in buffers the dirty run used", drawn)
}
