package core_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash"
	"hash/fnv"
	"testing"

	"hmcsim/internal/check"
	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/fault"
	"hmcsim/internal/packet"
	"hmcsim/internal/queue"
	"hmcsim/internal/reg"
	"hmcsim/internal/topo"
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
				fn(q.At(i))
			}
		}
	}
}

// freeAndRewire frees h and wires it back the way it was built.
func freeAndRewire(t *testing.T, h *core.HMC) {
	t.Helper()
	wiring := h.Topology()
	h.Free()
	if err := h.UseTopology(wiring); err != nil {
		t.Fatal(err)
	}
}

// hostPort is one host link of a root cube.
type hostPort struct{ dev, link int }

func hostPorts(h *core.HMC) []hostPort {
	var ports []hostPort
	top := h.Topology()
	for _, root := range top.Roots() {
		for _, l := range top.HostLinks(root) {
			ports = append(ports, hostPort{root, l})
		}
	}
	return ports
}

// traffic drives every host port of an engine of any shape: each cycle it
// receives at most drain responses per port, then tops every surviving
// port up with a deterministic mix of reads, writes, atomics and posted
// writes to every cube until it stalls, and clocks once. Draining slower
// than it sends backs responses up into the vault queues. Every response
// folds into a result digest.
type traffic struct {
	rng    uint64
	tag    int
	drain  int
	result hash.Hash64
}

func newTraffic(seed uint64, drain int) *traffic {
	return &traffic{rng: seed, drain: drain, result: fnv.New64a()}
}

func (s *traffic) next(n uint64) uint64 {
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	return (s.rng >> 33) % n
}

func (s *traffic) fold(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	s.result.Write(buf[:])
}

// recv takes up to n responses from one port.
func (s *traffic) recv(t *testing.T, h *core.HMC, p hostPort, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rsp, err := h.RecvPacket(p.dev, p.link)
		if errors.Is(err, core.ErrStall) || errors.Is(err, core.ErrLinkFailed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		s.fold(uint64(p.dev)<<40 | uint64(p.link)<<32 | uint64(rsp.Tag)<<8 | uint64(rsp.Cmd))
		s.fold(uint64(rsp.CUB)<<24 | uint64(rsp.SLID)<<16 | uint64(rsp.Seq)<<8 | uint64(rsp.ErrStat))
		for _, w := range rsp.Data {
			s.fold(w)
		}
	}
}

func (s *traffic) cycle(t *testing.T, h *core.HMC) {
	t.Helper()
	cfg := h.Config()
	ports := hostPorts(h)
	for _, p := range ports {
		s.recv(t, h, p, s.drain)
	}
	var data [8]uint64
	for _, p := range ports {
		if h.LinkFailed(p.dev, p.link) {
			continue
		}
		for {
			cmd := saturatorCmds[s.next(uint64(len(saturatorCmds)))]
			d := data[:cmd.DataBytes()/8]
			for i := range d {
				d[i] = s.next(1 << 40)
			}
			err := h.SendRequest(p.dev, p.link, packet.Request{
				CUB:  uint8(s.next(uint64(cfg.NumDevs))),
				Addr: s.next(uint64(cfg.CapacityGB)<<30) &^ 15,
				Tag:  uint16(s.tag & 0x1ff), Cmd: cmd, Data: d,
			})
			if errors.Is(err, core.ErrStall) || errors.Is(err, core.ErrLinkFailed) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			s.tag++
		}
	}
	if err := h.Clock(); err != nil {
		t.Fatal(err)
	}
}

// settle drains every port until nothing is in flight.
func (s *traffic) settle(t *testing.T, h *core.HMC) {
	t.Helper()
	for c := 0; !h.Quiescent(); c++ {
		for _, p := range hostPorts(h) {
			s.recv(t, h, p, 1<<20)
		}
		if err := h.Clock(); err != nil {
			t.Fatal(err)
		}
		if c > 20000 {
			t.Fatal("engine does not drain")
		}
	}
}

// freeCase is one engine shape TestFreeEqualsNew covers. build returns a
// freshly built, wired engine; failAt is the cycle at which its timed
// link failure applies.
type freeCase struct {
	name   string
	build  func(t *testing.T) *core.HMC
	failAt fault.TimedLinkFailure
}

// freeCases lists the shapes: the four Table I configurations, a 2-cube
// chain, a 2x2 mesh with its dimension-order router, functional storage,
// the ignored worker count set to one and four, and statically failed
// links and vaults. Every
// case runs under transient link and vault faults and one timed link
// failure.
func freeCases() []freeCase {
	withFaults := func(cfg core.Config, failAt fault.TimedLinkFailure) core.Config {
		cfg.Fault.TransientPPM = 60000
		cfg.Fault.VaultPPM = 50000
		cfg.Fault.MaxRetries = 6
		cfg.Fault.Seed = 0xf7ee
		cfg.Fault.FailAt = []fault.TimedLinkFailure{failAt}
		return cfg
	}
	simple := func(cfg core.Config, failAt fault.TimedLinkFailure) func(t *testing.T) *core.HMC {
		return func(t *testing.T) *core.HMC {
			h, err := eval.BuildSimple(withFaults(cfg, failAt))
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
	}
	chain := func(cfg core.Config, failAt fault.TimedLinkFailure) func(t *testing.T) *core.HMC {
		return func(t *testing.T) *core.HMC {
			ch, err := topo.Chain(cfg.NumDevs, cfg.NumLinks)
			if err != nil {
				t.Fatal(err)
			}
			h, err := core.New(withFaults(cfg, failAt), core.WithTopology(ch))
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
	}
	chainCfg := func(edit func(*core.Config)) core.Config {
		cfg := core.Config{
			NumDevs: 2, NumLinks: 4, NumVaults: 16, QueueDepth: 8,
			NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 8,
			RefreshInterval: 64, RefreshDuration: 4,
		}
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	hostLink := fault.TimedLinkFailure{Cycle: 40, Dev: 0, Link: 1}

	var cases []freeCase
	for _, cfg := range core.Table1Configs() {
		cases = append(cases, freeCase{"table1/" + cfg.String(), simple(cfg, hostLink), hostLink})
	}
	failedVaults := core.Table1Configs()[0]
	failedVaults.Fault.FailedVaults = []fault.VaultID{{Dev: 0, Vault: 2}, {Dev: 0, Vault: 9}}
	cases = append(cases,
		freeCase{"chain", chain(chainCfg(nil), hostLink), hostLink},
		freeCase{"workers=1", chain(chainCfg(func(c *core.Config) { c.Workers = 1 }), hostLink), hostLink},
		freeCase{"workers=4", chain(chainCfg(func(c *core.Config) { c.Workers = 4 }), hostLink), hostLink},
		freeCase{"storedata", chain(chainCfg(func(c *core.Config) { c.StoreData = true }), hostLink), hostLink},
		freeCase{"failedlinks", chain(chainCfg(func(c *core.Config) {
			c.Fault.FailedLinks = []fault.LinkID{{Dev: 0, Link: 3}}
		}), hostLink), hostLink},
		freeCase{"failedvaults", simple(failedVaults, hostLink), hostLink},
	)
	// The mesh's timed failure cuts the cable between cubes 0 and 1, so
	// the rest of the run routes around it.
	cable := fault.TimedLinkFailure{Cycle: 40, Dev: 0, Link: 0}
	cases = append(cases, freeCase{"mesh", func(t *testing.T) *core.HMC {
		spec := fabric.Spec{Topology: fabric.TopoMesh, Rows: 2, Cols: 2, LinkLatency: 4}
		sys, err := engine.Build(spec, withFaults(core.Table1Configs()[0], cable))
		if err != nil {
			t.Fatal(err)
		}
		return sys.Engine()
	}, cable})
	return cases
}

// checkpointJSON is h's checkpoint in its wire form.
func checkpointJSON(t *testing.T, h *core.HMC) []byte {
	t.Helper()
	b, err := json.Marshal(h.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFreeEqualsNew is the proof that lets the job service reuse engines:
// for every case, an engine stopped mid-flight — packets queued in every
// layer, a retry buffer held, its timed link failure applied, a register
// written — then freed and rewired is indistinguishable from a freshly
// built one. Its checkpoint is byte-equal to the fresh engine's, it
// passes the structural audit, and a second run ends on the fresh
// engine's state and result digests and checkpoint.
func TestFreeEqualsNew(t *testing.T) {
	for _, tc := range freeCases() {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.build(t)
			dirty := newTraffic(0xd1e7, 1)
			if err := h.JTAGWrite(0, reg.PhysGRLL, 0x5a5a); err != nil {
				t.Fatal(err)
			}
			for c := 0; ; c++ {
				dirty.cycle(t, h)
				o := h.Occupancy()
				_, retries := h.OccupancyIndex()
				if h.LinkFailed(tc.failAt.Dev, tc.failAt.Link) && retries > 0 &&
					o.XbarRqst > 0 && o.XbarRsp > 0 && o.VaultRqst > 0 && o.VaultRsp > 0 {
					break
				}
				if c > 2000 {
					t.Fatalf("after %d cycles: census %+v, %d retry buffers held, link %d:%d failed %v",
						c, o, retries, tc.failAt.Dev, tc.failAt.Link, h.LinkFailed(tc.failAt.Dev, tc.failAt.Link))
				}
			}
			if st := h.Stats(); st.PoisonedReads == 0 || st.LinkRetransmits == 0 {
				t.Fatalf("dirty run drew no vault or link fault: %+v", st)
			}
			freeAndRewire(t, h)
			if err := check.Verify(h); err != nil {
				t.Fatalf("freed engine: %v", err)
			}
			fresh := tc.build(t)
			if got, want := checkpointJSON(t, h), checkpointJSON(t, fresh); !bytes.Equal(got, want) {
				t.Fatalf("freed engine's checkpoint differs from a fresh engine's:\nfreed %s\nfresh %s", got, want)
			}

			var digests [2][2]uint64
			for i, e := range []*core.HMC{h, fresh} {
				s := newTraffic(0x5eed, 2)
				for c := 0; c < 150; c++ {
					s.cycle(t, e)
					if err := check.Verify(e); err != nil {
						t.Fatalf("cycle %d: %v", c, err)
					}
				}
				s.settle(t, e)
				digests[i] = [2]uint64{e.StateDigest(), s.result.Sum64()}
			}
			if digests[0] != digests[1] {
				t.Errorf("freed engine ends on state/result digests %#x, a fresh engine on %#x", digests[0], digests[1])
			}
			if got, want := checkpointJSON(t, h), checkpointJSON(t, fresh); !bytes.Equal(got, want) {
				t.Errorf("after the second run the freed engine's checkpoint differs from a fresh engine's")
			}
		})
	}
}

// TestFreedBuffersCarryNoState dirties an engine — reads of every length,
// writes, atomics and posted writes, with a register written and one of
// its links failed — stops it mid-flight and frees it. The same engine,
// rewired, then runs the scenario TestBankArbitrationWithoutCachedBank
// pins on the buffers the dirty run returned, and must still end on its
// digests: packet contents, not buffer history, are what the digests
// see.
func TestFreedBuffersCarryNoState(t *testing.T) {
	h := newHosted(t, bankArbitrationConfig)
	if err := h.JTAGWrite(0, reg.PhysGRLL, 0x5a5a); err != nil {
		t.Fatal(err)
	}
	dirty := map[*packet.Packet]bool{}
	s := newTraffic(0xd1e7, 1)
	for c := 0; c < 200; c++ {
		if c == 100 {
			if err := h.FailLink(0, 2); err != nil {
				t.Fatal(err)
			}
		}
		s.cycle(t, h)
		eachQueued(h, func(p *packet.Packet) { dirty[p] = true })
	}
	if st := h.Stats(); st.Posted == 0 || st.Atomics == 0 || st.Reroutes == 0 || h.Occupancy().VaultRsp == 0 {
		t.Fatalf("dirty run missed a kind of traffic: %+v", st)
	}
	freeAndRewire(t, h)

	_, state, result := bankArbitrationRun(t, h)
	if state != bankArbitrationState || result != bankArbitrationResult {
		t.Errorf("on a freed engine: state digest %#x, result digest %#x; pinned %#x, %#x",
			state, result, bankArbitrationState, bankArbitrationResult)
	}
	drawn := 0
	eachQueued(h, func(p *packet.Packet) {
		if dirty[p] {
			drawn++
		}
	})
	if drawn == 0 {
		t.Fatal("the freed engine's second run holds none of the buffers its first run used")
	}
	t.Logf("%d of the second run's queued packets sit in buffers the dirty run used", drawn)
}
