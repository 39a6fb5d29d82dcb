package host_test

import (
	"errors"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
	"hmcsim/internal/reg"
	"hmcsim/internal/workload"
)

// These tests hold the driver's drain to what it did when it polled every
// host port with a receive on every cycle: same results, same errors, same
// digests. They use the public API only, so the file runs unchanged against
// that revision, which is where the pinned digests were taken.

func portsConfig() core.Config {
	return core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 16,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 32,
	}
}

// TestDriverTwoRoots runs saturating and gap-paced traffic from cube 0 to both cubes of a
// pair that each have host ports: the responses of cube 1 surface on its
// own ports, which the driver must find although most polls of most ports
// find nothing.
func TestDriverTwoRoots(t *testing.T) {
	pinned := map[uint64][2]uint64{ // GapCycles -> result digest, state digest
		0:  {0xa2eaff17763c3083, 0xa57a587ee9d6fc2d},
		40: {0x5a3c96e3539f2c7f, 0x5dc115fb45fd8414},
	}
	for _, gap := range []uint64{0, 40} {
		cfg := portsConfig()
		cfg.NumDevs = 2
		cfg.LinkLatency = 3
		h, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ConnectDevices(0, 0, 1, 0); err != nil {
			t.Fatal(err)
		}
		for l := 1; l < cfg.NumLinks; l++ {
			if err := h.ConnectHost(0, l); err != nil {
				t.Fatal(err)
			}
			if err := h.ConnectHost(1, l); err != nil {
				t.Fatal(err)
			}
		}
		d, err := host.NewDriver(h, host.Options{
			GapCycles: gap,
			Route:     func(a workload.Access) (int, uint64) { return int(a.Addr>>12) % 2, a.Addr },
		})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewRandomAccess(3, 1<<30, 64, 50)
		if err != nil {
			t.Fatal(err)
		}
		const n = 3000
		res, err := d.Run(gen, n)
		if err != nil {
			t.Fatalf("gap %d: %v", gap, err)
		}
		if res.Sent != n || res.Completed != n || res.Errors != 0 {
			t.Fatalf("gap %d: sent %d completed %d errors %d, want %d/%d/0", gap, res.Sent, res.Completed, res.Errors, n, n)
		}
		if res.RemoteLatency.Count() == 0 || res.RemoteLatency.Count() == n {
			t.Fatalf("gap %d: %d of %d requests left the injection cube", gap, res.RemoteLatency.Count(), n)
		}
		want := pinned[gap]
		if result, state := eval.ResultDigest(res), h.StateDigest(); result != want[0] || state != want[1] {
			t.Errorf("gap %d: result digest %#x, state digest %#x; pinned %#x, %#x", gap, result, state, want[0], want[1])
		}
	}
}

// TestDriverFailedAndDownPorts gives the driver one host port failed from
// reset and takes another down through its LC register in mid-run. The
// failed port is passed over and the run goes on; the downed port ends it
// with ErrLinkDown on the next drain, whether or not a response happens
// to wait there, and with the partial result the old drain left.
func TestDriverFailedAndDownPorts(t *testing.T) {
	const (
		downAt     = 400
		wantResult = uint64(0x0b552392c1733a04)
		wantState  = uint64(0x1017d30be2ef30f9)
	)
	cfg := portsConfig()
	cfg.Fault.FailedLinks = []fault.LinkID{{Dev: 0, Link: 0}}
	h, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < cfg.NumLinks; l++ {
		if err := h.ConnectHost(0, l); err != nil {
			t.Fatal(err)
		}
	}
	d, err := host.NewDriver(h, host.Options{
		GapCycles: 25,
		Interrupt: func() error {
			if h.Clk() == downAt {
				return h.JTAGWrite(0, reg.PhysLC0+2, core.LCLinkDown)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewRandomAccess(3, 1<<30, 64, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(gen, 3000)
	if !errors.Is(err, core.ErrLinkDown) {
		t.Fatalf("run over a downed host port returned %v, want ErrLinkDown", err)
	}
	if h.Clk() <= downAt || res.Sent == 0 || res.Sent == 3000 {
		t.Fatalf("run ended at cycle %d with %d sent: not in mid-run", h.Clk(), res.Sent)
	}
	if !h.LinkFailed(0, 0) || res.Engine.LinkFailures != 0 {
		// The failure predates the measurement, and an error from drain
		// leaves the engine counters unstamped.
		t.Errorf("LinkFailed(0,0) = %v, result carries %d link failures", h.LinkFailed(0, 0), res.Engine.LinkFailures)
	}
	if result, state := eval.ResultDigest(res), h.StateDigest(); result != wantResult || state != wantState {
		t.Errorf("result digest %#x, state digest %#x; pinned %#x, %#x", result, state, wantResult, wantState)
	}
}
