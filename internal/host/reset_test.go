package host_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/host"
	"hmcsim/internal/packet"
	"hmcsim/internal/workload"
)

// resetCase is one option set of TestResetEqualsNewDriver: build returns
// a newly built, wired engine and the options to drive it with.
type resetCase struct {
	name  string
	build func(t *testing.T) (*core.HMC, host.Options)
}

func resetCases() []resetCase {
	simple := func(opts host.Options) func(t *testing.T) (*core.HMC, host.Options) {
		return func(t *testing.T) (*core.HMC, host.Options) {
			return newPortsHMC(t), opts
		}
	}
	return []resetCase{
		{"default", simple(host.Options{})},
		{"posted", simple(host.Options{Posted: true})},
		{"warmup", simple(host.Options{Warmup: 500})},
		{"gap", simple(host.Options{GapCycles: 3})},
		{"occupancy", simple(host.Options{SampleOccupancy: true})},
		{"locality", func(t *testing.T) (*core.HMC, host.Options) {
			h := newPortsHMC(t)
			return h, host.Options{Select: &workload.Locality{Map: h.Device(0).Map, NumLinks: 4}}
		}},
		{"fabric", func(t *testing.T) (*core.HMC, host.Options) {
			cfg := portsConfig()
			cfg.CapacityGB = 1
			sys, err := engine.Build(fabric.Spec{Topology: fabric.TopoMesh, Rows: 2, Cols: 2, LinkLatency: 4}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys.Engine(), host.Options{Dev: sys.InjectDev(), Route: sys.Route}
		}},
	}
}

func newPortsHMC(t *testing.T) *core.HMC {
	t.Helper()
	cfg := portsConfig()
	h, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < cfg.NumLinks; l++ {
		if err := h.ConnectHost(0, l); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func resetGen(t *testing.T) workload.Generator {
	t.Helper()
	gen, err := workload.NewRandomAccess(11, 1<<30, 64, 50)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

var errDirty = errors.New("dirty")

// suspendAt runs opts on h until cycle at and returns the JSON of the
// checkpoint the suspend delivers. A nil d builds a new driver; any
// other is Reset.
func suspendAt(t *testing.T, h *core.HMC, d *host.Driver, opts host.Options, at uint64) []byte {
	t.Helper()
	var ck []byte
	opts.Interrupt = func() error {
		if h.Clk() >= at {
			return host.ErrSuspended
		}
		return nil
	}
	opts.Checkpoint = func(c *host.Checkpoint) (err error) {
		ck, err = json.Marshal(c)
		return err
	}
	d = driverFor(t, h, d, opts)
	if _, err := d.Run(resetGen(t), 3000); !errors.Is(err, host.ErrSuspended) || ck == nil {
		t.Fatalf("suspend at %d: %v, checkpoint %t", at, err, ck != nil)
	}
	return ck
}

func driverFor(t *testing.T, h *core.HMC, d *host.Driver, opts host.Options) *host.Driver {
	t.Helper()
	if d == nil {
		var err error
		if d, err = host.NewDriver(h, opts); err != nil {
			t.Fatal(err)
		}
		return d
	}
	if err := d.Reset(opts); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkNewTables pins the tag tables of a checkpoint taken one cycle
// into a run, before any response: on every host link tags were issued
// from 0 upward, so the free stack still reads MaxTag, MaxTag-1, ...;
// every other link has no table at all (JSON null, not []).
func checkNewTables(t *testing.T, hostLinks []int, ckJSON []byte) {
	t.Helper()
	var ck host.Checkpoint
	if err := json.Unmarshal(ckJSON, &ck); err != nil {
		t.Fatal(err)
	}
	for l, ft := range ck.Driver.FreeTags {
		if !slices.Contains(hostLinks, l) {
			if ft != nil || ck.Driver.Pending[l] != nil {
				t.Errorf("link %d is no host link but has tag tables", l)
			}
			continue
		}
		for i, tag := range ft {
			if int(tag) != packet.MaxTag-i {
				t.Fatalf("link %d: free tag %d is %d, want %d", l, i, tag, packet.MaxTag-i)
			}
		}
	}
}

// TestResetEqualsNewDriver dirties one engine and driver — a run
// interrupted in flight with tags outstanding, a stalled access queued
// and remote tags marked — then frees and rewires the engine and Resets
// the driver. For every option set the reused pair must match a newly
// built one: the same Result and digests from Run, a byte-equal
// checkpoint at the same cycle, and a Resume of the new pair's
// checkpoint that ends on the uninterrupted run's digests.
func TestResetEqualsNewDriver(t *testing.T) {
	const n = 3000
	for _, c := range resetCases() {
		t.Run(c.name, func(t *testing.T) {
			h, opts := c.build(t)
			ref, err := driverFor(t, h, nil, opts).Run(resetGen(t), n)
			if err != nil {
				t.Fatal(err)
			}
			refState := h.StateDigest()
			at := h.Clk() / 2
			h, opts = c.build(t)
			checkNewTables(t, h.Topology().HostLinks(opts.Dev), suspendAt(t, h, nil, opts, 0))
			h, opts = c.build(t)
			freshCk := suspendAt(t, h, nil, opts, at)

			rh, ropts := c.build(t)
			wiring := rh.Topology()
			var rd *host.Driver
			rewire := func() {
				t.Helper()
				rh.Free()
				if err := rh.UseTopology(wiring); err != nil {
					t.Fatal(err)
				}
			}
			// dirty leaves rd mid-run, then frees and rewires rh.
			dirty := func() {
				t.Helper()
				rewire()
				dopts := host.Options{
					Dev:   ropts.Dev,
					Route: func(a workload.Access) (int, uint64) { return int(a.Addr>>6) % 2, a.Addr },
				}
				dopts.Interrupt = func() error {
					if o, q, r := host.DirtyState(rd); o > 0 && q && r > 0 && rh.Clk() >= 50 {
						return errDirty
					}
					return nil
				}
				rd = driverFor(t, rh, rd, dopts)
				if _, err := rd.Run(resetGen(t), 1<<20); !errors.Is(err, errDirty) {
					t.Fatalf("dirty run: %v", err)
				}
				rewire()
			}

			dirty()
			got, err := driverFor(t, rh, rd, ropts).Run(resetGen(t), n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("Run after Reset:\n got %+v\nwant %+v", got, ref)
			}
			if g, w := eval.ResultDigest(got), eval.ResultDigest(ref); g != w {
				t.Errorf("result digest %#x after Reset, %#x new", g, w)
			}
			if g := rh.StateDigest(); g != refState {
				t.Errorf("state digest %#x after Reset, %#x new", g, refState)
			}

			dirty()
			if ck := suspendAt(t, rh, rd, ropts, at); !bytes.Equal(ck, freshCk) {
				t.Errorf("checkpoint after Reset\n%s\nnew\n%s", ck, freshCk)
			}

			dirty()
			var ck host.Checkpoint
			if err := json.Unmarshal(freshCk, &ck); err != nil {
				t.Fatal(err)
			}
			res, err := driverFor(t, rh, rd, ropts).Resume(resetGen(t), n, &ck)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := eval.ResultDigest(res), eval.ResultDigest(ref); g != w {
				t.Errorf("resumed result digest %#x, uninterrupted %#x", g, w)
			}
			if g := rh.StateDigest(); g != refState {
				t.Errorf("resumed state digest %#x, uninterrupted %#x", g, refState)
			}
		})
	}
}
