package host_test

import (
	"errors"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
	"hmcsim/internal/stats"
	"hmcsim/internal/workload"
)

// stepLoop drives n accesses from gen through d's step interface with
// Run's inject-until-stall discipline: each cycle it issues until Issue
// refuses, keeping the refused access for the next cycle, then ticks.
// It returns the cycle of the last completion, the accesses sent and
// their issue-to-completion latencies, and fails past maxCycles.
func stepLoop(t *testing.T, d *host.Driver, gen workload.Generator, n, maxCycles uint64) (cycles, sent uint64, lat stats.Histogram) {
	t.Helper()
	issued := make(map[uint64]uint64) // ID -> issue cycle
	var a workload.Access
	queued := false
	for {
		for sent < n {
			if !queued {
				a, queued = gen.Next(), true
			}
			id, ok := d.Issue(a)
			if !ok {
				break
			}
			issued[id] = cycles
			sent++
			queued = false
		}
		if sent == n && len(issued) == 0 {
			return cycles, sent, lat
		}
		done, err := d.Tick()
		if err != nil {
			t.Fatal(err)
		}
		cycles++
		for _, id := range done {
			lat.Observe(cycles - issued[id])
			delete(issued, id)
		}
		if cycles > maxCycles {
			t.Fatalf("step loop passed %d cycles with %d outstanding (%d/%d sent)", cycles, len(issued), sent, n)
		}
	}
}

// TestStreamOverDriverEqualsRun pins that the driver's step interface is
// the same host as its Run loop: on every Table I configuration a plain
// Issue/Tick loop measures the cycles, requests and latency
// distribution Run does.
func TestStreamOverDriverEqualsRun(t *testing.T) {
	const n = 1 << 14
	for _, cfg := range core.Table1Configs() {
		want, err := eval.RunRandom(cfg, n, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := eval.BuildSimple(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := host.NewDriver(h, host.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := eval.RandomWorkload(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		cycles, sent, lat := stepLoop(t, d, g, n, 2*want.Cycles)
		if cycles != want.Cycles || sent != want.Sent || lat != want.Latency {
			t.Errorf("%v: Issue/Tick %d cycles, %d sent, mean latency %.3f; Run %d, %d, %.3f",
				cfg, cycles, sent, lat.Mean(), want.Cycles, want.Sent, want.Latency.Mean())
		}
	}
}

// TestIssueErrorSurfaces drives a device whose host links have all
// failed: Issue must refuse the request, and the next Tick must return
// the refusal's error rather than clock on with nothing in flight.
func TestIssueErrorSurfaces(t *testing.T) {
	cfg := core.Table1Configs()[0]
	for l := range cfg.NumLinks {
		cfg.Fault.FailedLinks = append(cfg.Fault.FailedLinks, fault.LinkID{Dev: 0, Link: l})
	}
	h, err := eval.BuildSimple(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := host.NewDriver(h, host.Options{Posted: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Issue(workload.Access{Addr: 0x40, Size: 64}); ok {
		t.Fatal("Issue accepted a request with every host link failed")
	}
	if _, err := d.Tick(); !errors.Is(err, host.ErrAllLinksFailed) {
		t.Fatalf("Tick = %v, want %v", err, host.ErrAllLinksFailed)
	}
}
