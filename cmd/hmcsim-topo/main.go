// Command hmcsim-topo builds, validates and prints the device topologies
// of the paper's Figure 1 — simple, ring, chain, mesh and 2-D torus — and
// optionally drives smoke traffic through every device to demonstrate
// routed request/response round trips.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"hmcsim/internal/core"
	"hmcsim/internal/fabric"
	"hmcsim/internal/host"
	"hmcsim/internal/topo"
	"hmcsim/internal/workload"
)

func main() {
	kind := flag.String("topo", "simple", "topology: simple, ring, chain, mesh or torus")
	devs := flag.Int("devs", 4, "device count (ring, chain)")
	rows := flag.Int("rows", 3, "grid rows (mesh, torus)")
	cols := flag.Int("cols", 3, "grid columns (mesh, torus)")
	links := flag.Int("links", 4, "links per device (4 or 8; torus requires 8)")
	smoke := flag.Uint64("smoke", 0, "drive this many requests spread across all devices")
	dot := flag.String("dot", "", "write a Graphviz rendering of the topology to this file")
	jsonOut := flag.Bool("json", false, "emit the topology as a fabric system-graph spec (JSON) and exit")
	flag.Parse()

	var (
		t   *topo.Topology
		err error
	)
	switch *kind {
	case "simple":
		t, err = topo.Simple(*links)
	case "ring":
		t, err = topo.Ring(*devs, *links)
	case "chain":
		t, err = topo.Chain(*devs, *links)
	case "mesh":
		t, err = topo.Mesh(*rows, *cols, *links)
	case "torus":
		t, err = topo.Torus(*rows, *cols, *links)
	default:
		err = fmt.Errorf("unknown topology %q", *kind)
	}
	if err != nil {
		fatal(err)
	}
	if err := t.Validate(); err != nil {
		fatal(err)
	}

	if *jsonOut {
		// The captured spec round-trips: feeding it back through the
		// fabric layer (hmcsim-fabric -spec, or the "fabric" block of a
		// job submission) reproduces this wiring exactly.
		spec := fabric.FromTopology(t)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("topology: %s  (%d devices, %d links each, host ID %d)\n\n",
		*kind, t.NumDevs(), t.NumLinks(), t.HostID())
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tlink\tpeer")
	for d := 0; d < t.NumDevs(); d++ {
		for l := 0; l < t.NumLinks(); l++ {
			p := t.Peer(d, l)
			switch {
			case p.Cube == topo.Unconnected:
				fmt.Fprintf(tw, "%d\t%d\t(unconnected)\n", d, l)
			case p.Cube == t.HostID():
				fmt.Fprintf(tw, "%d\t%d\thost\n", d, l)
			default:
				fmt.Fprintf(tw, "%d\t%d\tdevice %d link %d\n", d, l, p.Cube, p.Link)
			}
		}
	}
	tw.Flush()

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fatal(err)
		}
		if err := t.WriteDOT(f, *kind); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *dot)
	}

	fmt.Printf("\nroot devices: %v\n", t.Roots())
	if un := t.Unreachable(); len(un) > 0 {
		fmt.Printf("unreachable devices: %v (traffic to them elicits error responses)\n", un)
	}
	r := t.Routes()
	fmt.Println("host-hop distance per device:")
	for d := 0; d < t.NumDevs(); d++ {
		fmt.Printf("  device %d: %d hops\n", d, r.HostHops(d))
	}

	if *smoke == 0 {
		return
	}
	cfg := core.Config{
		NumDevs: t.NumDevs(), NumLinks: t.NumLinks(), NumVaults: 4 * t.NumLinks(),
		QueueDepth: 64, NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 128,
	}
	h, err := core.New(cfg, core.WithTopology(t))
	if err != nil {
		fatal(err)
	}
	roots := t.Roots()
	drv, err := host.NewDriver(h, host.Options{
		Dev: roots[0],
		Route: func(a workload.Access) (int, uint64) {
			return int(a.Addr>>12) % t.NumDevs(), a.Addr
		},
	})
	if err != nil {
		fatal(err)
	}
	gen, err := workload.NewRandomAccess(1, 2<<30, 64, 50)
	if err != nil {
		fatal(err)
	}
	res, err := drv.Run(gen, *smoke)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nsmoke run: %d requests spread over %d devices in %d cycles\n",
		res.Sent, t.NumDevs(), res.Cycles)
	fmt.Printf("responses: %d  error responses: %d  route hops: %d\n",
		res.Completed, res.Errors, res.Engine.RouteHops)
	fmt.Printf("latency: %s\n", res.Latency.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmcsim-topo:", err)
	os.Exit(1)
}
