// Command hmcsim-fabric runs a multi-cube fabric simulation offline: N
// identical HMC cubes wired into a named topology (or a custom system
// graph loaded from a JSON spec, e.g. one emitted by hmcsim-topo -json),
// driven through the block interleave from the injection cube's host
// links. It prints the per-cube traffic breakdown, the inter-cube link
// census and the fabric digest — the same numbers a fabric job returns
// through the /v1 API.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/host"
	"hmcsim/internal/workload"
)

// output is the -json rendering: the resolved spec plus everything the
// run produced.
type output struct {
	Spec         fabric.Spec      `json:"spec"`
	Cycles       uint64           `json:"cycles"`
	Sent         uint64           `json:"sent"`
	Completed    uint64           `json:"completed"`
	Errors       uint64           `json:"errors"`
	LatencyMean  float64          `json:"latency_mean"`
	RemoteMean   float64          `json:"remote_latency_mean"`
	Hops         uint64           `json:"hops"`
	Intercube    uint64           `json:"intercube_packets"`
	PerCube      []core.CubeStats `json:"per_cube"`
	Links        []engine.LinkUse `json:"links"`
	FabricDigest string           `json:"fabric_digest"`
	ResultDigest string           `json:"result_digest"`
}

func main() {
	topology := flag.String("topology", "mesh", "system graph: mesh, torus, ring or chain")
	rows := flag.Int("rows", 2, "grid rows (mesh, torus)")
	cols := flag.Int("cols", 2, "grid columns (mesh, torus)")
	cubes := flag.Int("cubes", 4, "cube count (ring, chain)")
	latency := flag.Int("latency", 4, "per-hop inter-cube link latency in cycles")
	interleave := flag.Uint64("interleave", 0, "interleave block bytes (power of two >= 16; 0 = 64)")
	inject := flag.Int("inject", 0, "cube whose host links carry the injected traffic")
	specPath := flag.String("spec", "", "load the system graph from this JSON spec instead of the shape flags")
	requests := flag.Uint64("requests", 1<<16, "requests to inject")
	seed := flag.Uint("seed", 1, "workload seed")
	writePct := flag.Int("write", 30, "write percentage of the random workload")
	jsonOut := flag.Bool("json", false, "emit the run as JSON instead of tables")
	flag.Parse()

	var spec fabric.Spec
	if *specPath != "" {
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			fatal(fmt.Errorf("%s: %w", *specPath, err))
		}
	} else {
		spec = fabric.Spec{
			Topology: *topology, Rows: *rows, Cols: *cols, Cubes: *cubes,
		}
		if spec.Kind() == fabric.TopoMesh || spec.Kind() == fabric.TopoTorus {
			spec.Cubes = 0 // derived from the grid shape
		}
	}
	// The tuning flags refine whichever spec was chosen.
	if *latency >= 0 && *specPath == "" {
		spec.LinkLatency = *latency
	}
	if *interleave != 0 {
		spec.InterleaveBytes = *interleave
	}
	if *inject != 0 {
		spec.InjectCube = *inject
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	cube := core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 64,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 128,
	}
	sys, err := engine.Build(spec, cube)
	if err != nil {
		fatal(err)
	}
	d, err := sys.NewDriver(host.Options{})
	if err != nil {
		fatal(err)
	}
	gen, err := workload.NewRandomAccess(uint32(*seed), sys.Capacity(), 64, *writePct)
	if err != nil {
		fatal(err)
	}
	res, err := d.Run(gen, *requests)
	if err != nil {
		fatal(err)
	}
	t := sys.Totals()

	if *jsonOut {
		out := output{
			Spec: spec, Cycles: res.Cycles, Sent: res.Sent,
			Completed: res.Completed, Errors: res.Errors,
			LatencyMean:  res.Latency.Mean(),
			RemoteMean:   res.RemoteLatency.Mean(),
			Hops:         t.Hops,
			Intercube:    t.IntercubePackets,
			PerCube:      t.Cubes,
			Links:        t.Links,
			FabricDigest: fmt.Sprintf("%016x", t.Digest()),
			ResultDigest: fmt.Sprintf("%016x", eval.ResultDigest(res)),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("fabric: %s, %d cubes, link latency %d, interleave %d B, inject cube %d\n",
		spec.Kind(), spec.NumCubes(), spec.LinkLatency, spec.Interleave().Block, spec.InjectCube)
	fmt.Printf("run: %d requests in %d cycles (%d completed, %d errors)\n",
		res.Sent, res.Cycles, res.Completed, res.Errors)
	fmt.Printf("latency: %s\n", res.Latency.String())
	if n := res.RemoteLatency.Count(); n > 0 {
		fmt.Printf("remote latency (%d off-cube round trips): %s\n", n, res.RemoteLatency.String())
	}
	fmt.Printf("fabric: %d hops, %d inter-cube packets, digest %016x\n\n",
		t.Hops, t.IntercubePackets, t.Digest())

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cube\tdelivered\treads\twrites\tatomics\tmodes\tresponses\treq-relayed\trsp-relayed")
	for c, cs := range t.Cubes {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			c, cs.Delivered, cs.Reads, cs.Writes, cs.Atomics, cs.Modes,
			cs.Responses, cs.ReqRelayed, cs.RspRelayed)
	}
	tw.Flush()

	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cable\tflits A>B\tflits B>A")
	for _, lu := range t.Links {
		fmt.Fprintf(tw, "%d:%d-%d:%d\t%d\t%d\n",
			lu.Edge.A, lu.Edge.ALink, lu.Edge.B, lu.Edge.BLink,
			lu.FlitsAB, lu.FlitsBA)
	}
	tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmcsim-fabric:", err)
	os.Exit(1)
}
