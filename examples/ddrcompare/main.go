// Ddrcompare runs the same workloads against a simulated HMC device and
// the traditional banked-DRAM (DDR3-style) baseline, reproducing the
// architectural contrast that motivates the paper: the three-dimensional
// vault/bank organization sustains random traffic that a two-dimensional
// row-buffer memory cannot, while streaming traffic narrows the gap.
package main

import (
	"flag"
	"fmt"
	"log"

	"hmcsim/internal/core"
	"hmcsim/internal/cpu"
	"hmcsim/internal/ddrsim"
	"hmcsim/internal/eval"
	"hmcsim/internal/host"
	"hmcsim/internal/workload"
)

func main() {
	n := flag.Uint64("requests", 1<<17, "requests per run")
	flag.Parse()

	hmcCfg := core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16,
		QueueDepth: 64, NumBanks: 8, NumDRAMs: 20,
		CapacityGB: 2, XbarDepth: 128,
	}
	ddrCfg := ddrsim.DDR3_1600(2)

	// Both memories run on one open-loop runner, cpu.Stream, each over a
	// fresh generator.
	run := func(mem cpu.Memory, newGen func() (workload.Generator, error)) cpu.StreamResult {
		gen, err := newGen()
		if err != nil {
			log.Fatal(err)
		}
		res, err := cpu.Stream(mem, gen, *n)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("HMC: %v        DDR baseline: %d channels x %d banks, 8KB rows, FR-FCFS\n\n",
		hmcCfg, ddrCfg.Channels, ddrCfg.Banks)
	fmt.Printf("%-10s %-6s %12s %12s %14s\n", "workload", "memory", "cycles", "req/cycle", "mean latency")

	for _, w := range []struct {
		name string
		gen  func() (workload.Generator, error)
	}{
		{"random", func() (workload.Generator, error) { return workload.NewRandomAccess(1, 2<<30, 64, 50) }},
		{"stream", func() (workload.Generator, error) { return workload.NewStream(1, 1<<28, 64, 50) }},
	} {
		h, err := eval.BuildSimple(hmcCfg)
		if err != nil {
			log.Fatal(err)
		}
		drv, err := host.NewDriver(h, host.Options{})
		if err != nil {
			log.Fatal(err)
		}
		ddr, err := ddrsim.New(ddrCfg)
		if err != nil {
			log.Fatal(err)
		}
		hr := run(drv, w.gen)
		dr := run(ddr, w.gen)
		fmt.Printf("%-10s %-6s %12d %12.3f %14.1f\n", w.name, "HMC", hr.Cycles, hr.Throughput(), hr.Latency.Mean())
		fmt.Printf("%-10s %-6s %12d %12.3f %14.1f\n", w.name, "DDR", dr.Cycles, dr.Throughput(), dr.Latency.Mean())
		st := ddr.Stats()
		hitRate := float64(st.RowHits) / float64(st.RowHits+st.RowMisses+st.RowOpens)
		fmt.Printf("%-10s DDR row-hit rate %.0f%%; HMC advantage: %.1fx fewer cycles\n\n",
			w.name, 100*hitRate, float64(dr.Cycles)/float64(hr.Cycles))
	}
	fmt.Println("Expected shape: the HMC device wins by orders of magnitude on both")
	fmt.Println("workloads — per-vault logic plus bank parallelism replaces the two")
	fmt.Println("shared DDR buses — and the DDR row-hit rate collapses under random")
	fmt.Println("traffic while streaming keeps its row buffers warm.")
}
