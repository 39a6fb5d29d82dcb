// Vmstudy demonstrates the systems-software research HMC-Sim enables:
// "addressing models and virtual to physical address translation
// techniques" against stacked memory. A device is configured with a
// high-interleave address map (vault bits in the high positions), so each
// 64KB page lives entirely inside one vault and the OS page-placement
// policy decides vault load balance: linear first-touch placement piles
// the working set onto the first vaults, while vault-striped placement
// spreads it — with a direct effect on bank conflicts and runtime.
package main

import (
	"flag"
	"fmt"
	"log"

	"hmcsim/internal/addr"
	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/host"
	"hmcsim/internal/stats"
	"hmcsim/internal/trace"
	"hmcsim/internal/vm"
	"hmcsim/internal/workload"
)

func main() {
	requests := flag.Uint64("requests", 1<<16, "memory requests per run")
	vaBytes := flag.Uint64("va-bytes", 256<<20, "virtual working set size")
	flag.Parse()

	const (
		vaults   = 16
		pageSize = 64 << 10
	)
	cfg := core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: vaults, QueueDepth: 64,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 128,
	}

	run := func(name string, policy vm.Policy) {
		h, err := eval.BuildSimple(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// High-interleave map: vault selected by the high address bits, so
		// placement matters.
		hi, err := addr.NewHighInterleave(vaults, 8, 64, 2)
		if err != nil {
			log.Fatal(err)
		}
		h.Device(0).Map = hi

		col := stats.NewFig5Collector(0, vaults, 1<<12)
		h.SetTracer(col)
		h.SetTraceMask(trace.MaskPerf)

		as, err := vm.New(2<<30, pageSize, policy)
		if err != nil {
			log.Fatal(err)
		}
		tlb, err := vm.NewTLB(64, 4)
		if err != nil {
			log.Fatal(err)
		}
		mmu, err := vm.NewMMU(as, tlb)
		if err != nil {
			log.Fatal(err)
		}
		base, err := workload.NewRandomAccess(1, *vaBytes, 64, 50)
		if err != nil {
			log.Fatal(err)
		}
		gen := &vm.Translating{Gen: base, MMU: mmu}

		d, err := host.NewDriver(h, host.Options{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := d.Run(gen, *requests)
		if err != nil {
			log.Fatal(err)
		}
		col.Flush()

		// Vault load balance.
		tot := col.Totals()
		minLoad, maxLoad := ^uint32(0), uint32(0)
		active := 0
		for v := 0; v < vaults; v++ {
			load := tot.Reads[v] + tot.Writes[v]
			if load > 0 {
				active++
			}
			if load < minLoad {
				minLoad = load
			}
			if load > maxLoad {
				maxLoad = load
			}
		}
		fmt.Printf("%-16s %8d cycles  %6.1f req/cyc  %2d/%d vaults active  conflicts %8d  TLB hit %.1f%%  faults %d\n",
			name, res.Cycles, res.Throughput(), active, vaults,
			res.Engine.BankConflicts, 100*tlb.Stats().HitRate(), as.Stats().Faults)
	}

	fmt.Printf("high-interleave device map, %d KB pages, %d MB virtual working set\n\n",
		pageSize>>10, *vaBytes>>20)
	vaultStriped, err := vm.NewStriped(vaults)
	if err != nil {
		log.Fatal(err)
	}
	// Striping across vault x bank regions balances both dimensions.
	fullStriped, err := vm.NewStriped(vaults * 8)
	if err != nil {
		log.Fatal(err)
	}
	run("linear pages", &vm.Linear{})
	run("vault-striped", vaultStriped)
	run("vault+bank striped", fullStriped)
	run("random pages", vm.NewRandom(7))
	fmt.Println("\nLinear first-touch placement concentrates pages in the low vaults")
	fmt.Println("(the high-interleave map gives each vault a contiguous 128MB), so 2")
	fmt.Println("of 16 vaults carry all traffic. Naive vault striping activates every")
	fmt.Println("vault but — because its regional bump allocators fill each vault's")
	fmt.Println("first bank — serializes on one bank per vault. Striping across")
	fmt.Println("vault x bank regions (or random placement) balances both dimensions")
	fmt.Println("and recovers the device's full parallelism: pure OS policy, same")
	fmt.Println("hardware.")
}
