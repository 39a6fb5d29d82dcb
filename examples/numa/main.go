// Numa demonstrates multiple independent HMC-Sim objects attached to one
// host — the paper's non-uniform-memory-access usage: "an application may
// contain more than one HMC-Sim object", with each object's rudimentary
// clock domain operating completely independently, "analogous to the
// current system on chip methodology of utilizing multiple memory
// channels per socket". Each channel is its own engine and host driver,
// clocked by its own goroutine; aggregate bandwidth scales with the
// channel count.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/host"
	"hmcsim/internal/workload"
)

func main() {
	perChannel := flag.Uint64("requests", 1<<17, "requests per channel")
	flag.Parse()

	obj := core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 64,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 128,
	}

	fmt.Printf("per-channel object: %v, %d requests each\n\n", obj, *perChannel)
	fmt.Printf("%-9s %12s %14s %16s\n", "channels", "cycles", "total req", "agg req/cycle")

	var base float64
	for _, channels := range []int{1, 2, 4, 8} {
		results := runChannels(obj, channels, *perChannel)
		// The channels run concurrently, so the run lasts as long as the
		// slowest channel.
		var cycles, reqs uint64
		for _, r := range results {
			cycles = max(cycles, r.Cycles)
			reqs += r.Sent
		}
		tput := float64(reqs) / float64(cycles)
		if channels == 1 {
			base = tput
		}
		fmt.Printf("%-9d %12d %14d %16.1f  (%.2fx)\n", channels, cycles, reqs, tput, tput/base)
	}

	// Channel interleave demonstration: consecutive blocks round-robin
	// across channels with dense channel-local addresses.
	iv := fabric.Interleave{Ways: 4, Block: 64}
	fmt.Println("\nblock-interleaved sharding of a flat address space:")
	for i := uint64(0); i < 8; i++ {
		ch, local := iv.Shard(i * 64)
		fmt.Printf("  system %#06x -> channel %d local %#06x\n", i*64, ch, local)
	}
}

// runChannels builds n identical engines, each with every link wired to
// the host, and drives channel i with n requests from its own random
// stream (seed i+1) in its own goroutine. The channels share nothing, so
// each result is the one that channel would produce alone.
func runChannels(obj core.Config, n int, requests uint64) []host.Result {
	results := make([]host.Result, n)
	var wg sync.WaitGroup
	for ch := 0; ch < n; ch++ {
		h, err := eval.BuildSimple(obj)
		if err != nil {
			log.Fatal(err)
		}
		d, err := host.NewDriver(h, host.Options{})
		if err != nil {
			log.Fatal(err)
		}
		gen, err := workload.NewRandomAccess(uint32(ch+1), uint64(obj.CapacityGB)<<30, 64, 50)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := d.Run(gen, requests)
			if err != nil {
				log.Fatal(err)
			}
			results[ch] = res
		}()
	}
	wg.Wait()
	return results
}
