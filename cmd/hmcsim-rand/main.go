// Command hmcsim-rand is the random access memory test harness from the
// paper's Section VI: it generates a randomized stream of mixed reads and
// writes of a configurable block size against a specified HMC device
// configuration, sending as many requests as possible until crossbar
// arbitration stalls are received, with links selected round-robin (or
// with the locality-aware policy of the Section VI corollary).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
	"hmcsim/internal/trace"
	"hmcsim/internal/workload"
)

func main() {
	links := flag.Int("links", 4, "links per device (4 or 8)")
	banks := flag.Int("banks", 8, "banks per vault")
	capacity := flag.Int("capacity", 2, "device capacity in GB")
	queueDepth := flag.Int("queue", 64, "vault queue depth (slots per direction)")
	xbarDepth := flag.Int("xbar", 128, "crossbar queue depth (slots per direction)")
	block := flag.Int("block", 64, "request block size in bytes (16-128, FLIT multiple)")
	writePct := flag.Int("write-pct", 50, "write percentage of the mixture")
	dist := flag.String("dist", "random", "address distribution: random, zipf, stream or stride")
	zipfS := flag.Float64("zipf-s", 1.2, "Zipf skew parameter (with -dist zipf)")
	strideBytes := flag.Uint64("stride", 1024, "stride in bytes (with -dist stride)")
	requests := flag.Uint64("requests", eval.DefaultRequests, "number of memory requests")
	seed := flag.Uint("seed", 1, "glibc LCG seed")
	sel := flag.String("select", "round-robin", "link selection: round-robin, locality or fixed")
	posted := flag.Bool("posted", false, "issue writes as posted requests")
	traceFile := flag.String("trace", "", "write text trace events to this file")
	traceLevel := flag.String("trace-level", "perf", "trace verbosity: none, stalls, perf or all")
	replay := flag.String("replay", "", "drive the run from this address-trace file instead of the random generator")
	record := flag.String("record", "", "record the generated workload to this address-trace file")
	faultTransient := flag.Int("fault-transient", 0, "transient link-fault rate in PPM (CRC-corrupt FLITs, retried transparently)")
	faultLinkFail := flag.Int("fault-linkfail", 0, "permanent link-failure rate in PPM")
	faultVault := flag.Int("fault-vault", 0, "vault fault rate in PPM (poisoned reads)")
	faultSeed := flag.Uint64("fault-seed", 0, "fault-schedule seed (0: derived from -seed)")
	faultRetries := flag.Int("fault-retries", 0, "link retry budget before an ERROR response (0: protocol default)")
	failLinks := flag.String("fail-link", "", "comma-separated dev:link endpoints failed from reset")
	flag.Parse()

	// A 128-byte request gets a 128-byte map block: under a 64-byte map,
	// 128-byte-aligned addresses never set the lowest vault bit, so half
	// the vaults would sit idle.
	mapBlock := 64
	if *block > 64 {
		mapBlock = 128
	}
	cfg := core.Config{
		NumDevs: 1, NumLinks: *links, NumVaults: 4 * *links,
		QueueDepth: *queueDepth, NumBanks: *banks, NumDRAMs: 20,
		CapacityGB: *capacity, XbarDepth: *xbarDepth, BlockSize: mapBlock,
	}
	cfg.Fault = fault.Config{
		TransientPPM: *faultTransient,
		LinkFailPPM:  *faultLinkFail,
		VaultPPM:     *faultVault,
		Seed:         *faultSeed,
		MaxRetries:   *faultRetries,
	}
	if cfg.Fault.Seed == 0 {
		cfg.Fault.Seed = uint64(*seed)
	}
	if *failLinks != "" {
		for _, part := range strings.Split(*failLinks, ",") {
			a, b, ok := strings.Cut(strings.TrimSpace(part), ":")
			if !ok {
				fatal(fmt.Errorf("-fail-link: %q is not of the form dev:link", part))
			}
			dv, err1 := strconv.Atoi(a)
			lv, err2 := strconv.Atoi(b)
			if err1 != nil || err2 != nil {
				fatal(fmt.Errorf("-fail-link: bad pair %q", part))
			}
			cfg.Fault.FailedLinks = append(cfg.Fault.FailedLinks, fault.LinkID{Dev: dv, Link: lv})
		}
	}
	h, err := eval.BuildSimple(cfg)
	if err != nil {
		fatal(err)
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		tw := trace.NewWriter(bw)
		defer tw.Flush()
		tw.Comment("hmcsim-rand trace: %v queue=%d xbar=%d", cfg, *queueDepth, *xbarDepth)
		tw.Comment("workload: %d x %d-byte requests, %d%% writes, seed %d, select=%s",
			*requests, *block, *writePct, *seed, *sel)
		h.SetTracer(tw)
		switch *traceLevel {
		case "none":
			h.SetTraceMask(trace.MaskNone)
		case "stalls":
			h.SetTraceMask(trace.MaskStalls)
		case "perf":
			h.SetTraceMask(trace.MaskPerf)
		case "all":
			h.SetTraceMask(trace.MaskAll)
		default:
			fatal(fmt.Errorf("unknown trace level %q", *traceLevel))
		}
	}

	var selector workload.LinkSelector
	switch *sel {
	case "round-robin":
		selector = nil
	case "locality":
		selector = &workload.Locality{Map: h.Device(0).Map, NumLinks: *links}
	case "fixed":
		selector = workload.Fixed{Link: 0}
	default:
		fatal(fmt.Errorf("unknown link selection %q", *sel))
	}

	var gen workload.Generator
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		gen, err = workload.NewReplay(bufio.NewReaderSize(f, 1<<20), true)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		rangeBytes := uint64(*capacity) << 30
		var g workload.Generator
		var err error
		switch *dist {
		case "random":
			g, err = workload.NewRandomAccess(uint32(*seed), rangeBytes, *block, *writePct)
		case "zipf":
			g, err = workload.NewZipf(int64(*seed), rangeBytes, *block, *writePct, *zipfS)
		case "stream":
			g, err = workload.NewStream(uint32(*seed), rangeBytes, *block, *writePct)
		case "stride":
			g, err = workload.NewStride(uint32(*seed), 0, *strideBytes, rangeBytes, *block, *writePct)
		default:
			err = fmt.Errorf("unknown distribution %q", *dist)
		}
		if err != nil {
			fatal(err)
		}
		gen = g
	}
	var rec *workload.Record
	if *record != "" {
		rec = &workload.Record{Gen: gen}
		gen = rec
	}
	d, err := host.NewDriver(h, host.Options{Select: selector, Posted: *posted})
	if err != nil {
		fatal(err)
	}
	res, err := d.Run(gen, *requests)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("configuration: %v (queue %d, xbar %d)\n", cfg, *queueDepth, *xbarDepth)
	fmt.Printf("workload: %d x %d-byte %s requests, %d%% writes, %s link selection, seed %d\n",
		*requests, *block, *dist, *writePct, *sel, *seed)
	fmt.Printf("simulated runtime: %d clock cycles (%.2f req/cycle)\n", res.Cycles, res.Throughput())
	fmt.Printf("responses: %d   error responses: %d\n", res.Completed, res.Errors)
	fmt.Printf("latency (cycles): %s\n", res.Latency.String())
	e := res.Engine
	fmt.Printf("engine: reads=%d writes=%d atomics=%d posted=%d\n", e.Reads, e.Writes, e.Atomics, e.Posted)
	fmt.Printf("events: bank conflicts=%d xbar rqst stalls=%d latency penalties=%d send stalls=%d retransmits=%d\n",
		e.BankConflicts, e.XbarRqstStalls, e.LatencyEvents, e.SendStalls, e.LinkRetransmits)
	if e.LinkRetransmits+e.ErrorResponses+e.LinkFailures+e.Reroutes+e.PoisonedReads > 0 {
		fmt.Printf("faults: retransmits=%d error responses=%d link failures=%d reroutes=%d poisoned reads=%d\n",
			e.LinkRetransmits, e.ErrorResponses, e.LinkFailures, e.Reroutes, e.PoisonedReads)
	}

	if rec != nil {
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		if err := workload.WriteTrace(f, rec.Log); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d accesses to %s\n", len(rec.Log), *record)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmcsim-rand:", err)
	os.Exit(1)
}
