// Command hmcsim-table1 regenerates the paper's Table I: the simulated
// runtime, in clock cycles, of the random access test harness against the
// four evaluated device configurations, plus the average speedups from
// doubling the bank count and the link count.
//
// The paper's full experiment uses 33,554,432 requests (-paper); the
// default is scaled down for interactive runs. Absolute cycle counts
// differ from the paper (the sub-cycle model parameters are not published)
// but the shape — who wins and by roughly what factor — reproduces.
//
// With -json the command emits a machine-readable record whose rows use
// the simulation service's result schema (server.Result), including the
// determinism digests, so CLI runs and service runs are directly
// comparable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/server"
	"hmcsim/internal/server/api"
	"hmcsim/internal/workload"
)

// jsonReport is the -json output schema: the service's per-job result
// rows plus the derived Table I speedup figures.
type jsonReport struct {
	Requests    uint64       `json:"requests"`
	Seed        uint32       `json:"seed"`
	Rows        []api.Result `json:"rows"`
	BankSpeedup float64      `json:"bank_speedup"`
	LinkSpeedup float64      `json:"link_speedup"`
}

func main() {
	requests := flag.Uint64("requests", eval.DefaultRequests, "number of 64-byte memory requests per configuration")
	paper := flag.Bool("paper", false, "run at the paper's full scale (33,554,432 requests)")
	seed := flag.Uint("seed", 1, "glibc LCG seed for the random workload")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (the service's result schema) instead of the table")
	flag.Parse()

	n := *requests
	if *paper {
		n = eval.PaperRequests
	}
	if *jsonOut {
		if err := emitJSON(n, uint32(*seed)); err != nil {
			fmt.Fprintln(os.Stderr, "hmcsim-table1:", err)
			os.Exit(1)
		}
		return
	}
	res, err := eval.RunTableI(n, uint32(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmcsim-table1:", err)
		os.Exit(1)
	}
	fmt.Print(res.Format())
	fmt.Println("\nPaper reference (33,554,432 requests):")
	fmt.Println("  4-Link; 8-Bank; 2GB   3,404,553 cycles")
	fmt.Println("  4-Link; 16-Bank; 4GB  2,327,858 cycles")
	fmt.Println("  8-Link; 8-Bank; 4GB   1,708,918 cycles")
	fmt.Println("  8-Link; 16-Bank; 8GB    879,183 cycles")
}

// emitJSON runs the four configurations through the service's executor
// and prints the shared result schema.
func emitJSON(n uint64, seed uint32) error {
	cfgs := core.Table1Configs()
	rep := jsonReport{Requests: n, Seed: seed, Rows: make([]api.Result, len(cfgs))}
	for i, cfg := range cfgs {
		res, err := server.Execute(context.Background(), api.SubmitRequest{
			Config:   cfg,
			Workload: workload.TableISpec(seed),
			Requests: n,
		})
		if err != nil {
			return fmt.Errorf("%v: %w", cfg, err)
		}
		rep.Rows[i] = res
	}
	c := func(i int) float64 { return float64(rep.Rows[i].Cycles) }
	// Rows: 0 = 4L/8B, 1 = 4L/16B, 2 = 8L/8B, 3 = 8L/16B.
	rep.BankSpeedup = (c(0)/c(1) + c(2)/c(3)) / 2
	rep.LinkSpeedup = (c(0)/c(2) + c(1)/c(3)) / 2
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
