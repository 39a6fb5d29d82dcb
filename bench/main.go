// Command bench is the repository's benchmark: six workloads over the
// engine's public Go API and over the job service's loopback HTTP API,
// every end-to-end metric by name on each, and — on a traced run — a
// per-package ledger of where the time went. README.md in this directory
// says why each workload and metric exists; BENCHMARK.json at the
// repository root declares them with their directions and bounds.
//
//	go run ./bench -workload table1 -seed 1 -seconds 15 -trace 0
//	go run ./bench -seed 1 -out A.json          # all six, appended to A.json
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// workloads in the order a run of all of them takes.
var workloads = []string{"table1", "sparse", "fabric-mesh", "fig5-trace", "serve-cold", "serve-mixed"}

func isService(workload string) bool { return strings.HasPrefix(workload, "serve-") }

// runOpts is one run's arguments.
type runOpts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scale    uint64 // divides every simulated request count; tests use it
	outDir   string // spans, profiles and the service's store directory
}

// environment is recorded with every run, because a number without its
// machine is not comparable.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reads "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	return ref
}

// warnings are printed, never counted as failures.
func (e environment) warnings() []string {
	var w []string
	if e.GOMAXPROCS > e.NumCPU {
		w = append(w, fmt.Sprintf("WARNING: GOMAXPROCS %d exceeds nproc %d; timings include scheduler contention", e.GOMAXPROCS, e.NumCPU))
	}
	if e.NumCPU < 2 {
		w = append(w, "WARNING: nproc < 2; the service workloads' client and worker share one core")
	}
	return w
}

// record is one run in a result file.
type record struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    int         `json:"trace"`
	Scale    uint64      `json:"scale"`
	Env      environment `json:"env"`
	Notes    []string    `json:"notes,omitempty"`
	result
}

// resultFile is what -out appends to and -compare reads: a set of runs.
type resultFile struct {
	Runs []record `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(data, &f)
}

// appendResult adds rec to the set at path, creating it if need be.
func appendResult(path string, rec record) error {
	f, err := readResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, rec)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runWorkload runs one workload once and returns its tally. On a traced
// run it also writes the spans and a CPU profile under o.outDir.
func runWorkload(o runOpts) (*tally, error) {
	t := newTally()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		prof, err := os.Create(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", o.workload, o.seed)))
		if err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	var err error
	switch {
	case isService(o.workload):
		err = runService(o, t, rec)
	case o.trace:
		err = traceOffline(o, t, rec)
	default:
		err = runOffline(o, t)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if rec != nil {
		path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans.json", o.workload, o.seed))
		if err := writeSpans(path, rec.spans); err != nil {
			return nil, err
		}
		t.notef("%d spans in %s", len(rec.spans), path)
	}
	return t, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: all or one of "+strings.Join(workloads, ", "))
		seed     = fs.Uint64("seed", 1, "seed of every generated workload.Spec and api.SubmitRequest")
		seconds  = fs.Float64("seconds", 15, "how long a run measures: timed repetitions offline, the arrival schedule on the service")
		trace    = fs.Int("trace", 0, "1 runs with spans on and prints the per-layer metrics instead of the end-to-end ones")
		scale    = fs.Uint64("scale", 1, "divide every simulated request count by this (smoke runs and tests)")
		out      = fs.String("out", "", "append each run to this result file (the input of -compare)")
		outDir   = fs.String("outdir", ".bench_out", "directory for spans, CPU profiles and the service's store")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	env := readEnvironment()
	fmt.Fprintf(stdout, "# env: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.CPUModel, env.Commit)
	for _, w := range env.warnings() {
		fmt.Fprintln(stdout, "# "+w)
	}
	code := 0
	for _, name := range names {
		o := runOpts{
			workload: name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
			trace: *trace != 0, scale: max(*scale, 1), outDir: *outDir,
		}
		began := time.Now()
		t, err := runWorkload(o)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		res := t.result(defs)
		fmt.Fprintf(stdout, "# workload %s seed %d trace %d: %.1f s wall\n", name, *seed, *trace, time.Since(began).Seconds())
		for _, note := range t.notes {
			fmt.Fprintln(stdout, "# "+note)
		}
		for _, d := range defs {
			fmt.Fprintf(stdout, "# %-32s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
			if !o.trace && !(res.Metrics[d.name].Value > 0) {
				fmt.Fprintf(stderr, "bench: %s: end-to-end metric %s is not positive\n", name, d.name)
				code = 1
			}
		}
		if *out != "" {
			rec := record{Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace, Scale: o.scale, Env: env, Notes: t.notes, result: res}
			if err := appendResult(*out, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
