package hmcsim_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// tools caches the binaries buildTool links, by package path, in one
// directory that TestMain creates and removes, so each CLI is built once
// per run however many tests drive it.
var tools struct {
	mu   sync.Mutex
	dir  string
	bins map[string]string
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hmcsim-tools-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tools.dir, tools.bins = dir, make(map[string]string)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildTool compiles the main package at pkg (./cmd/X, ./examples/X)
// on its first call and returns the cached binary after that.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	tools.mu.Lock()
	defer tools.mu.Unlock()
	if bin, ok := tools.bins[pkg]; ok {
		return bin
	}
	bin := filepath.Join(tools.dir, strings.ReplaceAll(strings.TrimPrefix(pkg, "./"), "/", "-"))
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	tools.bins[pkg] = bin
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// TestExampleGoldens pins every example: each regenerates a documented
// result (Figure 4's API sequence, Figure 1's chained ring, and
// EXPERIMENTS.md's page-placement table), and its default-flag output
// must equal its golden under testdata/.
func TestExampleGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	for _, name := range []string{"quickstart", "chained", "vmstudy"} {
		t.Run(name, func(t *testing.T) {
			got := runTool(t, buildTool(t, "./examples/"+name))
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("./examples/%s output differs from testdata/%s.golden\n got:\n%s\nwant:\n%s", name, name, got, want)
			}
		})
	}
}

func TestCLITable1(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := buildTool(t, "./cmd/hmcsim-table1")
	out := runTool(t, bin, "-requests", "16384")
	for _, frag := range []string{
		"Simulation Runtime in Clock Cycles",
		"4-Link; 8-Bank; 2GB",
		"8-Link; 16-Bank; 8GB",
		"doubling banks",
		"Paper reference",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("table1 output missing %q:\n%s", frag, out)
		}
	}
}

func TestCLIRandTraceTraceAnalyzerPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace")
	csvPath := filepath.Join(dir, "fig5.csv")

	rand := buildTool(t, "./cmd/hmcsim-rand")
	out := runTool(t, rand, "-requests", "5000", "-trace", tracePath, "-trace-level", "all", "-energy", "-bw")
	for _, frag := range []string{"simulated runtime", "bank conflicts", "pJ/bit", "GB/s"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rand output missing %q:\n%s", frag, out)
		}
	}
	info, err := os.Stat(tracePath)
	if err != nil || info.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}

	analyzer := buildTool(t, "./cmd/hmcsim-trace")
	out = runTool(t, analyzer, "-csv", csvPath, tracePath)
	for _, frag := range []string{"events:", "RQST", "busiest vaults"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace analyzer output missing %q:\n%s", frag, out)
		}
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "cycle,vault,conflicts,reads,writes") {
		t.Errorf("CSV header wrong: %.60s", csv)
	}
}

func TestCLIRandRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	dir := t.TempDir()
	tr := filepath.Join(dir, "w.trace")
	rand := buildTool(t, "./cmd/hmcsim-rand")
	out1 := runTool(t, rand, "-requests", "3000", "-record", tr)
	if !strings.Contains(out1, "recorded 3000 accesses") {
		t.Fatalf("record missing:\n%s", out1)
	}
	out2 := runTool(t, rand, "-requests", "3000", "-replay", tr)
	// The replayed run services the identical workload: identical cycle
	// counts.
	line := func(s string) string {
		for _, l := range strings.Split(s, "\n") {
			if strings.Contains(l, "simulated runtime") {
				return l
			}
		}
		return ""
	}
	if line(out1) != line(out2) {
		t.Errorf("replay diverged:\n%s\n%s", line(out1), line(out2))
	}
}

func TestCLITopoDot(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	dir := t.TempDir()
	dot := filepath.Join(dir, "ring.dot")
	bin := buildTool(t, "./cmd/hmcsim-topo")
	out := runTool(t, bin, "-topo", "ring", "-devs", "4", "-dot", dot, "-smoke", "500")
	for _, frag := range []string{"root devices", "smoke run: 500 requests", "host-hop distance"} {
		if !strings.Contains(out, frag) {
			t.Errorf("topo output missing %q:\n%s", frag, out)
		}
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "graph \"ring\"") {
		t.Errorf("dot file content: %.80s", data)
	}
}

func TestCLIFig5All(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := buildTool(t, "./cmd/hmcsim-fig5")
	out := runTool(t, bin, "-all", "-requests", "16384")
	if !strings.Contains(out, "Latency/req") || !strings.Contains(out, "8-Link; 16-Bank; 8GB") {
		t.Errorf("fig5 -all output:\n%s", out)
	}
}

// TestCLIRepro pins REPORT.md: rerunning the command line the report
// names must reproduce it byte for byte, apart from its wall-clock line.
func TestCLIRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	report := filepath.Join(t.TempDir(), "REPORT.md")
	bin := buildTool(t, "./cmd/hmcsim-repro")
	runTool(t, bin, "-requests", "262144", "-seed", "1", "-out", report)
	got, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	g, w := reportLines(string(got)), reportLines(string(want))
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("report differs from REPORT.md at line %d:\n got: %q\nwant: %q", i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("report has %d lines, REPORT.md %d", len(g), len(w))
	}
}

// reportLines splits a report into lines with the wall-clock line, the
// one line that varies from run to run, masked.
func reportLines(s string) []string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "Wall-clock time") {
			lines[i] = "Wall-clock time: masked"
		}
	}
	return lines
}

func TestCLIFaultsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := buildTool(t, "./cmd/hmcsim-faults")
	args := []string{"-requests", "1024", "-seed", "9"}
	out1 := runTool(t, bin, args...)
	out2 := runTool(t, bin, args...)
	// The acceptance criterion: a fixed-seed campaign is byte-identical
	// across runs.
	if out1 != out2 {
		t.Errorf("fault campaign not byte-identical for a fixed seed:\n--- first ---\n%s--- second ---\n%s", out1, out2)
	}
	for _, frag := range []string{"clean", "transient-1e3", "linkfail-500", "vault-1e4", "mixed", "Retrans", "Reroutes"} {
		if !strings.Contains(out1, frag) {
			t.Errorf("faults output missing %q:\n%s", frag, out1)
		}
	}
}

func TestCLIFaultsRingDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := buildTool(t, "./cmd/hmcsim-faults")
	out := runTool(t, bin,
		"-requests", "512", "-topo", "ring", "-devs", "4",
		"-fail-link", "0:1",
		"-transient-ppm", "0", "-linkfail-ppm", "0", "-vault-ppm", "0")
	if !strings.Contains(out, "custom") {
		t.Errorf("ring campaign missing custom point:\n%s", out)
	}
	// Every row of a statically degraded ring must show reroutes; none may
	// report a disconnected host.
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "custom") {
			continue
		}
		if strings.Contains(line, "host disconnected") {
			t.Errorf("degraded ring disconnected the host: %s", line)
		}
	}
}

func TestCLITable1JSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := buildTool(t, "./cmd/hmcsim-table1")
	out := runTool(t, bin, "-json", "-requests", "4096")
	var rep struct {
		Requests uint64 `json:"requests"`
		Rows     []struct {
			Config       string  `json:"config"`
			Cycles       uint64  `json:"cycles"`
			Sent         uint64  `json:"sent"`
			ReqsPerCycle float64 `json:"reqs_per_cycle"`
			ResultDigest string  `json:"result_digest"`
			StateDigest  string  `json:"state_digest"`
		} `json:"rows"`
		BankSpeedup float64 `json:"bank_speedup"`
		LinkSpeedup float64 `json:"link_speedup"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output not parseable: %v\n%s", err, out)
	}
	if rep.Requests != 4096 || len(rep.Rows) != 4 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	for _, row := range rep.Rows {
		if row.Cycles == 0 || row.Sent != 4096 || len(row.ResultDigest) != 16 || len(row.StateDigest) != 16 {
			t.Errorf("implausible row %+v", row)
		}
	}
	if rep.BankSpeedup <= 1 || rep.LinkSpeedup <= 1 {
		t.Errorf("speedups not > 1: bank %.3f link %.3f", rep.BankSpeedup, rep.LinkSpeedup)
	}
	// The -json schema is the service's result schema; a fixed seed must
	// reproduce the committed report byte for byte, run after run.
	want, err := os.ReadFile(filepath.Join("testdata", "table1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("-json output differs from testdata/table1.golden.json\n got:\n%s\nwant:\n%s", out, want)
	}
}

// TestCLIServeDrainsOnSIGTERM is the end-to-end acceptance check for
// graceful shutdown: a daemon with an in-flight job, signalled with
// SIGTERM, finishes the job before exiting cleanly.
func TestCLIServeDrainsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	serve := buildTool(t, "./cmd/hmcsim-serve")
	cmd := exec.Command(serve, "-addr", "127.0.0.1:0", "-workers", "2", "-drain", "30s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints its chosen ephemeral address on the first line.
	// Keep reading through the same buffered reader afterwards so no
	// already-buffered output is lost.
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("no listen line from hmcsim-serve: %v", err)
	}
	line = strings.TrimSpace(line)
	addr := strings.TrimPrefix(line, "listening on ")
	if addr == line {
		t.Fatalf("unexpected first line %q", line)
	}
	base := "http://" + addr

	spec := `{"config":{"NumDevs":1,"NumLinks":4,"NumVaults":16,"QueueDepth":64,"NumBanks":8,"NumDRAMs":20,"CapacityGB":2,"XbarDepth":128},"workload":{"kind":"random","seed":1,"size":64,"write_percent":50},"requests":20000}`
	rsp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rsp.Body)
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", rsp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Signal while the job is (very likely) still in flight; the drain
	// must complete it rather than drop it.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(rd)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("hmcsim-serve exited uncleanly: %v\n%s", err, rest)
	}
	if !strings.Contains(string(rest), "drained") {
		t.Errorf("no drain confirmation in output:\n%s", rest)
	}
}
