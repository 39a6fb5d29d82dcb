package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the root BENCHMARK.json: the one place directions and
// regression bounds are written down.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}

// series is one workload × metric over a set's untraced runs.
func series(f resultFile, workload, name string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 for fewer than two values. The quartiles are the
// exclusive-method ones of Python's statistics.quantiles(xs, n=4).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return ratio(q(3)-q(1), median(s))
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares set b against set a for one metric. worse: b's median
// is worse than a's by more than the bound. unresolved: either set's
// spread is wider than the bound, so a shift of that size could hide in
// the noise — unless every run of b reads better than every run of a, or
// worse than every one.
func judge(a, b []float64, m boundedMetric) (deltaFrac float64, verdict string) {
	ma, mb := median(a), median(b)
	deltaFrac = ratio(mb-ma, ma)
	worseBy := deltaFrac // as a share of a's median, positive when b is worse
	if m.Better == "higher" {
		worseBy = -deltaFrac
	}
	sa, sb := sorted(a), sorted(b)
	allBetter := sb[len(sb)-1] < sa[0]
	allWorse := sb[0] > sa[len(sa)-1]
	if m.Better == "higher" {
		allBetter, allWorse = sb[0] > sa[len(sa)-1], sb[len(sb)-1] < sa[0]
	}
	noisy := max(spread(a), spread(b)) > m.Bound
	switch {
	case allBetter:
		return deltaFrac, verdictOK
	case worseBy > m.Bound && (!noisy || allWorse):
		return deltaFrac, verdictWorse
	case noisy:
		return deltaFrac, verdictUnresolved
	}
	return deltaFrac, verdictOK
}

// compareFiles prints, per workload × end-to-end metric, both medians,
// the delta, the bound and the verdict, and exits non-zero on any worse.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	bm, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare reads bounds from BENCHMARK.json in the working directory:", err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn(A)\tmedian(A)\tspread(A)\tn(B)\tmedian(B)\tspread(B)\tdelta\tbound\tverdict\t")
	counts := map[string]int{}
	for _, w := range bm.Workloads {
		for _, m := range bm.EndToEnd {
			xa, xb := series(a, w.Name, m.Name), series(b, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			delta, verdict := judge(xa, xb, m)
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.1f%%\t%d\t%.6g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\t\n",
				w.Name, m.Name, m.Unit, len(xa), median(xa), 100*spread(xa), len(xb), median(xb), 100*spread(xb),
				100*delta, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(stdout, "%d ok, %d worse, %d unresolved\n", counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictOK]+counts[verdictWorse]+counts[verdictUnresolved] == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no untraced workload")
		return 2
	}
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
