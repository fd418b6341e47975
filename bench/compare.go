package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads: the
// bound of each end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json at the
// root of the checkout (the benchmark runs from there or from bench/).
func loadBounds() (*benchmarkFile, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var b benchmarkFile
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &b, nil
	}
	return nil, lastErr
}

// loadRuns reads untraced results, one JSON object per line, grouped
// by workload.
func loadRuns(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			runs[r.Workload] = append(runs[r.Workload], &r)
		}
	}
	return runs, sc.Err()
}

// values lists one metric over a file's runs of one workload.
func values(runs []*result, metric string) []float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[metric]
	}
	return vals
}

// judge compares a baseline a with a candidate b of one metric: ok,
// regressed (b's median worse than a's by more than the bound) or
// unresolved (either side's spread is wider than the bound, so the runs
// cannot tell — unless every run of b reads better than every run of a).
func judge(a, b []float64, higher bool, bound float64) (verdict string, sa, sb sample) {
	sa, sb = summarize(a), summarize(b)
	worse := sb.Median/sa.Median - 1
	if higher {
		worse = -worse
	}
	if sa.spread() > bound || sb.spread() > bound {
		// Every run of b better than every run of a?
		if (higher && slices.Min(b) > slices.Max(a)) || (!higher && slices.Max(b) < slices.Min(a)) {
			return "ok", sa, sb
		}
		return "unresolved", sa, sb
	}
	if worse > bound {
		return "regressed", sa, sb
	}
	return "ok", sa, sb
}

// compareFiles prints, per workload and end-to-end metric, both files'
// medians and quartiles, the ratio b/a and the verdict under the bounds
// of BENCHMARK.json. It reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	bounds, err := loadBounds()
	if err != nil {
		return false, err
	}
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s, b = %s; ratio = b/a (base a)\n", pathA, pathB)
	fmt.Fprintf(w, "%-10s %-11s %12s %25s %12s %25s %7s %6s  %s\n",
		"workload", "metric", "a median", "a q1..q3 (n)", "b median", "b q1..q3 (n)", "ratio", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range bounds.EndToEnd {
			verdict, sa, sb := judge(values(ra, d.Name), values(rb, d.Name), d.Better == "higher", d.Bound)
			regressed = regressed || verdict == "regressed"
			q := func(s sample) string { return fmt.Sprintf("%.5g..%.5g (%d)", s.Q1, s.Q3, s.N) }
			fmt.Fprintf(w, "%-10s %-11s %12.6g %25s %12.6g %25s %7.3f %6.2f  %s\n",
				wl.name, d.Name, sa.Median, q(sa), sb.Median, q(sb), sb.Median/sa.Median, d.Bound, verdict)
		}
	}
	return regressed, nil
}
