// Command bench is the repository's performance benchmark: four
// workloads over the dataplane stack (trafficgen → pisa.engine →
// pisa.sched → pisa.plan → pisa.fanout → serve), each built from a seed,
// checked against an independent reference, and measured for saturation
// throughput, paced per-packet latency, accuracy and set-up time, with
// a separate traced run that splits the cost by layer. See README.md.
//
//	go run -C bench . --workload win-cnnm --seed 1 --seconds 23 --trace 0
//	go run -C bench . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// env is where a result was measured; every result carries it.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Budget     int    `json:"worker_budget"`
}

func readEnv() env {
	e := env{Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Budget: workerBudget}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// report prints a result for people, then — as the last line — the
// object the benchmark contract asks for.
func report(r *result) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Printf("== %s  seed %d  trace %v  %d rounds  budget %d ==\n",
		r.Workload, r.Seed, r.Trace, r.Rounds, r.Env.Budget)
	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]outMetric{}
	for _, d := range defs {
		v := r.Metrics[d.name]
		out[d.name] = outMetric{v, d.unit}
		if s, ok := r.Samples[d.name]; ok {
			fmt.Printf("  %-36s %14.6g %-7s median %.6g  q1 %.6g  q3 %.6g  n %d\n", d.name, v, d.unit, s.Median, s.Q1, s.Q3, s.N)
		} else {
			fmt.Printf("  %-36s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	extra := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("  %-36s %14.6g\n", k, r.Extra[k])
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", r.Attempted, r.Failed)
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// appendLine adds r as one JSON line to path: the run history is data.
func appendLine(path string, r *result) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of "+workloadNames()+")")
		seed    = flag.Int64("seed", 1, "seed every input is made from")
		seconds = flag.Float64("seconds", 23, "how long one run measures")
		trace   = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: one after the other)")
		smoke   = flag.Bool("smoke", false, "tiny models and 0.1 s slices: exercises every path in a few seconds")
		history = flag.String("append", "", "append each result as one JSON line to this file")
		compare = flag.Bool("compare", false, "compare two result files (JSON lines): bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	// The whole benchmark runs on one processor. The reference box is a
	// shared 2-vCPU nested VM: waking a worker on the other, idle vCPU
	// costs a VM exit whose price is the host's, not the program's (paced
	// p50 drifted 150-220 us over minutes on two processors and held
	// within 2 % on one), and two processors bought no throughput over
	// one. Workers are goroutines sharing the processor: the scheduler's
	// hand-off, mailbox and merge paths all run, parallel speed-up is not
	// measured.
	runtime.GOMAXPROCS(1)
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	run := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
			os.Exit(2)
		}
		run = []workload{*w}
	}
	cfg := newRunCfg(*seed, *seconds, *smoke)
	cfg.log = os.Stderr
	e := readEnv()
	ok := true
	modes := []func(*workload, runCfg) (*result, error){runUntraced, runTraced}
	switch {
	case *trace == 0:
		modes = modes[:1]
	case *trace > 0:
		modes = modes[1:]
	}
	for i := range run {
		for _, f := range modes {
			r, err := f(&run[i], cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", run[i].name, err)
				os.Exit(1)
			}
			r.Env = e
			if *history != "" {
				if err := appendLine(*history, r); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(1)
				}
			}
			if err := report(r); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			ok = ok && r.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
