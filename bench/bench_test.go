package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func smokeCfg(t *testing.T, seed int64) runCfg {
	c := newRunCfg(seed, 1, true)
	c.outDir = t.TempDir()
	c.log = io.Discard
	return c
}

// Every workload end to end at smoke scale: each named metric is
// present and finite, nothing fails, the trace file is written.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			c := smokeCfg(t, 1)
			for _, mode := range []struct {
				run  func(*workload, runCfg) (*result, error)
				defs []metricDef
			}{{runUntraced, endToEnd}, {runTraced, perLayer}} {
				r, err := mode.run(w, c)
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
					t.Errorf("trace=%v: attempted %d, failed %d, correct %v", r.Trace, r.Attempted, r.Failed, r.Correct)
				}
				if len(r.Metrics) != len(mode.defs) {
					t.Errorf("trace=%v: %d metrics, want %d", r.Trace, len(r.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					v, ok := r.Metrics[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("trace=%v: metric %s = %v (present %v)", r.Trace, d.name, v, ok)
					}
				}
				if !r.Trace {
					for _, d := range endToEnd {
						if r.Metrics[d.name] <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, r.Metrics[d.name])
						}
					}
				}
			}
			if _, err := os.Stat(filepath.Join(c.outDir, "trace-"+w.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// The same seed gives the same inputs: counts made over the fixed replay
// repeat exactly, and another seed draws other traffic.
func TestSameSeedSameStream(t *testing.T) {
	w := workloadByName("pkt-cnnm")
	exact := func(seed int64) [2]float64 {
		r, err := runTraced(w, smokeCfg(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		return [2]float64{r.Metrics["pisa.engine.rmws_per_pkt"], r.Metrics["pisa.engine.fires_per_pkt"]}
	}
	a, b, c := exact(3), exact(3), exact(4)
	if a != b {
		t.Errorf("seed 3 twice: %v vs %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 gave the same counts %v", a)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-value quartiles = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if p := percentile(xs, 0.99); p != 10 {
		t.Errorf("p99 of 10 = %v, want 10", p)
	}
	if p := percentile(xs, 0.5); p != 5 {
		t.Errorf("p50 (nearest rank) = %v, want 5", p)
	}
	if s := summarize(xs).spread(); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spanBatch, Batch: 0, Start: 0, End: 100},
		{Name: spanFill, Batch: 0, Parent: spanBatch, Start: 0, End: 10},
		{Name: "serve.run", Batch: 0, Parent: spanBatch, Start: 20, End: 90},
		{Name: "pisa.engine.run", Batch: 0, Parent: "serve.run", Start: 30, End: 80},
		{Name: spanBatch, Batch: 1, Start: 100, End: 150},
		{Name: spanFill, Batch: 1, Parent: spanBatch, Start: 100, End: 110},
	}
	self, count := selfTimes(spans)
	want := map[string]time.Duration{spanBatch: 20 + 40, spanFill: 20, "serve.run": 20, "pisa.engine.run": 50}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
	if count[spanBatch] != 2 || count["serve.run"] != 1 {
		t.Errorf("counts = %v", count)
	}
}

// Latency runs from the due time: one stalled batch is charged to the
// batches queued behind it, and shows in the late share.
func TestPacingChargesStall(t *testing.T) {
	const rate = pacedBatch * 1000 // one batch due every millisecond
	run := func(stallAt int) pacedResult {
		k := 0
		inst := &instance{
			runSpan: "fake.run",
			fill:    func(int) {},
			run: func() int {
				if k++; k == stallAt {
					time.Sleep(30 * time.Millisecond)
				}
				return 0
			},
		}
		return pace(inst, rate, 0, 100*time.Millisecond, nil, 0)
	}
	calm, stalled := run(-1), run(10)
	if len(calm.lats) != 100 || len(stalled.lats) != 100 {
		t.Fatalf("batches = %d, %d, want 100 each: every due batch is sent, however late", len(calm.lats), len(stalled.lats))
	}
	if stalled.lateShare() < 0.2 || stalled.lateShare() <= calm.lateShare() {
		t.Errorf("late share %v (calm %v): a 30 ms stall should delay ~29 of 100 batches", stalled.lateShare(), calm.lateShare())
	}
	// Batches 11.. were dispatched late through no fault of their own;
	// from their due time they still waited tens of milliseconds.
	delayed := 0
	for _, l := range stalled.lats {
		if l > 5000 {
			delayed++
		}
	}
	if delayed < 15 {
		t.Errorf("%d batches saw > 5 ms from due time, want the stall charged to those behind it", delayed)
	}
	if p50 := percentile(calm.lats, 0.5); p50 > 1000 {
		t.Errorf("calm p50 = %v us for a no-op batch", p50)
	}
}

// A saturation slice is made of whole windows of satWindow batches and
// ends with the first window that completes after its time is up; a
// paced slice is cut into windows of pacedWindow batches.
func TestWindows(t *testing.T) {
	inst := &instance{runSpan: "fake.run", fill: func(int) {}, run: func() int { return 0 }}
	sat := saturate(inst, 0, nil, 0)
	if sat.batches != satWindow || len(sat.windows) != 1 || sat.windows[0] <= 0 {
		t.Errorf("zero-length slice: %d batches, windows %v, want one window of %d", sat.batches, sat.windows, satWindow)
	}
	sat = saturate(inst, 5*time.Millisecond, nil, 0)
	if sat.batches%satWindow != 0 || len(sat.windows) != sat.batches/satWindow {
		t.Errorf("%d batches in %d windows, want whole windows of %d", sat.batches, len(sat.windows), satWindow)
	}

	lats := make([]float64, 2*pacedWindow+pacedWindow/2)
	for i := range lats {
		lats[i] = float64(i / pacedWindow) // window 0 reads 0, window 1 reads 1
	}
	p50, p90 := pacedWindows(lats)
	if len(p50) != 2 || p50[0] != 0 || p50[1] != 1 || len(p90) != 2 || p90[1] != 1 {
		t.Errorf("p50 %v, p90 %v: want two whole windows, the half window dropped", p50, p90)
	}
	if p50, _ := pacedWindows(lats[:10]); len(p50) != 1 {
		t.Errorf("a slice shorter than a window is one window, got %d", len(p50))
	}
	if p50, _ := pacedWindows(nil); len(p50) != 0 {
		t.Errorf("no latencies, %d windows", len(p50))
	}
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", []float64{100, 101, 102, 103}, []float64{100, 101, 102, 103}, true, 0.05, "ok"},
		{"slower throughput", []float64{100, 101, 102, 103}, []float64{90, 91, 92, 93}, true, 0.05, "regressed"},
		{"higher latency", []float64{100, 101, 102, 103}, []float64{120, 121, 122, 123}, false, 0.10, "regressed"},
		{"lower latency", []float64{100, 101, 102, 103}, []float64{80, 81, 82, 83}, false, 0.10, "ok"},
		{"too noisy to tell", []float64{100, 150, 60, 120}, []float64{90, 140, 70, 100}, true, 0.05, "unresolved"},
		{"noisy but all better", []float64{100, 150, 60, 120}, []float64{190, 240, 170, 200}, true, 0.05, "ok"},
	} {
		if got, _, _ := judge(tc.a, tc.b, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json at the root of the repository names exactly the
// metrics and workloads the program reports, with their units, better
// directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program {%s %s %s}", kind, i, g, d.name, d.unit, better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}
