package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed interval of the traced run. Spans of one batch
// share its sequence number; Parent names the span that caused this one
// ("" for the batch's root).
type span struct {
	Name   string `json:"name"`
	Batch  int    `json:"batch"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// The untraced phases run the same loops with no tracer.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, batch int, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Batch: batch, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the total self time — each span's
// duration minus what its child spans (same batch, Parent = its name)
// cover — and how many spans carried the name.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	type key struct {
		batch int
		name  string
	}
	children := map[key]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Batch, s.Parent}] += s.End - s.Start
		}
	}
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - children[key{s.Batch, s.Name}])
		count[s.Name]++
	}
	return self, count
}

// Span names the driver records besides the instance's own runSpan.
const (
	spanBatch = "batch"
	spanFill  = "trafficgen.fill"
	spanPace  = "driver.pace"
)

// satResult is one closed-loop slice.
type satResult struct {
	rate    float64   // packets/s over the whole slice
	windows []float64 // packets/s of each window of satWindow batches
	packets int
	batches int
	elapsed time.Duration
}

// saturate drives inst in a closed loop: one driver refills a
// satBatch-packet batch from the generator and runs it, back to back. The
// next batch is offered only when the previous one has been fully served,
// so a slower system is offered less. The slice is cut into windows of
// satWindow batches — a fixed amount of work each — and ends with the
// first window that completes after d. Traced batches are numbered from
// firstBatch.
func saturate(inst *instance, d time.Duration, tr *tracer, firstBatch int) satResult {
	var res satResult
	start := time.Now()
	winStart := start
	for {
		t0 := time.Now()
		inst.fill(satBatch)
		t1 := time.Now()
		inst.run()
		t2 := time.Now()
		if tr != nil {
			seq := firstBatch + res.batches
			tr.add(spanBatch, seq, "", t0, t2)
			tr.add(spanFill, seq, spanBatch, t0, t1)
			tr.add(inst.runSpan, seq, spanBatch, t1, t2)
		}
		res.batches++
		if res.batches%satWindow == 0 {
			res.windows = append(res.windows, satWindow*satBatch/t2.Sub(winStart).Seconds())
			winStart = t2
			if t2.Sub(start) >= d {
				break
			}
		}
	}
	res.elapsed = time.Since(start)
	res.packets = res.batches * satBatch
	res.rate = float64(res.packets) / res.elapsed.Seconds()
	return res
}

// pacedResult is one open-loop slice.
type pacedResult struct {
	lats    []float64 // latency of each measured batch, microseconds
	packets int       // offered over settling time and window
	late    int       // measured batches dispatched more than one interval late
	elapsed time.Duration
}

func (p pacedResult) lateShare() float64 {
	if len(p.lats) == 0 {
		return 0
	}
	return float64(p.late) / float64(len(p.lats))
}

// pace drives inst in an open loop for d after settle: a pacedBatch-packet
// batch is DUE every pacedBatch/rate seconds, whatever the system does.
// A batch's latency runs from its due time to its completion, so a
// stall is charged to every batch queued behind it, and how late the
// driver dispatched is reported beside it. The driver fills the batch
// before its due time and then yields the processor until then, so the
// run's one processor (see main) is free for the garbage collector as it
// would be on an idle core, and never sleeps. Batches due within the
// first settle of the phase are sent but not measured.
func pace(inst *instance, rate float64, settle, d time.Duration, tr *tracer, firstBatch int) pacedResult {
	var res pacedResult
	interval := time.Duration(float64(pacedBatch) / rate * float64(time.Second))
	start := time.Now()
	for k := 0; ; k++ {
		offset := time.Duration(k) * interval
		if offset >= settle+d {
			break
		}
		due := start.Add(offset)
		t0 := time.Now()
		inst.fill(pacedBatch)
		t1 := time.Now()
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		sent := time.Now()
		inst.run()
		done := time.Now()
		res.packets += pacedBatch
		if tr != nil {
			seq := firstBatch + k
			tr.add(spanBatch, seq, "", t0, done)
			tr.add(spanFill, seq, spanBatch, t0, t1)
			tr.add(spanPace, seq, spanBatch, t1, sent)
			tr.add(inst.runSpan, seq, spanBatch, sent, done)
		}
		if offset < settle {
			continue
		}
		res.lats = append(res.lats, float64(done.Sub(due))/float64(time.Microsecond))
		if sent.Sub(due) > interval {
			res.late++
		}
	}
	res.elapsed = time.Since(start)
	return res
}
