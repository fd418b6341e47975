package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/pegasus-idp/pegasus/internal/pisa"
	"github.com/pegasus-idp/pegasus/internal/serve"
)

// Windows are fixed amounts of work, so the same statistic means the
// same thing on every workload and box.
const (
	satWindow   = 24  // batches per saturation window: a multiple of every lane count, long enough to hold a GC cycle
	pacedWindow = 256 // batches per paced window: 2^16 packets
)

// workerBudget is the number of worker shards every engine, scheduler
// and server of the benchmark is built with. It is fixed, not read from
// nproc: the run has one processor (see main), and two shards are what
// it takes for the scheduler's hand-off path to run at all (a 1-shard
// solo engine runs inline on the caller).
const workerBudget = 2

// runCfg sizes one run of one workload.
type runCfg struct {
	seed    int64
	seconds float64
	smoke   bool
	scale
	satSlice    time.Duration // closed-loop time per round, cut into windows of satWindow batches
	pacedSlice  time.Duration // open-loop time per round, cut into windows of pacedWindow batches
	setups      int           // set-ups per untraced run; the median is reported
	warmPackets int           // fixed closed-loop warm-up before any timed phase
	outDir      string        // where trace files go
	log         io.Writer
}

func newRunCfg(seed int64, seconds float64, smoke bool) runCfg {
	c := runCfg{seed: seed, seconds: seconds, smoke: smoke,
		scale: fullScale, satSlice: time.Second, pacedSlice: 1500 * time.Millisecond,
		setups: 3, warmPackets: 1 << 20, outDir: "out"}
	if smoke {
		c.scale, c.satSlice, c.pacedSlice, c.setups, c.warmPackets = smokeScale, 100*time.Millisecond, 100*time.Millisecond, 1, 1<<14
	}
	return c
}

func (c runCfg) buildCfg() buildCfg { return buildCfg{seed: c.seed, scale: c.scale} }

// rounds is how many pairs of a saturation and a paced slice fit in the
// run's seconds after about a second of warm-up.
func (c runCfg) rounds() int {
	if c.smoke {
		return 2
	}
	return max(1, int((c.seconds-1)/(c.satSlice+c.pacedSettle()+c.pacedSlice).Seconds()))
}

// pacedSettle lets the open loop settle (parked workers, cold batches)
// before the latencies of a paced slice count.
func (c runCfg) pacedSettle() time.Duration { return c.pacedSlice / 10 }

// pacedWindows cuts the latencies of one paced slice into windows of
// pacedWindow batches and returns each window's p50 and p90. A slice too
// short for one window (smoke runs) is one window.
func pacedWindows(lats []float64) (p50, p90 []float64) {
	n := pacedWindow
	if len(lats) < n {
		n = len(lats)
	}
	for i := 0; n > 0 && i+n <= len(lats); i += n {
		p50 = append(p50, percentile(lats[i:i+n], 0.50))
		p90 = append(p90, percentile(lats[i:i+n], 0.90))
	}
	return p50, p90
}

// result is what one run reports. Metrics holds the contract's metrics
// for the run's mode; Extra holds what else the run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Rounds    int                `json:"rounds"` // pairs of a saturation and a paced slice
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]sample  `json:"samples,omitempty"` // spread of the metrics measured over windows
	Extra     map[string]float64 `json:"extra,omitempty"`
	Env       env                `json:"env"`
}

// warmUp replays a fixed number of packets closed-loop, so the flow
// table reaches its steady fire rate and every later phase starts from
// the same state for a given seed.
func warmUp(inst *instance, packets int) int {
	n := 0
	for ; n < packets; n += satBatch {
		inst.fill(satBatch)
		inst.run()
	}
	return n
}

// failures counts what went wrong behind run: packets shed, and every
// packet offered if a session was poisoned by a plan panic.
func failures(inst *instance, offered int) (int, error) {
	failed := int(inst.stats().Shed)
	if err := inst.poisoned(); err != nil {
		return offered, err
	}
	return failed, nil
}

// runUntraced produces the end-to-end metrics: set-up time (median of
// several complete builds), accuracy and correctness from the
// verification pass, then saturation throughput and paced latency.
func runUntraced(w *workload, c runCfg) (*result, error) {
	var inst *instance
	var setups []float64
	for i := 0; i < c.setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		var err error
		if inst, err = w.build(c.buildCfg()); err != nil {
			return nil, err
		}
		setups = append(setups, inst.cost.total.Seconds())
	}
	defer inst.close()

	v, err := inst.verify()
	if err != nil {
		return nil, err
	}
	// Saturation and paced slices alternate, so both phases sample the
	// whole span of the run rather than one block of it each.
	n := c.rounds()
	offered := v.attempted + warmUp(inst, c.warmPackets)
	var rates, p50, p90, lats []float64
	late := 0
	for i := 0; i < n; i++ {
		sat := saturate(inst, c.satSlice, nil, 0)
		p := pace(inst, w.pacedRate, c.pacedSettle(), c.pacedSlice, nil, 0)
		rates = append(rates, sat.windows...)
		w50, w90 := pacedWindows(p.lats)
		p50, p90 = append(p50, w50...), append(p90, w90...)
		lats = append(lats, p.lats...)
		late += p.late
		offered += sat.packets + p.packets
	}
	failed, perr := failures(inst, offered)
	if perr != nil {
		fmt.Fprintln(c.log, "poisoned:", perr)
	}
	failed += v.failed

	r := &result{Workload: w.name, Seed: c.seed, Seconds: c.seconds, Rounds: n,
		Attempted: offered, Failed: failed, Correct: failed == 0}
	r.Samples = map[string]sample{
		"pkt_per_s":  summarize(rates),
		"lat_p50_us": summarize(p50),
		"setup_s":    summarize(setups),
	}
	// The throughput and latency metrics are read from the least
	// disturbed window of the run. On a small shared box interference
	// comes in spells of milliseconds to minutes and only ever takes
	// capacity away: over the same recordings the median window moved by
	// 5-45 % between runs of one commit, the best window by 1-3 %. A change
	// to the program moves every window, the best one too. Median and
	// quartiles are kept alongside.
	r.Metrics = map[string]float64{
		"pkt_per_s":  slices.Max(rates),
		"lat_p50_us": slices.Min(p50),
		"macro_f1":   v.macroF1,
		"setup_s":    median(setups),
	}
	r.Extra = map[string]float64{
		"driver.late_share":    float64(late) / float64(len(lats)),
		"driver.lat_p90_us":    slices.Min(p90),
		"driver.lat_p99_us":    percentile(lats, 0.99),
		"driver.lat_p999_us":   percentile(lats, 0.999),
		"driver.paced_batches": float64(len(lats)),
		"driver.paced_rate":    w.pacedRate,
	}
	return r, nil
}

// phaseStats brackets one driver phase with the counters the program
// and the runtime already export.
type phaseStats struct {
	st  pisa.EngineStats
	mem runtime.MemStats
}

func snapshot(inst *instance) phaseStats {
	var p phaseStats
	p.st = inst.stats()
	runtime.ReadMemStats(&p.mem)
	return p
}

// layerCounters turns the counter deltas over one phase into the
// scheduler and allocation metrics, suffixed with the phase's name.
func layerCounters(m map[string]float64, suffix string, a, b phaseStats, packets, batches int, wall time.Duration) {
	tasks := float64(b.st.Tasks - a.st.Tasks)
	if tasks > 0 {
		m["pisa.sched.mean_wait_us"+suffix] = float64(b.st.Wait-a.st.Wait) / tasks / float64(time.Microsecond)
		m["pisa.sched.wait_lt50us_share"+suffix] = float64(b.st.WaitHist[0]-a.st.WaitHist[0]) / tasks
	}
	var depth uint64
	for i := range b.st.QueueHist {
		depth += b.st.QueueHist[i] - a.st.QueueHist[i]
	}
	if depth > 0 {
		m["pisa.sched.depth0_share"+suffix] = float64(b.st.QueueHist[0]-a.st.QueueHist[0]) / float64(depth)
	}
	m["pisa.sched.tasks_per_batch"+suffix] = tasks / float64(batches)
	m["pisa.sched.parallelism"+suffix] = (b.st.Busy - a.st.Busy).Seconds() / wall.Seconds()
	m["pisa.engine.allocs_per_batch"+suffix] = float64(b.mem.Mallocs-a.mem.Mallocs) / float64(batches)
	m["pisa.engine.alloc_b_per_pkt"+suffix] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / float64(packets)
}

// spanMetrics turns a phase's spans into per-batch self times.
func spanMetrics(m map[string]float64, suffix, runSpan string, spans []span) {
	self, count := selfTimes(spans)
	for name, metric := range map[string]string{spanFill: "fill", spanPace: "pace", runSpan: "run"} {
		if n := count[name]; n > 0 {
			m["trace."+metric+"_self_us"+suffix] = float64(self[name]) / float64(n) / float64(time.Microsecond)
		}
	}
}

// runTraced produces the per-layer metrics: one build with its set-up
// split by layer, exact counts over a fixed replay, an untraced
// reference slice and a traced slice of each driver phase (the
// difference is the tracing overhead), live swaps under paced traffic
// where the workload has a control plane, then the isolation ladder.
func runTraced(w *workload, c runCfg) (*result, error) {
	inst, err := w.build(c.buildCfg())
	if err != nil {
		return nil, err
	}
	defer inst.close()
	m := map[string]float64{}
	setupMetrics(m, inst)

	v, err := inst.verify()
	if err != nil {
		return nil, err
	}
	offered := v.attempted + warmUp(inst, c.warmPackets)
	// Exact counts: a fixed number of packets from a fixed state.
	st0 := inst.stats()
	counted := warmUp(inst, c.warmPackets)
	st1 := inst.stats()
	offered += counted
	m["pisa.engine.rmws_per_pkt"] = float64(st1.RegRMWs-st0.RegRMWs) / float64(counted)
	m["pisa.engine.fires_per_pkt"] = float64(st1.Fires-st0.Fires) / float64(counted)

	slice := time.Duration(c.seconds / 10 * float64(time.Second))
	if c.smoke {
		slice = c.satSlice
	}
	tr := newTracer()

	// Saturation: untraced reference, then traced.
	a := snapshot(inst)
	ref := saturate(inst, slice, nil, 0)
	b := snapshot(inst)
	layerCounters(m, ".sat", a, b, ref.packets, ref.batches, ref.elapsed)
	traced := saturate(inst, slice, tr, 0)
	m["trace.overhead_share"] = 1 - traced.rate/ref.rate
	spanMetrics(m, ".sat", inst.runSpan, tr.spans)
	satSpans := len(tr.spans)

	// Paced, traced.
	a = snapshot(inst)
	p := pace(inst, w.pacedRate, c.pacedSettle(), slice, tr, traced.batches)
	b = snapshot(inst)
	layerCounters(m, ".paced", a, b, p.packets, p.packets/pacedBatch, p.elapsed)
	spanMetrics(m, ".paced", inst.runSpan, tr.spans[satSpans:])
	m["driver.late_share"] = p.lateShare()
	if _, w90 := pacedWindows(p.lats); len(w90) > 0 {
		m["driver.lat_p90_us"] = slices.Min(w90)
	}
	m["driver.lat_p99_us"] = percentile(p.lats, 0.99)
	m["driver.lat_p999_us"] = percentile(p.lats, 0.999)
	offered += ref.packets + traced.packets + p.packets

	if inst.swap != nil {
		n, err := swapsUnderLoad(m, inst, w.pacedRate, slice)
		if err != nil {
			return nil, err
		}
		offered += n
		t0 := time.Now()
		inst.srv.Snapshot()
		m["serve.snapshot_us"] = float64(time.Since(t0)) / float64(time.Microsecond)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["pisa.engine.heap_live_mib"] = float64(ms.HeapAlloc) / (1 << 20)

	failed, perr := failures(inst, offered)
	if perr != nil {
		fmt.Fprintln(c.log, "poisoned:", perr)
	}
	m["pisa.sched.shed_pkts"] = float64(inst.stats().Shed)
	failed += v.failed

	lcfg := ladderCfg{rung: slice / 3, batches: 16, warm: c.warmPackets, c: c.buildCfg()}
	if c.smoke {
		lcfg.batches = 2
	}
	rungs, err := ladder(inst, lcfg)
	if err != nil {
		return nil, err
	}
	for k, val := range rungs {
		m[k] = val
	}
	// Does the ladder account for the untraced per-packet cost? On one
	// processor everything is serial, so the wall time per packet of the
	// saturation slice should be the rungs' sum; the scheduler's share is
	// its round trip spread over a saturation batch.
	sum := m["trafficgen.fill_ns_per_pkt"] + m["pisa.plan.ns_per_pkt"] + m["pisa.engine.self_ns_per_pkt"] +
		m["pisa.sched.roundtrip_us"]*1e3/satBatch
	m["trace.ladder_closure"] = sum * ref.rate / 1e9

	if err := tr.write(filepath.Join(c.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	r := &result{Workload: w.name, Seed: c.seed, Trace: true, Seconds: c.seconds, Rounds: 1,
		Attempted: offered, Failed: failed, Correct: failed == 0, Metrics: map[string]float64{}}
	for _, d := range perLayer {
		r.Metrics[d.name] = m[d.name]
		delete(m, d.name)
	}
	for name := range m {
		return nil, fmt.Errorf("bench: metric %q is not in the per-layer list", name)
	}
	r.Extra = map[string]float64{"untraced_pkt_per_s": ref.rate, "traced_pkt_per_s": traced.rate}
	return r, nil
}

// setupMetrics reports one build's set-up split and the emissions'
// exact resource counts.
func setupMetrics(m map[string]float64, inst *instance) {
	c := inst.cost
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	m["models.train_s"] = c.train.Seconds()
	m["core.compile_s"] = c.compile.Seconds()
	m["core.emit_ms"] = ms(c.emit)
	for _, pass := range []string{"lower", "fuse", "build-tables"} {
		m["core.pass."+pass+"_ms"] = ms(c.passes[pass])
	}
	if c.regCalls > 0 {
		m["serve.register_us"] = float64(c.register) / float64(c.regCalls) / float64(time.Microsecond)
	}
	kinds := map[pisa.MatchKind]string{pisa.MatchExact: "exact", pisa.MatchTernary: "ternary", pisa.MatchNone: "always"}
	for _, em := range inst.ems {
		res := em.Resources()
		m["core.emit.stages"] += float64(res.Stages)
		m["core.emit.sram_kib"] += float64(res.SRAMBits) / 8 / 1024
		m["core.emit.tcam_kib"] += float64(res.TCAMBits) / 8 / 1024
		m["core.emit.reg_kib"] += float64(res.RegBits) / 8 / 1024
		m["core.emit.phv_bits"] = max(m["core.emit.phv_bits"], float64(res.PHVBits))
		for _, p := range em.Programs() {
			for _, st := range p.Stages {
				for _, t := range st.Tables {
					m["pisa.plan.tables_per_pkt"]++
					m["pisa.plan.tables_"+kinds[t.Kind]]++
				}
			}
		}
	}
	// Tables a packet may traverse: a private-lane workload sends each
	// packet through one model only.
	if inst.srv != nil {
		for _, k := range []string{"pisa.plan.tables_per_pkt", "pisa.plan.tables_exact", "pisa.plan.tables_ternary", "pisa.plan.tables_always"} {
			m[k] /= float64(len(inst.lanes))
		}
	}
}

// swapsUnderLoad performs live swaps, one after another, while paced
// traffic keeps flowing, and reports the medians of their SwapReports.
// The swaps sit outside every timed window by design: they are
// control-plane writes beside data-plane reads, a layer metric only.
func swapsUnderLoad(m map[string]float64, inst *instance, rate float64, d time.Duration) (offered int, err error) {
	const swaps = 10
	var (
		wg       sync.WaitGroup
		reports  []*serve.SwapReport
		swapErr  error
		deadline = time.Now().Add(d)
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps && time.Now().Before(deadline); i++ {
			r, err := inst.swap()
			if err != nil {
				swapErr = err
				return
			}
			reports = append(reports, r)
		}
	}()
	p := pace(inst, rate, 0, d, nil, 0)
	wg.Wait()
	if swapErr != nil {
		return p.packets, swapErr
	}
	var down, total []float64
	for _, r := range reports {
		down = append(down, float64(r.Downtime)/float64(time.Microsecond))
		total = append(total, float64(r.Warm+r.Downtime)/float64(time.Millisecond))
	}
	m["serve.swap_downtime_us"] = median(down)
	m["serve.swap_total_ms"] = median(total)
	return p.packets, nil
}
