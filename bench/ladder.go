package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/models"
	"github.com/pegasus-idp/pegasus/internal/pisa"
	"github.com/pegasus-idp/pegasus/internal/serve"
	"github.com/pegasus-idp/pegasus/internal/trafficgen"
)

// The layer ladder times each layer from outside, in isolation, over
// identical pre-generated batches: every rung adds one layer to the rung
// below, and a layer's self time is the difference. The rungs of one
// model run one after another over the SAME emission, so the flow-state
// registers warmed before the first rung stay warm for the rest (a cold
// flow table fires almost no windows and would understate every packet
// path). Rungs that subtract from each other run on one goroutine or a
// 1-worker scheduler, where wall time is additive.

// direct replays batches through an emission's programs on the calling
// goroutine with no engine around them: the cost of the plans (or of
// the interpreter) alone.
type direct struct {
	em   *core.Emitted
	phvs []*pisa.PHV
	proc []func(*pisa.PHV) // one per pipe
}

func newDirect(em *core.Emitted, compiled bool) *direct {
	d := &direct{em: em}
	for _, p := range em.Programs() {
		// The register layout a 1-shard engine would run on, so that the
		// engine rung above differs by the engine alone.
		p.CompactRegisters(1)
		d.phvs = append(d.phvs, p.Layout.NewPHV())
		if compiled {
			d.proc = append(d.proc, pisa.CompileProgram(p).Process)
		} else {
			d.proc = append(d.proc, p.Process)
		}
	}
	return d
}

// tail runs pipes 1.. over the bridged PHV and returns the final one.
func (d *direct) tail(phv *pisa.PHV) *pisa.PHV {
	for k := 1; k < len(d.proc); k++ {
		next := d.phvs[k]
		next.Reset()
		br := &d.em.Bridges[k-1]
		for b, from := range br.From {
			next.Set(br.To[b], phv.Get(from))
		}
		d.proc[k](next)
		phv = next
	}
	return phv
}

// jobs pushes feature windows through every pipe and returns a checksum
// of the classes, so the work cannot be optimised away.
func (d *direct) jobs(jobs []pisa.Job) (sum int) {
	for i := range jobs {
		phv := d.phvs[0]
		phv.Reset()
		for k, f := range d.em.InFields {
			phv.Set(f, jobs[i].In[k])
		}
		d.proc[0](phv)
		sum += int(d.tail(phv).Get(d.em.ClassField))
	}
	return sum
}

// packets pushes raw packets through the extraction pipe and, on the
// packets that complete a window, through the rest (later pipes are
// stateless, so the engine skips them too). onFire, when set, sees the
// final PHV of each fired window.
func (d *direct) packets(pkts []pisa.PacketIn, onFire func(*pisa.PHV)) (fires int) {
	meta := &d.em.Extract.Meta
	for i := range pkts {
		phv := d.phvs[0]
		phv.Reset()
		phv.Set(meta.Hash, int32(pkts[i].Hash))
		for k, f := range meta.Fields {
			phv.Set(f, pkts[i].Fields[k])
		}
		d.proc[0](phv)
		if phv.Get(meta.Fire) == 0 {
			continue
		}
		fires++
		last := d.tail(phv)
		if onFire != nil {
			onFire(last)
		}
	}
	return fires
}

// timeLoop cycles through nb batches, calling step(i) for batch i, until
// d has elapsed, and returns the mean time per step and the step count.
func timeLoop(d time.Duration, nb int, step func(i int)) (perStep time.Duration, steps int) {
	start := time.Now()
	for time.Since(start) < d {
		step(steps % nb)
		steps++
	}
	return time.Since(start) / time.Duration(steps), steps
}

// ladderCfg sizes the ladder.
type ladderCfg struct {
	rung    time.Duration // time budget of one rung
	batches int           // pre-generated batches per lane
	warm    int           // packets replayed to warm a stateful emission
	c       buildCfg
}

// part is one emission timed in isolation over pre-generated batches:
// feature-window jobs or raw packets. Every batch stands for satBatch
// offered packets (a subscriber's batch holds the windows those packets
// fired), so costs come out per offered packet.
type part struct {
	em   *core.Emitted
	jobs [][]pisa.Job
	pkts [][]pisa.PacketIn
	rung time.Duration
}

func (p part) batches() int { return max(len(p.jobs), len(p.pkts)) }

// warm replays n packets through the compiled plans so the flow table
// reaches its steady fire rate; stateless window parts need none.
func (p part) warm(n int) {
	if p.pkts == nil {
		return
	}
	d := newDirect(p.em, true)
	for done := 0; done < n; done += satBatch {
		d.packets(p.pkts[(done/satBatch)%len(p.pkts)], nil)
	}
}

// direct times the plans (or the interpreter) alone, in ns per offered
// packet, and the wall time CompileProgram took.
func (p part) direct(compiled bool) (ns float64, compile time.Duration) {
	t0 := time.Now()
	d := newDirect(p.em, compiled)
	compile = time.Since(t0)
	sink := 0
	t, _ := timeLoop(p.rung, p.batches(), func(i int) {
		if p.pkts != nil {
			sink += d.packets(p.pkts[i], nil)
		} else {
			sink += d.jobs(p.jobs[i])
		}
	})
	runtime.KeepAlive(sink)
	return float64(t) / satBatch, compile
}

// inline times a 1-shard solo engine, which runs on the caller: the
// plans plus the engine's own sharding, staging and result assembly.
func (p part) inline() float64 {
	var t time.Duration
	if p.pkts != nil {
		eng := p.em.NewPacketEngine(1, pisa.ExecCompiled)
		defer eng.Close()
		t, _ = timeLoop(p.rung, len(p.pkts), func(i int) { eng.RunPackets(p.pkts[i]) })
	} else {
		eng := p.em.NewEngine(1)
		defer eng.Close()
		t, _ = timeLoop(p.rung, len(p.jobs), func(i int) { eng.RunBatch(p.jobs[i]) })
	}
	return float64(t) / satBatch
}

// layerCosts sums per-offered-packet costs over the parts of a
// workload, each weighted by its share of the offered packets.
type layerCosts struct {
	interp, plan, inline float64
	compile              time.Duration
}

// add warms p, times its three rungs and adds them scaled by share.
func (lc *layerCosts) add(p part, share float64, warm int) {
	p.warm(warm)
	plan, compile := p.direct(true)
	interp, _ := p.direct(false)
	lc.plan += share * plan
	lc.interp += share * interp
	lc.inline += share * p.inline()
	lc.compile += compile
}

// genPackets pre-generates a lane's traffic as freshly allocated
// satBatch-packet batches (they outlive each other, unlike Fill's).
func genPackets(cfg ladderCfg, l lane) [][]pisa.PacketIn {
	gen := trafficgen.NewPacketGen(trafficgen.Config{Seed: l.seed, Flows: cfg.c.liveFlows}, l.layout, 0)
	out := make([][]pisa.PacketIn, cfg.batches)
	for i := range out {
		out[i] = gen.Packets(satBatch)
	}
	return out
}

// extractionMachine emits the standalone extraction program of a lane's
// extraction kind.
func extractionMachine(cfg ladderCfg, kind core.ExtractKind) (*core.SharedExtraction, error) {
	return core.EmitSharedExtraction("ladder-ext", pisa.Tofino2, models.SharedWindowSpec(kind), cfg.c.liveFlows)
}

// ladder runs the isolation rungs for inst's workload and returns the
// per-layer metrics they produce. Layers a workload does not have are
// left out.
func ladder(inst *instance, cfg ladderCfg) (map[string]float64, error) {
	m := map[string]float64{}
	lanes := inst.lanes
	rung := cfg.rung / time.Duration(len(lanes))
	warm := cfg.warm / len(lanes)
	var lc layerCosts

	// trafficgen: Fill alone, on the instance's own generator(s).
	fill, _ := timeLoop(cfg.rung, 1, func(int) { inst.fill(satBatch) })
	m["trafficgen.fill_ns_per_pkt"] = float64(fill) / satBatch

	// Host reference: the compiled tables' Classify on one input.
	x := make([]int32, lanes[0].m.InDim)
	classify, _ := timeLoop(cfg.rung/8, 1, func(int) { lanes[0].m.Compiled().Classify(x) })
	m["core.host_classify_ns"] = float64(classify)

	switch {
	case inst.window:
		l := lanes[0]
		em, err := l.m.Emit(cfg.c.liveFlows)
		if err != nil {
			return nil, err
		}
		gen := trafficgen.NewJobGen(trafficgen.Config{Seed: l.seed, Flows: cfg.c.liveFlows}, l.tmpl)
		jobs := make([][]pisa.Job, cfg.batches)
		for i := range jobs {
			jobs[i] = gen.Jobs(satBatch)
		}
		lc.add(part{em: em, jobs: jobs, rung: rung}, 1, 0)

	case inst.shared:
		// The machine once, then each subscriber on the windows it fires.
		shared, err := extractionMachine(cfg, lanes[0].m.PacketExtract)
		if err != nil {
			return nil, err
		}
		pkts := genPackets(cfg, lanes[0])
		lc.add(part{em: shared.Em, pkts: pkts, rung: rung}, 1, cfg.warm)
		m["pisa.plan.ext_ns_per_pkt"] = lc.plan

		// One more pass over the warm machine collects the windows each
		// packet batch fires: the subscribers' input.
		d := newDirect(shared.Em, true)
		wins := make([][]pisa.Job, len(pkts))
		fired := 0
		for i, b := range pkts {
			d.packets(b, func(phv *pisa.PHV) {
				in := make([]int32, len(shared.Em.OutFields))
				for k, f := range shared.Em.OutFields {
					in[k] = phv.Get(f)
				}
				wins[i] = append(wins[i], pisa.Job{Hash: uint32(len(wins[i])), In: in})
			})
			fired += len(wins[i])
		}
		m["pisa.fanout.windows_per_pkt"] = float64(fired) / float64(len(pkts)*satBatch)
		for _, l := range lanes {
			em, err := l.m.EmitShared(shared)
			if err != nil {
				return nil, err
			}
			lc.add(part{em: em, jobs: wins, rung: rung}, 1, 0)
		}
		if err := fanoutRungs(m, cfg.rung, shared, lanes, pkts, lc.plan); err != nil {
			return nil, err
		}

	default:
		// Private packet models, each fed its own traffic; a lane's costs
		// weigh in by its share of the offered packets (round-robin: equal).
		share := 1 / float64(len(lanes))
		var bare, model time.Duration
		for _, l := range lanes {
			em, err := emitPackets(l.m, cfg.c.liveFlows)
			if err != nil {
				return nil, err
			}
			pkts := genPackets(cfg, l)
			lc.add(part{em: em, pkts: pkts, rung: rung}, share, warm)
			if inst.srv != nil {
				b, s, err := serveRungs(rung, em, l, pkts)
				if err != nil {
					return nil, err
				}
				bare += b
				model += s
			}
			// The lane's extraction machine alone.
			ext, err := extractionMachine(cfg, l.m.PacketExtract)
			if err != nil {
				return nil, err
			}
			pe := part{em: ext.Em, pkts: pkts, rung: rung}
			pe.warm(warm)
			ns, _ := pe.direct(true)
			m["pisa.plan.ext_ns_per_pkt"] += share * ns
		}
		if inst.srv != nil {
			m["serve.run_self_us_per_batch"] = float64(model-bare) / float64(len(lanes)) / float64(time.Microsecond)
		}
	}

	m["pisa.interp.ns_per_pkt"] = lc.interp
	m["pisa.plan.ns_per_pkt"] = lc.plan
	m["pisa.plan.compile_ms"] = float64(lc.compile) / float64(time.Millisecond)
	m["pisa.engine.inline_ns_per_pkt"] = lc.inline
	m["pisa.engine.self_ns_per_pkt"] = lc.inline - lc.plan

	rt, err := roundtrip(inst, cfg)
	if err != nil {
		return nil, err
	}
	m["pisa.sched.roundtrip_us"] = rt
	return m, nil
}

// fanoutRungs times Fanout.RunPackets over the warm machine with no
// subscriber and then with every lane subscribed, on a 1-worker
// scheduler so the costs are additive. planNS is the direct plan cost
// of the machine plus its subscribers per packet: what the full rung
// costs beyond it is the fan-out's own hand-off (and the scheduler's,
// which a shared scheduler never skips).
func fanoutRungs(m map[string]float64, rung time.Duration, shared *core.SharedExtraction, lanes []lane, pkts [][]pisa.PacketIn, planNS float64) error {
	sched := pisa.NewScheduler(1)
	defer sched.Close()
	ext := shared.Em.NewPacketEngineOn(sched, "ladder-ext", 1, pisa.ExecCompiled)
	defer ext.Close()
	fan := pisa.NewFanout(ext)
	run := func(i int) { fan.RunPackets(pkts[i]) }
	t, _ := timeLoop(rung, len(pkts), run)
	m["pisa.fanout.ext_only_ns_per_pkt"] = float64(t) / satBatch
	for i, l := range lanes {
		em, err := l.m.EmitShared(shared)
		if err != nil {
			return err
		}
		e := em.NewEngineOn(sched, fmt.Sprintf("ladder-sub%d", i), 1, pisa.ExecCompiled)
		defer e.Close()
		fan.Subscribe(e)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t, steps := timeLoop(rung, len(pkts), run)
	runtime.ReadMemStats(&ms1)
	m["pisa.fanout.self_ns_per_pkt"] = float64(t)/satBatch - planNS
	m["pisa.fanout.allocs_per_batch"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(steps)
	return nil
}

// serveRungs times one lane's warm emission first as a bare packet
// engine on a scheduler of workerBudget workers, then registered on a
// serve.Server of the same budget and driven through Model.RunPackets,
// over the same batches; the difference is serve's own cost per batch.
func serveRungs(rung time.Duration, em *core.Emitted, l lane, pkts [][]pisa.PacketIn) (bare, model time.Duration, err error) {
	sched := pisa.NewScheduler(workerBudget)
	eng := em.NewPacketEngineOn(sched, l.m.Name, 1, pisa.ExecCompiled)
	bare, _ = timeLoop(rung, len(pkts), func(i int) { eng.RunPackets(pkts[i]) })
	eng.Close()
	sched.Close()

	srv := serve.NewServer(serve.Options{Name: "ladder", Cap: pisa.Tofino2.Pipes(4), Budget: workerBudget})
	defer srv.Close()
	h, err := srv.Register(l.m.Name, em, 1, serve.SLO{})
	if err != nil {
		return 0, 0, err
	}
	model, _ = timeLoop(rung, len(pkts), func(i int) { h.RunPackets(pkts[i]) })
	return bare, model, nil
}

// roundtrip times a batch of one packet per shard on an engine with the
// benchmark's worker budget: dispatch, wake, run and merge with next to
// no plan work — the scheduler's fixed cost per batch, in microseconds.
func roundtrip(inst *instance, cfg ladderCfg) (float64, error) {
	l := inst.lanes[0]
	var eng *pisa.Engine
	var run func()
	if inst.window {
		em, err := l.m.Emit(cfg.c.liveFlows)
		if err != nil {
			return 0, err
		}
		eng = em.NewEngine(workerBudget)
		jobs := make([]pisa.Job, eng.Workers())
		for i := range jobs {
			jobs[i] = pisa.Job{Hash: uint32(i), In: make([]int32, l.m.InDim)}
		}
		run = func() { eng.RunBatch(jobs) }
	} else {
		em, err := emitPackets(l.m, cfg.c.liveFlows)
		if err != nil {
			return 0, err
		}
		eng = em.NewPacketEngine(workerBudget, pisa.ExecCompiled)
		pkts := make([]pisa.PacketIn, eng.Workers())
		for i := range pkts {
			pkts[i] = pisa.PacketIn{Hash: uint32(i), Fields: make([]int32, len(em.Extract.Meta.Fields))}
		}
		run = func() { eng.RunPackets(pkts) }
	}
	defer eng.Close()
	t, _ := timeLoop(cfg.rung, 1, func(int) { run() })
	return float64(t) / float64(time.Microsecond), nil
}
