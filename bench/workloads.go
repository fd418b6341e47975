package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/datasets"
	"github.com/pegasus-idp/pegasus/internal/metrics"
	"github.com/pegasus-idp/pegasus/internal/models"
	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/pisa"
	"github.com/pegasus-idp/pegasus/internal/serve"
	"github.com/pegasus-idp/pegasus/internal/trafficgen"
)

// workload is one input mix of the benchmark. pacedRate is the fixed
// offered load of the open-loop phase, set once so that a pacedBatch
// batch keeps the run's one processor busy for about a quarter of the
// interval between batches on the reference box, and rounded; it is a
// constant so that latency is always read at the same offered load,
// whatever the commit under test does to saturation.
type workload struct {
	name      string
	why       string
	pacedRate float64
	build     func(c buildCfg) (*instance, error)
}

var workloads = []workload{
	{"win-cnnm", "stateless CNN-M feature windows on a solo engine: the compiled plan does almost all the work, no registers, no fan-out, no serve", 450_000, buildWinCNNM},
	{"pkt-cnnm", "raw packets through the fused CNN-M extraction prelude: every packet pays register RMWs and 1 in 8 fires inference, so flow state dominates", 400_000, buildPktCNNM},
	{"shared-3", "one shared extraction machine fanned out to three register-free subscribers on one scheduler: fan-out and multi-session hand-off do most of the work", 300_000, buildShared3},
	{"serve-mix", "serve.Server with private MLP-B, CNN-B and CNN-M packet models driven round-robin: per-batch scheduler hand-off, serve locking and the stats tracker", 140_000, buildServeMix},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scale sizes the set-up work and the flow population.
type scale struct {
	flowsPerClass int // training dataset flows per class
	testPerClass  int // labelled test flows per class
	epochs        int // training epochs per model
	liveFlows     int // generator population = register slots (power of two)
	verifyPackets int // generated packets checked against the oracle
}

var (
	fullScale  = scale{flowsPerClass: 120, testPerClass: 200, epochs: 60, liveFlows: 1 << 12, verifyPackets: 1 << 16}
	smokeScale = scale{flowsPerClass: 12, testPerClass: 12, epochs: 2, liveFlows: 1 << 10, verifyPackets: 1 << 12}
)

// modelSeed fixes the training data and the weights' initialisation.
// The models are a fixed artefact of the benchmark, rebuilt from scratch
// by every set-up; the run's seed draws the traffic and the labelled
// test trace. A seed-drawn model would move macro_f1 by several percent
// from seed to seed, and its bound could then guard nothing.
const modelSeed = 1

// Batch sizes of the two driver phases.
const (
	satBatch   = 8192 // closed loop: big batches amortise dispatch
	pacedBatch = 256  // open loop: small batches, one latency sample each
)

type buildCfg struct {
	seed int64
	scale
}

// setupCost splits one build's wall time by set-up layer. Models'
// costs are summed when a workload trains several.
type setupCost struct {
	total    time.Duration
	dataset  time.Duration
	train    time.Duration
	compile  time.Duration
	emit     time.Duration
	register time.Duration            // engine / server / fan-out construction + Register
	passes   map[string]time.Duration // PassDiag.Wall per compile pass
	regCalls int                      // serve.Register calls timed into register
}

// verdict is the outcome of an instance's verification pass.
type verdict struct {
	attempted, failed int
	macroF1           float64
}

// instance is one built workload: the system under test, the
// generators that feed it, and what the layer ladder needs to rebuild
// its parts in isolation.
type instance struct {
	cost setupCost

	// fill draws the next n packets from the workload's generator(s)
	// into the instance's batch buffer; run pushes that batch through
	// the system under test and returns how many results came back.
	fill func(n int)
	run  func() int
	// runSpan names the layer boundary run crosses (the trace span).
	runSpan string
	// stats sums the serving counters of every session behind run.
	stats func() pisa.EngineStats
	// poisoned reports a plan panic isolated by any session.
	poisoned func() error
	verify   func() (verdict, error)
	close    func()

	// lanes are the models behind the workload, for the layer ladder.
	lanes []lane
	// window is true when the workload feeds feature-window jobs
	// rather than raw packets.
	window bool
	// ems are the emissions under test (resource accounting).
	ems []*core.Emitted
	// shared is true when the lanes subscribe to one extraction machine.
	shared bool
	// srv and swap are the control plane, nil where there is none.
	srv  *serve.Server
	swap func() (*serve.SwapReport, error)
}

// lane is one model of a workload with the traffic shape it consumes.
type lane struct {
	m      *models.Feedforward
	layout trafficgen.Layout
	seed   int64     // its generator's seed
	tmpl   [][]int32 // feature-window templates (window workloads)
}

// builder accumulates set-up cost while a workload is put together.
type builder struct {
	c     buildCfg
	start time.Time
	cost  setupCost
	train []netsim.Flow
	test  []netsim.Flow
	k     int
	rng   *rand.Rand
}

func newBuilder(c buildCfg) *builder {
	b := &builder{c: c, start: time.Now()}
	b.cost.passes = map[string]time.Duration{}
	ds := datasets.PeerRush(datasets.Config{FlowsPerClass: c.flowsPerClass, PacketsPerFlow: 28, Seed: modelSeed + 101})
	b.train, _, _ = ds.Split(modelSeed + 7)
	b.test = datasets.PeerRush(datasets.Config{FlowsPerClass: c.testPerClass, PacketsPerFlow: 28, Seed: c.seed + 1001}).Flows
	b.k = ds.NumClasses()
	b.rng = rand.New(rand.NewSource(modelSeed + 13))
	b.cost.dataset = time.Since(b.start)
	return b
}

// model trains and compiles one zoo model on the builder's dataset.
func (b *builder) model(mk func(int, *rand.Rand) *models.Feedforward) (*models.Feedforward, error) {
	m := mk(b.k, b.rng)
	t0 := time.Now()
	m.Train(b.train, models.TrainOpts{Epochs: b.c.epochs, Seed: modelSeed})
	t1 := time.Now()
	if err := m.Compile(b.train); err != nil {
		return nil, fmt.Errorf("%s compile: %w", m.Name, err)
	}
	b.cost.train += t1.Sub(t0)
	b.cost.compile += time.Since(t1)
	for _, d := range m.Diagnostics() {
		b.cost.passes[d.Pass] += d.Wall
	}
	return m, nil
}

// emit times one emission.
func (b *builder) emit(f func() (*core.Emitted, error)) (*core.Emitted, error) {
	t0 := time.Now()
	em, err := f()
	b.cost.emit += time.Since(t0)
	return em, err
}

// register times engine, server or fan-out construction.
func (b *builder) register(f func()) {
	t0 := time.Now()
	f()
	b.cost.register += time.Since(t0)
}

func (b *builder) done(inst *instance) *instance {
	b.cost.total = time.Since(b.start)
	inst.cost = b.cost
	return inst
}

func (b *builder) genCfg(seed int64) trafficgen.Config {
	return trafficgen.Config{Seed: seed, Flows: b.c.liveFlows}
}

// emitPackets emits m with its fused extraction prelude. A model whose
// inference already fills one pipe (MLP-B) moves to the two-pipe split,
// so the chain/bridge path runs.
func emitPackets(m *models.Feedforward, flows int) (*core.Emitted, error) {
	em, err := m.EmitPackets(flows)
	if err != nil && m.Pipeline().Opts.Emit.Target == nil {
		m.Pipeline().Opts.Emit.Target = core.TofinoMultiPipe()
		em, err = m.EmitPackets(flows)
	}
	if err != nil {
		return nil, fmt.Errorf("%s emit: %w", m.Name, err)
	}
	return em, nil
}

// oracle builds the reference for one packet model: a 1-worker
// interpreter engine over a separate fused emission, so it shares no
// register, plan or scheduler with the system under test.
func oracle(m *models.Feedforward, flows int) (*pisa.Engine, error) {
	em, err := emitPackets(m, flows)
	if err != nil {
		return nil, err
	}
	return em.NewPacketEngine(1, pisa.ExecInterpret), nil
}

func roundInts(x []float64) []int32 {
	v := make([]int32, len(x))
	for i, f := range x {
		v[i] = int32(math.RoundToEven(f))
	}
	return v
}

// diffFires counts the fired windows on which got and want disagree
// (packet index, class or output vector), plus any surplus on either
// side.
func diffFires(got, want []pisa.PacketResult) int {
	n := min(len(got), len(want))
	bad := max(len(got), len(want)) - n
	for i := 0; i < n; i++ {
		if got[i].Pkt != want[i].Pkt || got[i].Class != want[i].Class || !slices.Equal(got[i].Outs, want[i].Outs) {
			bad++
		}
	}
	return bad
}

// f1Score is the macro-F1 of pred against truth over k classes.
func f1Score(k int, truth, pred []int) (float64, error) {
	rep, err := metrics.Evaluate(k, truth, pred)
	return rep.F1, err
}

// packetCheck verifies packet paths: it replays what the system under
// test was fed through one oracle per lane (model), counts
// disagreements, and scores the labelled part against its flow labels.
type packetCheck struct {
	k       int
	oracles []*pisa.Engine
	truth   [][]int
	pred    [][]int
	v       verdict
}

func newPacketCheck(k int, ms []*models.Feedforward, flows int) (*packetCheck, error) {
	pc := &packetCheck{k: k, truth: make([][]int, len(ms)), pred: make([][]int, len(ms))}
	for _, m := range ms {
		o, err := oracle(m, flows)
		if err != nil {
			pc.close()
			return nil, err
		}
		pc.oracles = append(pc.oracles, o)
	}
	return pc, nil
}

func (pc *packetCheck) close() {
	for _, o := range pc.oracles {
		o.Close()
	}
}

// lane compares row, what the system returned for lane i on pkts, with
// oracle i's replay of the same packets. labels, when non-nil, gives
// each packet's flow class, and the fires are scored for macro-F1.
func (pc *packetCheck) lane(i int, pkts []pisa.PacketIn, row []pisa.PacketResult, labels []int) {
	pc.v.failed += diffFires(row, pc.oracles[i].RunPackets(pkts))
	if labels == nil {
		return
	}
	for _, r := range row {
		pc.truth[i] = append(pc.truth[i], labels[r.Pkt])
		pc.pred[i] = append(pc.pred[i], r.Class)
	}
}

// all checks a batch every lane saw: rows[i] is lane i's result.
func (pc *packetCheck) all(pkts []pisa.PacketIn, rows [][]pisa.PacketResult, labels []int) {
	pc.v.attempted += len(pkts)
	for i, row := range rows {
		pc.lane(i, pkts, row, labels)
	}
}

// finish folds the RMW comparison and the macro-F1 into the verdict.
// sutRMWs is what the system under test executed over the checked
// stream: one oracle's worth when extraction is shared, every oracle's
// when each lane runs its own prelude.
func (pc *packetCheck) finish(sutRMWs uint64, shared bool) (verdict, error) {
	var want uint64
	for i, o := range pc.oracles {
		if shared && i > 0 {
			break
		}
		want += o.Stats().RegRMWs
	}
	pc.v.failed += int(max(sutRMWs, want) - min(sutRMWs, want))
	pc.v.failed = min(pc.v.failed, pc.v.attempted)
	for i := range pc.truth {
		f1, err := f1Score(pc.k, pc.truth[i], pc.pred[i])
		if err != nil {
			return pc.v, err
		}
		pc.v.macroF1 += f1 / float64(len(pc.truth))
	}
	return pc.v, nil
}

// labelledTrace marshals the held-out test flows as one merged packet
// trace for em's extraction machine, with each packet's flow class.
func labelledTrace(em *core.Emitted, test []netsim.Flow) ([]pisa.PacketIn, []int) {
	stream := netsim.Merge(test)
	labels := make([]int, len(stream))
	for i, sp := range stream {
		labels[i] = sp.Flow.Class
	}
	return models.PacketJobs(em, stream), labels
}

// ---- win-cnnm ----

func buildWinCNNM(c buildCfg) (*instance, error) {
	b := newBuilder(c)
	cnnm, err := b.model(models.NewCNNM)
	if err != nil {
		return nil, err
	}
	em, err := b.emit(func() (*core.Emitted, error) { return cnnm.Emit(c.liveFlows) })
	if err != nil {
		return nil, err
	}
	var eng *pisa.Engine
	b.register(func() { eng = em.NewEngine(workerBudget) })

	// Templates are the real test-split feature windows, so the table hit
	// profile matches trace replay while flow hashes churn like live
	// traffic.
	xs, ys := models.ExtractSeq(b.test)
	tmpl := make([][]int32, len(xs))
	for i, x := range xs {
		tmpl[i] = roundInts(x)
	}
	gen := trafficgen.NewJobGen(b.genCfg(c.seed+1), tmpl)
	jobs := make([]pisa.Job, satBatch)
	batch := jobs

	inst := &instance{
		window:   true,
		runSpan:  "pisa.engine.run",
		ems:      []*core.Emitted{em},
		lanes:    []lane{{m: cnnm, seed: c.seed + 1, tmpl: tmpl}},
		fill:     func(n int) { batch = jobs[:n]; gen.Fill(batch) },
		run:      func() int { return len(eng.RunBatch(batch)) },
		stats:    eng.Stats,
		poisoned: eng.Poisoned,
		close:    eng.Close,
	}
	inst.verify = func() (verdict, error) {
		var v verdict
		// Labelled test windows through the timed path, scored.
		pred := make([]int, len(tmpl))
		for i, r := range eng.RunBatch(core.BatchJobs(tmpl)) {
			pred[i] = r.Class
		}
		f1, err := f1Score(b.k, ys, pred)
		if err != nil {
			return v, err
		}
		v.macroF1 = f1
		// Generated jobs against the interpreter and the host tables.
		for v.attempted < min(c.verifyPackets, 4096) {
			inst.fill(min(satBatch, 4096))
			got := eng.RunBatch(batch)
			for i, j := range batch {
				class, outs := em.RunSwitch(j.In)
				if got[i].Class != class || !slices.Equal(got[i].Outs, outs) || class != cnnm.Compiled().Classify(j.In) {
					v.failed++
				}
			}
			v.attempted += len(batch)
		}
		return v, nil
	}
	return b.done(inst), nil
}

// ---- pkt-cnnm ----

func buildPktCNNM(c buildCfg) (*instance, error) {
	b := newBuilder(c)
	cnnm, err := b.model(models.NewCNNM)
	if err != nil {
		return nil, err
	}
	em, err := b.emit(func() (*core.Emitted, error) { return emitPackets(cnnm, c.liveFlows) })
	if err != nil {
		return nil, err
	}
	var eng *pisa.Engine
	b.register(func() { eng = em.NewPacketEngine(workerBudget, pisa.ExecCompiled) })

	gen := trafficgen.NewPacketGen(b.genCfg(c.seed+2), trafficgen.LayoutSeq, 0)
	pkts := make([]pisa.PacketIn, satBatch)
	batch := pkts

	inst := &instance{
		runSpan:  "pisa.engine.run",
		ems:      []*core.Emitted{em},
		lanes:    []lane{{m: cnnm, layout: trafficgen.LayoutSeq, seed: c.seed + 2}},
		fill:     func(n int) { batch = pkts[:n]; gen.Fill(batch) },
		run:      func() int { return len(eng.RunPackets(batch)) },
		stats:    eng.Stats,
		poisoned: eng.Poisoned,
		close:    eng.Close,
	}
	inst.verify = func() (verdict, error) {
		pc, err := newPacketCheck(b.k, []*models.Feedforward{cnnm}, c.liveFlows)
		if err != nil {
			return verdict{}, err
		}
		defer pc.close()
		rmw0 := eng.Stats().RegRMWs
		trace, labels := labelledTrace(em, b.test)
		pc.all(trace, [][]pisa.PacketResult{eng.RunPackets(trace)}, labels)
		for n := 0; n < c.verifyPackets; n += len(batch) {
			inst.fill(satBatch)
			pc.all(batch, [][]pisa.PacketResult{eng.RunPackets(batch)}, nil)
		}
		return pc.finish(eng.Stats().RegRMWs-rmw0, false)
	}
	return b.done(inst), nil
}

// ---- shared-3 ----

func buildShared3(c buildCfg) (*instance, error) {
	b := newBuilder(c)
	cnnb, err := b.model(models.NewCNNB)
	if err != nil {
		return nil, err
	}
	cnnm, err := b.model(models.NewCNNM)
	if err != nil {
		return nil, err
	}
	// The third subscriber is a second emission of CNN-B: emissions are
	// independent programs, so it is a genuine co-resident.
	subs := []*models.Feedforward{cnnb, cnnm, cnnb}
	names := []string{"CNN-B", "CNN-M", "CNN-B#2"}

	spec := models.SharedWindowSpec(core.ExtractSeq)
	var shared *core.SharedExtraction
	if _, err := b.emit(func() (*core.Emitted, error) {
		var err error
		shared, err = core.EmitSharedExtraction("px-shared-seq", pisa.Tofino2, spec, c.liveFlows)
		if err != nil {
			return nil, err
		}
		return shared.Em, nil
	}); err != nil {
		return nil, err
	}
	ems := []*core.Emitted{shared.Em}
	for i, m := range subs {
		em, err := b.emit(func() (*core.Emitted, error) { return m.EmitShared(shared) })
		if err != nil {
			return nil, fmt.Errorf("%s shared emit: %w", names[i], err)
		}
		ems = append(ems, em)
	}
	var (
		sched *pisa.Scheduler
		ext   *pisa.Engine
		fan   *pisa.Fanout
		engs  []*pisa.Engine
	)
	b.register(func() {
		sched = pisa.NewScheduler(workerBudget)
		ext = shared.Em.NewPacketEngineOn(sched, "px-shared-seq", 1, pisa.ExecCompiled)
		fan = pisa.NewFanout(ext)
		for i, em := range ems[1:] {
			e := em.NewEngineOn(sched, names[i], 1, pisa.ExecCompiled)
			fan.Subscribe(e)
			engs = append(engs, e)
		}
	})

	gen := trafficgen.NewPacketGen(b.genCfg(c.seed+2), trafficgen.LayoutSeq, 0)
	pkts := make([]pisa.PacketIn, satBatch)
	batch := pkts

	inst := &instance{
		runSpan: "pisa.fanout.run",
		ems:     ems,
		shared:  true,
		lanes: []lane{
			{m: cnnb, layout: trafficgen.LayoutSeq, seed: c.seed + 2},
			{m: cnnm, layout: trafficgen.LayoutSeq, seed: c.seed + 2},
			{m: cnnb, layout: trafficgen.LayoutSeq, seed: c.seed + 2},
		},
		fill: func(n int) { batch = pkts[:n]; gen.Fill(batch) },
		// A packet is fully served once every subscriber has seen its
		// window, which is when RunPackets returns.
		run: func() int {
			n := 0
			for _, row := range fan.RunPackets(batch) {
				n += len(row)
			}
			return n
		},
		stats: func() pisa.EngineStats {
			var st pisa.EngineStats
			for _, s := range sched.Stats() {
				st.Add(s)
			}
			return st
		},
		poisoned: func() error {
			for _, e := range append([]*pisa.Engine{ext}, engs...) {
				if err := e.Poisoned(); err != nil {
					return err
				}
			}
			return nil
		},
		close: func() {
			for _, e := range engs {
				e.Close()
			}
			ext.Close()
			sched.Close()
		},
	}
	inst.verify = func() (verdict, error) {
		// Each subscriber against its private fused emission.
		pc, err := newPacketCheck(b.k, subs, c.liveFlows)
		if err != nil {
			return verdict{}, err
		}
		defer pc.close()
		rmw0 := inst.stats().RegRMWs
		trace, labels := labelledTrace(shared.Em, b.test)
		pc.all(trace, fan.RunPackets(trace), labels)
		for n := 0; n < c.verifyPackets; n += len(batch) {
			inst.fill(satBatch)
			pc.all(batch, fan.RunPackets(batch), nil)
		}
		return pc.finish(inst.stats().RegRMWs-rmw0, true)
	}
	return b.done(inst), nil
}

// ---- serve-mix ----

func buildServeMix(c buildCfg) (*instance, error) {
	b := newBuilder(c)
	type served struct {
		m      *models.Feedforward
		layout trafficgen.Layout
		em     *core.Emitted
		h      *serve.Model
		gen    *trafficgen.PacketGen
	}
	sv := []*served{
		{layout: trafficgen.LayoutStats},
		{layout: trafficgen.LayoutSeq},
		{layout: trafficgen.LayoutSeq},
	}
	for i, mk := range []func(int, *rand.Rand) *models.Feedforward{models.NewMLPB, models.NewCNNB, models.NewCNNM} {
		m, err := b.model(mk)
		if err != nil {
			return nil, err
		}
		sv[i].m = m
		if sv[i].em, err = b.emit(func() (*core.Emitted, error) { return emitPackets(m, c.liveFlows) }); err != nil {
			return nil, err
		}
	}
	var srv *serve.Server
	var regErr error
	b.register(func() {
		srv = serve.NewServer(serve.Options{Name: "serve-mix", Cap: pisa.Tofino2.Pipes(4), Budget: workerBudget})
		for _, s := range sv {
			if s.h, regErr = srv.Register(s.m.Name, s.em, 1, serve.SLO{}); regErr != nil {
				return
			}
		}
	})
	b.cost.regCalls = len(sv)
	if regErr != nil {
		srv.Close()
		return nil, regErr
	}

	inst := &instance{runSpan: "serve.run", srv: srv}
	for i, s := range sv {
		seed := c.seed + 2 + int64(i)
		s.gen = trafficgen.NewPacketGen(b.genCfg(seed), s.layout, 0)
		inst.ems = append(inst.ems, s.em)
		inst.lanes = append(inst.lanes, lane{m: s.m, layout: s.layout, seed: seed})
	}
	pkts := make([]pisa.PacketIn, satBatch)
	batch := pkts
	next, cur := 0, sv[0]
	// Batches go to the models round-robin, each from its own generator.
	inst.fill = func(n int) {
		cur = sv[next%len(sv)]
		next++
		batch = pkts[:n]
		cur.gen.Fill(batch)
	}
	inst.run = func() int { return len(cur.h.RunPackets(batch)) }
	inst.stats = func() pisa.EngineStats {
		var st pisa.EngineStats
		for _, s := range sv {
			st.Add(s.h.Stats())
		}
		return st
	}
	// serve reports a poisoned session only at submission: probe each
	// model with an empty batch.
	inst.poisoned = func() error {
		for _, s := range sv {
			t, err := s.h.SubmitCtx(context.Background(), nil)
			if err != nil {
				return err
			}
			t.Wait()
		}
		return nil
	}
	inst.close = func() { _ = srv.Close() } // nothing in flight: the drain cannot time out
	// A live swap of CNN-M to a fresh emission of the same model, flow
	// state migrated: control-plane writes beside data-plane reads.
	inst.swap = func() (*serve.SwapReport, error) {
		cnnm := sv[2]
		em, err := emitPackets(cnnm.m, c.liveFlows)
		if err != nil {
			return nil, err
		}
		return cnnm.h.Swap(em, serve.SwapOptions{MigrateState: true})
	}
	inst.verify = func() (verdict, error) {
		ms := make([]*models.Feedforward, len(sv))
		for i, s := range sv {
			ms[i] = s.m
		}
		pc, err := newPacketCheck(b.k, ms, c.liveFlows)
		if err != nil {
			return verdict{}, err
		}
		defer pc.close()
		rmw0 := inst.stats().RegRMWs
		// Each model is checked on its own traffic.
		for i, s := range sv {
			trace, labels := labelledTrace(s.em, b.test)
			pc.v.attempted += len(trace)
			pc.lane(i, trace, s.h.RunPackets(trace), labels)
		}
		for n := 0; n < c.verifyPackets; n += len(batch) {
			inst.fill(satBatch)
			pc.v.attempted += len(batch)
			pc.lane((next-1)%len(sv), batch, cur.h.RunPackets(batch), nil)
		}
		return pc.finish(inst.stats().RegRMWs-rmw0, false)
	}
	return b.done(inst), nil
}
