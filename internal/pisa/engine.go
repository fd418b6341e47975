package pisa

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pegasus-idp/pegasus/internal/faultinject"
)

// ExecMode selects how the engine executes each pipeline program.
type ExecMode int

const (
	// ExecCompiled replays packets over CompiledProgram plans — the
	// default: zero-allocation specialised lookups, bit-identical to
	// the interpreter.
	ExecCompiled ExecMode = iota
	// ExecInterpret replays packets through Program.Process, the
	// reference interpreter. Kept for differential testing and as the
	// baseline the benchmark reports compare against.
	ExecInterpret
)

func (m ExecMode) String() string {
	if m == ExecInterpret {
		return "interpreted"
	}
	return "compiled"
}

// Engine executes a compiled program over batches of packets, sharded
// by flow hash. The real switch processes packets in a hardware
// pipeline; the simulator's single-packet Process loop leaves every
// other core idle, so replaying a trace is CPU-bound on one goroutine.
// The engine restores the missing parallelism without changing
// semantics: packets are partitioned by Job.Hash (the five-tuple hash
// used to index per-flow register arrays), each shard is processed in
// arrival order with a private reusable PHV, and all accesses to one
// flow's state stay on one shard — per-flow read-modify-write ordering
// is exactly the sequential ordering.
//
// An Engine is a session handle over a Scheduler: the scheduler owns
// the worker pool, the engine owns the program chain, the per-shard
// PHVs and the per-worker task mailboxes. NewEngine/NewChainEngineMode
// construct a private solo scheduler whose budget equals the shard
// count — the historical one-engine-one-pool behaviour, bit for bit.
// Registering several engines on one shared Scheduler instead serves
// all of them from a single fixed worker budget with weighted fair
// draining and per-model stats — concurrent multi-model serving. Close
// releases the session (and stops the pool when the engine owns it);
// an engine must not be used after Close.
//
// The result path is built for multi-core batches: each shard task
// writes its classes and output vectors into a private dense region
// (cache-line gaps between regions, so two workers never write the
// same line), and the job-order view is produced by a parallel
// per-shard scatter (RunBatch) or a cursor merge over the shards' fire
// staging (RunPackets) — no interleaved cross-core writes on the hot
// loop. Serving stats are likewise striped per worker and only
// folded together when Stats is read.
//
// For the per-flow guarantee to extend to stateful programs, register
// cells touched by different shards must be disjoint. Under the
// dataplane convention that register indices are flow-hash derived
// (cell = Hash % Size), construction enforces it structurally: the
// shard count is reduced until it divides every register array size, so
// cell ≡ Hash (mod shards) and each shard owns the cells congruent to
// its own index. Programs that compute register indices from anything
// other than the sharding hash must run with one shard.
// Multi-pipeline emissions (e.g. the Tofino multi-pipe target) are a
// chain of programs connected by Bridges: the engine processes each
// packet through every program in order, copying the bridged PHV fields
// between consecutive pipes, so batched replay over a split program
// classifies bit-identically to the single-pipe emission.
//
// Raw-packet replay (ConfigurePackets) is fire-sliced on compiled
// engines: the chain is cut once, at plan time, at the start of its
// stateless tail — the longest suffix of pipe 0's plan units plus every
// later pipe in which no unit accesses a register or writes the fire
// field. Every packet runs the prefix (the extraction state machines);
// only the packets that raise fire run the tail (the inference), which
// is 1 packet in Window. ConfigurePackets states why that is
// unobservable; there is no option to turn it off, and ExecInterpret
// engines — the reference the differential tests compare against — run
// every table on every packet.
//
// A packet-configured engine may also carry fan-out subscribers (see
// Fanout): register-free chains that each shard task runs, after its
// packets, over the windows they fired.
type Engine struct {
	name    string
	progs   []*Program
	plans   []*CompiledProgram // one per pipe, shared read-only by shards
	bridges []Bridge
	in      []FieldID // input fields, in progs[0]'s layout
	out     []FieldID // output fields, in the final program's layout
	class   FieldID   // class field, in the final program's layout
	shards  int
	mode    ExecMode
	phvs    [][]*PHV // [shard][pipe], reused across batches

	sched    *Scheduler
	ownSched bool         // solo scheduler, closed with the engine
	weight   atomic.Int32 // fair-share weight; retunable live (SetWeight)

	// Scheduler session state. slots[w] is this session's single-task
	// mailbox at worker w (one outstanding batch ⇒ at most one queued
	// task per worker), claimed lock-free by owner and stealers alike;
	// affinity[s] is the stable shard→worker route. See workerSlot.
	slots    []workerSlot
	affinity []int32

	// Batch completion: remaining counts the batch's unfinished shard
	// tasks; the worker that takes it to zero closes *batchDone — ONE
	// submitter wake-up per batch instead of a WaitGroup broadcast per
	// task. batchDone is swung to a fresh channel by every dispatch.
	remaining atomic.Int32
	batchDone atomic.Pointer[chan struct{}]

	seq       []int      // reused sequential index for 1-shard batches
	shardIdx  [][]int    // reused per-shard job index buffers
	shardRes  []shardRes // reused per-shard dense fire staging (packet path)
	mergeCur  []int      // reused per-shard merge cursors
	closeOnce sync.Once

	// Overload protection (see ShedPolicy/SubmitBatchCtx): bounds are
	// stored atomically so the serving layer can retune them live, and
	// poisoned records the first plan panic isolated to this session.
	shedMaxQueue atomic.Int32
	shedMaxWait  atomic.Int64
	stWaitEWMA   atomic.Int64 // recent mean queue wait (exponentially weighted)
	poisoned     atomic.Pointer[poisonInfo]

	// Per-model serving stats, striped per worker: stats[w] is worker
	// w's private shard, stats[budget] the submitter's (inline runs,
	// sheds, fires, depth samples). Folded together by Stats.
	stats []statShard

	// Per-packet replay state (ConfigurePackets).
	meta *PacketMeta
	// split is where the chain divides into the units every packet runs
	// and the stateless tail only fired packets run; cut is the same
	// point as a unit index into plans[0].
	split PlanSplit
	cut   int
	// shape is what the chain's plans lowered to (tables only on
	// ExecInterpret engines, which have no plan).
	shape PlanShape
	// subs are the fan-out subscribers, in subscription order (changed
	// only by Fanout, between runs).
	subs []*subscriber
}

// PlanSplit reports how an engine divides its program chain between
// the packets of a raw trace: PerPacket units run on every packet,
// PerFire units — the stateless tail — only on the packets that raise
// PacketMeta.Fire, and TailPipes of the chain's later pipes lie wholly
// inside that tail. Units are plan units (one specialised table, one
// merged run of always-tables, one load run or one gate family — the
// tables gated == on one field count as the one dispatch unit they run
// as, and a family with a stateful member is PerPacket as a whole) on
// ExecCompiled engines and tables on ExecInterpret engines, which slice
// nothing: everything is PerPacket. The same holds for engines without
// ConfigurePackets, where every job is a whole window and runs the
// whole chain.
//
// Counters attached to tables later (ROADMAP 4(a)'s per-table hit
// counters) inherit the split: in compiled mode a tail table counts
// once per fired window, not once per packet; only the interpreter
// counts every table on every packet.
type PlanSplit struct {
	PerPacket int
	PerFire   int
	TailPipes int
}

func (s PlanSplit) String() string {
	return fmt.Sprintf("%d per-packet units / %d per-fire units / %d pipes in the tail", s.PerPacket, s.PerFire, s.TailPipes)
}

// shardRes is one shard's dense fire staging for the per-packet path:
// parallel arrays of the packet index, class and output vector of every
// fired window, appended in packet order by the one worker running the
// shard. Each shard appends only to its own arrays (separate heap
// allocations, padded struct), so the hot loop never writes a cache
// line another worker writes. The arrays are reused across batches —
// RunPackets results alias them, exactly the documented
// overwritten-by-the-next-call contract.
type shardRes struct {
	fireIdx   []int32
	fireClass []int32
	fireOuts  []int32 // flat, len(e.out) per fire
	// regRMWs accumulates the register read-modify-writes this shard's
	// tasks have executed (delta-captured around each run by the one
	// worker holding the shard, folded into Stats atomically). Lives here
	// rather than in the worker stat stripes because RMWs are attributed
	// by shard, and a stolen task must still land its count on the
	// session that owns the registers.
	regRMWs atomic.Uint64
	_       [48]byte
}

func (r *shardRes) reset() {
	r.fireIdx, r.fireClass, r.fireOuts = r.fireIdx[:0], r.fireClass[:0], r.fireOuts[:0]
}

// stage appends one fire: packet pkt's class and outputs, read from the
// chain's final PHV values.
func (r *shardRes) stage(pkt int32, vals []int32, class FieldID, out []FieldID) {
	r.fireIdx = append(r.fireIdx, pkt)
	r.fireClass = append(r.fireClass, vals[class])
	for _, f := range out {
		r.fireOuts = append(r.fireOuts, vals[f])
	}
}

// densePad is the gap (in int32s) left between two shards' regions of
// a batch's dense arena — one 64-byte cache line, so the writer of one
// region's tail and the writer of the next region's head never share a
// line.
const densePad = 16

// shardTask is one batch's work for one shard: the job (or raw-packet)
// indices the shard owns plus the buffers its results land in. dense is
// the shard's private region of the batch arena (job path; class +
// outs, stride len(e.out)+1 per job); res is the job-order result slice
// a trailing per-shard scatter fills. The packet path stages into the
// engine's shardRes instead.
type shardTask struct {
	shard int
	jobs  []Job
	res   []Result
	dense []int32
	idx   []int
	enq   time.Time // enqueue stamp; the worker derives the queue wait

	// Per-packet replay (RunPackets): pkts is non-nil, fires land in
	// e.shardRes[shard].
	pkts []PacketIn
}

// Bridge carries PHV values between two chained pipeline programs: the
// value of From[i] in the upstream program's PHV is written to To[i] in
// the downstream program's PHV before it processes the packet. On real
// hardware this is bridged metadata travelling with the packet from
// ingress to egress (or over a recirculation/inter-pipe link).
type Bridge struct {
	From []FieldID
	To   []FieldID
}

// Job is one packet of a batch: the input-field values and the flow hash
// that selects its shard. Packets sharing a Hash are processed in batch
// order relative to each other; for stateless programs any key
// assignment works, and spreading keys evenly maximises parallelism.
type Job struct {
	Hash uint32
	In   []int32
}

// PacketMeta names the PHV handles of a program whose inputs are raw
// packets rather than pre-extracted feature windows. All fields live in
// the first (ingress) pipe's layout: the extraction state machines run
// there, banking per-flow state in registers and raising Fire on the
// packet that completes a window.
type PacketMeta struct {
	// Hash receives the packet's flow hash; the program derives the
	// register slot from it (slot = hash & (flows-1)).
	Hash FieldID
	// Fields receive the raw per-packet values, in the order the
	// emission documents (direction/length/timestamp for stat
	// extraction, length/timestamp for sequences, payload bytes for
	// payload models).
	Fields []FieldID
	// Fire is set non-zero by the program when this packet completed a
	// feature window and the inference result is valid. Compiled engines
	// read it as soon as the last unit that can write it (or touch a
	// register) has run, and skip the rest of the chain when it is zero.
	Fire FieldID
}

// PacketIn is one raw packet of a trace replay: the flow hash that
// selects its shard and register slot, and the per-packet field values
// in PacketMeta.Fields order.
type PacketIn struct {
	Hash   uint32
	Fields []int32
}

// PacketResult is one fired inference: the index of the packet that
// completed the window, plus the class and output vector the pipeline
// produced for it.
type PacketResult struct {
	Pkt   int
	Class int
	Outs  []int32
}

// Result is one packet's outputs: the class-field value and the
// output-field vector, in the same order as the jobs.
type Result struct {
	Class int
	Outs  []int32
}

// NewEngine builds an engine over a single program with the given I/O
// fields. workers ≤ 0 selects GOMAXPROCS. When prog has stateful
// registers, the shard count is reduced to the largest value dividing
// every register size (see the Engine contract above); register sizes
// are powers of two in practice, so this keeps a power-of-two pool.
func NewEngine(prog *Program, in, out []FieldID, class FieldID, workers int) *Engine {
	return NewChainEngine([]*Program{prog}, nil, in, out, class, workers)
}

// NewChainEngine builds a compiled-plan engine over a chain of programs
// connected by bridges (len(bridges) == len(progs)-1). The in fields
// live in the first program's layout; out and class in the last one's.
// Shard-count reduction considers the registers of every program in
// the chain.
func NewChainEngine(progs []*Program, bridges []Bridge, in, out []FieldID, class FieldID, workers int) *Engine {
	return NewChainEngineMode(progs, bridges, in, out, class, workers, ExecCompiled)
}

// NewChainEngineMode is NewChainEngine with an explicit execution mode.
// The engine owns a private solo scheduler sized to its shard count, so
// behaviour (and results) are identical to the historical per-engine
// worker pool.
func NewChainEngineMode(progs []*Program, bridges []Bridge, in, out []FieldID, class FieldID, workers int, mode ExecMode) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := reduceShards(workers, progs)
	s := NewScheduler(shards)
	e := s.newSession("", 1, progs, bridges, in, out, class, shards, mode)
	e.ownSched = true
	return e
}

// newSession builds and registers an engine session on the scheduler.
func (s *Scheduler) newSession(name string, weight int, progs []*Program, bridges []Bridge, in, out []FieldID, class FieldID, shards int, mode ExecMode) *Engine {
	if len(progs) == 0 {
		panic("pisa: chain engine needs at least one program")
	}
	if len(bridges) != len(progs)-1 {
		panic("pisa: chain engine needs one bridge per consecutive program pair")
	}
	if weight < 1 {
		weight = 1
	}
	e := &Engine{name: name, progs: progs, bridges: bridges, in: in, out: out, class: class,
		shards: shards, mode: mode, sched: s}
	e.weight.Store(int32(weight))
	// One contiguous shard-banked slab per program: each worker's flow
	// state becomes a dense private range instead of strides across
	// per-register allocations.
	for _, p := range progs {
		p.CompactRegisters(shards)
	}
	if mode == ExecCompiled {
		e.plans = make([]*CompiledProgram, len(progs))
		for k, p := range progs {
			e.plans[k] = CompileProgram(p)
			e.shape.add(e.plans[k].Shape())
		}
		e.split.PerPacket = e.shape.Units
	} else {
		for _, p := range progs {
			for _, st := range p.Stages {
				e.shape.Tables += len(st.Tables)
			}
		}
		e.split.PerPacket = e.shape.Tables
	}
	e.phvs = make([][]*PHV, shards)
	e.shardIdx = make([][]int, shards)
	e.shardRes = make([]shardRes, shards)
	e.mergeCur = make([]int, shards)
	for sh := range e.phvs {
		e.phvs[sh] = e.newPHVs()
	}
	s.register(e)
	return e
}

// newPHVs allocates one PHV per pipe of the chain.
func (e *Engine) newPHVs() []*PHV {
	phvs := make([]*PHV, len(e.progs))
	for k, p := range e.progs {
		phvs[k] = p.Layout.NewPHV()
	}
	return phvs
}

// Close releases the engine's scheduler session; when the engine owns a
// solo scheduler the pool is stopped and waited for. The engine must
// not be used after Close. Close is idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.sched.unregister(e)
		if e.ownSched {
			e.sched.Close()
		}
	})
}

// Workers returns the shard count (the engine's maximum intra-batch
// parallelism; the serving parallelism is bounded by the scheduler
// budget).
func (e *Engine) Workers() int { return e.shards }

// Name returns the session label given at registration (empty for solo
// engines).
func (e *Engine) Name() string { return e.name }

// Scheduler returns the scheduler serving this engine.
func (e *Engine) Scheduler() *Scheduler { return e.sched }

// Stats snapshots the session's cumulative serving counters, folding
// the per-worker stripes together. Counts are read in two passes —
// Tasks/Packets first, histograms second — so a concurrent scrape
// observes ΣWaitHist ≥ Tasks (each task's histogram bucket is bumped
// before its task counter), never the reverse.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{Name: e.name, Weight: int(e.weight.Load())}
	for i := range e.stats {
		sh := &e.stats[i]
		st.Tasks += sh.tasks.Load()
		st.Packets += sh.packets.Load()
		st.Fires += sh.fires.Load()
		st.Shed += sh.shed.Load()
		st.ShedBatches += sh.shedBatches.Load()
		st.Busy += time.Duration(sh.busy.Load())
		st.Wait += time.Duration(sh.wait.Load())
	}
	for i := range e.stats {
		sh := &e.stats[i]
		for b := range st.WaitHist {
			st.WaitHist[b] += sh.waitHist[b].Load()
			st.QueueHist[b] += sh.queueHist[b].Load()
		}
	}
	for i := range e.shardRes {
		st.RegRMWs += e.shardRes[i].regRMWs.Load()
	}
	return st
}

// Weight returns the session's current fair-share weight.
func (e *Engine) Weight() int { return int(e.weight.Load()) }

// SetWeight retunes the session's fair-share weight live (< 1 is
// clamped to 1); it takes effect on the next scheduling decision. This
// is the hook an SLO feedback loop drives: raising a lagging model's
// weight shrinks the stride charged per served packet, growing its
// share of the pool.
func (e *Engine) SetWeight(w int) {
	if w < 1 {
		w = 1
	}
	e.weight.Store(int32(w))
}

// selfSlot is the stat stripe index of submitter-side accounting
// (inline fast-path runs, sheds, fires, depth samples).
func (e *Engine) selfSlot() int { return len(e.stats) - 1 }

// note accounts one executed shard task on stat stripe slot.
func (e *Engine) note(slot, packets int, busy time.Duration) {
	sh := &e.stats[slot]
	sh.tasks.Add(1)
	sh.packets.Add(uint64(packets))
	sh.busy.Add(int64(busy))
}

// noteWait accounts one served task's queue wait on stripe slot and
// folds it into the recent-wait EWMA the shed policy's deadline check
// reads. The EWMA update is a lossy load/store pair by design:
// concurrent workers may drop an update, which only slows convergence
// of a statistic.
func (e *Engine) noteWait(slot int, wait time.Duration) {
	if wait < 0 {
		wait = 0
	}
	sh := &e.stats[slot]
	sh.wait.Add(int64(wait))
	sh.waitHist[waitBucket(wait)].Add(1)
	old := e.stWaitEWMA.Load()
	e.stWaitEWMA.Store(old + (int64(wait)-old)/8)
}

// noteShed accounts one shed submission of n packets.
func (e *Engine) noteShed(n int) {
	sh := &e.stats[e.selfSlot()]
	sh.shed.Add(uint64(n))
	sh.shedBatches.Add(1)
}

// noteFires accounts n fired windows of one per-packet batch.
func (e *Engine) noteFires(n int) {
	e.stats[e.selfSlot()].fires.Add(uint64(n))
}

// noteDepth samples the queue depth one enqueued task observed (other
// sessions already queued at its worker).
func (e *Engine) noteDepth(depth int) {
	if depth >= StatBuckets {
		depth = StatBuckets - 1
	}
	e.stats[e.selfSlot()].queueHist[depth].Add(1)
}

// ResetState restores every register of every chained program to its
// initial value — a fresh flow table for the next trace replay. Must
// not overlap with a running batch.
func (e *Engine) ResetState() {
	for _, p := range e.progs {
		p.ResetState()
	}
}

// Mode returns the engine's execution mode.
func (e *Engine) Mode() ExecMode { return e.mode }

// inline reports whether a batch of n packets should run on the caller
// goroutine: solo engines keep the historical fast path for one-shard
// pools and single-packet batches. Engines on a shared scheduler always
// queue, so the worker budget and the fairness policy apply.
func (e *Engine) inline(n int) bool {
	return e.ownSched && (e.shards == 1 || n == 1)
}

// runTask executes one shard task with panic isolation: a panicking
// compiled plan (or interpreter table) fails the task — its result
// entries stay zero-valued (the job path's scatter never runs over the
// zeroed arena; the packet path's fire staging was reset at dispatch)
// — and poisons only this session, never the pool. Both the worker
// loop and the inline fast path run tasks through here, so the
// isolation (and the injectable slow-plan / panicking-plan faults)
// behave identically in solo and shared serving. A packet task then runs
// the fan-out subscribers, each under its own recover.
func (e *Engine) runTask(t shardTask) {
	defer func() {
		if r := recover(); r != nil {
			e.poison(r)
		}
	}()
	e.faults()
	if t.pkts == nil {
		e.runShard(t.shard, t.jobs, t.res, t.dense, t.idx)
		return
	}
	e.runPacketShard(t.shard, t.pkts, t.idx)
	for _, s := range e.subs {
		s.run(&e.shardRes[t.shard], len(e.out), t.shard)
	}
}

// faults fires the session's injectable slow-plan and panicking-plan
// faults, keyed by its name.
func (e *Engine) faults() {
	if !faultinject.Enabled() {
		return
	}
	if d := faultinject.Delay(faultinject.SlowSession, e.name); d > 0 {
		time.Sleep(d)
	}
	if faultinject.Should(faultinject.PanicSession, e.name) {
		panic("faultinject: injected plan panic")
	}
}

// runInline runs one task covering the whole batch on the caller
// goroutine, accounted as a zero-wait task on the submitter's stripe.
func (e *Engine) runInline(t shardTask) {
	start := time.Now()
	e.noteWait(e.selfSlot(), 0)
	e.noteDepth(0)
	e.runTask(t)
	e.note(e.selfSlot(), len(t.idx), time.Since(start))
}

// shardIndices partitions n items by flow hash (shard = hash mod
// shards) into the reused per-shard index buffers and returns the
// number of non-empty shards.
func (e *Engine) shardIndices(n int, hash func(int) uint32) int {
	for s := range e.shardIdx {
		e.shardIdx[s] = e.shardIdx[s][:0]
	}
	for i := 0; i < n; i++ {
		s := int(hash(i) % uint32(e.shards))
		e.shardIdx[s] = append(e.shardIdx[s], i)
	}
	cnt := 0
	for s := 0; s < e.shards; s++ {
		if len(e.shardIdx[s]) > 0 {
			cnt++
		}
	}
	return cnt
}

// armBatch swings batchDone to a fresh channel and arms the remaining
// counter for cnt shard tasks. Must happen before the first publish.
func (e *Engine) armBatch(cnt int) {
	done := make(chan struct{})
	e.batchDone.Store(&done)
	e.remaining.Store(int32(cnt))
}

// waitBatch parks the submitter until the outstanding batch's last
// shard task closes the batch's done channel — one wake-up per batch.
// Safe to call with no batch outstanding.
func (e *Engine) waitBatch() {
	if e.remaining.Load() == 0 {
		return
	}
	done := e.batchDone.Load()
	if done == nil {
		return
	}
	// The batch may have completed between the two loads; re-check so a
	// late waiter does not block on a channel already swung to (and not
	// yet closed for) a successor batch.
	if e.remaining.Load() == 0 {
		return
	}
	<-*done
}

// submitJobs shards jobs, allocates the batch's dense arena (one
// cache-line-padded region per non-empty shard, class + outputs
// interleaved at stride len(e.out)+1), and publishes the shard tasks
// WITHOUT waiting. The arena is freshly allocated per batch — results
// that alias it (Result.Outs) stay valid after the next submission,
// preserving the historical retention semantics.
func (e *Engine) submitJobs(jobs []Job, res []Result) {
	cnt := e.shardIndices(len(jobs), func(i int) uint32 { return jobs[i].Hash })
	stride := len(e.out) + 1
	total := 0
	for _, idx := range e.shardIdx {
		if len(idx) > 0 {
			total += len(idx)*stride + densePad
		}
	}
	arena := make([]int32, total)
	e.armBatch(cnt)
	now := time.Now()
	off := 0
	for s, idx := range e.shardIdx {
		if len(idx) == 0 {
			continue
		}
		n := len(idx) * stride
		e.sched.publish(e, shardTask{shard: s, jobs: jobs, res: res, dense: arena[off : off+n], idx: idx, enq: now})
		off += n + densePad
	}
	if cnt < e.sched.budget {
		e.sched.wakeIdle()
	}
}

// submitPackets shards a raw-packet batch and publishes the shard tasks
// WITHOUT waiting.
func (e *Engine) submitPackets(pkts []PacketIn) {
	cnt := e.shardIndices(len(pkts), func(i int) uint32 { return pkts[i].Hash })
	e.armBatch(cnt)
	now := time.Now()
	for s := 0; s < e.shards; s++ {
		if len(e.shardIdx[s]) == 0 {
			continue
		}
		e.sched.publish(e, shardTask{shard: s, pkts: pkts, idx: e.shardIdx[s], enq: now})
	}
	if cnt < e.sched.budget {
		e.sched.wakeIdle()
	}
}

// Pending is one submitted batch in flight on the scheduler: the
// non-blocking half of a RunBatch. Wait blocks until every shard task
// has been served and returns the results in job order; it may be
// called once or many times, from the submitter or another goroutine.
type Pending struct {
	e    *Engine
	res  []Result
	done bool
}

// Wait blocks until the submitted batch has fully executed and returns
// its results in job order.
func (p *Pending) Wait() []Result {
	if !p.done {
		p.e.waitBatch()
		p.done = true
	}
	return p.res
}

// Err reports whether the session was poisoned by a plan panic: after
// Wait, a non-nil Err means the batch's results are not trustworthy
// (the panicked shard's entries are zero-valued).
func (p *Pending) Err() error { return p.e.Poisoned() }

// SubmitBatch enqueues a batch on the scheduler and returns without
// waiting for it — the non-blocking submission API: one driver can keep
// several models' queues full by submitting to each engine and then
// collecting the Pending results. The engine's single-outstanding-batch
// contract still applies — the caller must Wait (or Drain) before the
// next submission on the same engine. Small batches on solo engines run
// inline and return an already-completed Pending.
func (e *Engine) SubmitBatch(jobs []Job) *Pending {
	res := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return &Pending{e: e, res: res, done: true}
	}
	if e.inline(len(jobs)) {
		dense := make([]int32, len(jobs)*(len(e.out)+1))
		e.runInline(shardTask{jobs: jobs, res: res, dense: dense, idx: e.seqIdx(len(jobs))})
		return &Pending{e: e, res: res, done: true}
	}
	e.submitJobs(jobs, res)
	return &Pending{e: e, res: res}
}

// Drain blocks until the engine's outstanding batch (if any) has fully
// executed — the quiesce hook a control plane uses before swapping or
// retiring a session. Drain does not prevent NEW submissions; the
// caller must stop submitting first (the serving layer holds its
// per-model submission lock across drain + swap).
func (e *Engine) Drain() {
	e.waitBatch()
}

// RunBatch pushes every job through the program concurrently and returns
// the results in job order. Calls must not overlap: the engine owns one
// PHV per shard and a second concurrent batch would race on them (one
// engine per goroutine, or one RunBatch at a time).
func (e *Engine) RunBatch(jobs []Job) []Result {
	return e.SubmitBatch(jobs).Wait()
}

// ConfigurePackets enables the per-packet replay path: RunPackets and
// RunPacketsCtx feed raw packets into meta's fields and collect an
// inference result whenever the program raises meta.Fire. The meta
// fields must live in the first pipe's layout (the extraction state
// machines of a multi-pipe emission always run in pipe 0).
//
// On ExecCompiled engines it also fixes the fire-sliced split of the
// chain. Extraction runs on every packet but inference is wanted once
// per window, and the fused emission puts both in one chain; so the
// chain — pipe 0's plan units followed by every later pipe — is cut at
// the start of its stateless tail: the longest suffix in which no unit
// performs a register access or writes meta.Fire. Every packet runs
// the prefix; the engine then reads meta.Fire and runs the tail only
// when it is raised. A later pipe that owns a register op puts the cut
// at the end of the chain (nothing is skipped and that register sees
// every packet). Skipping the tail on a non-firing packet changes
// nothing observable: the tail writes no register, so flow state and
// RegRMWs are untouched; it cannot change the fire flag, which is
// final once the prefix has run; what it writes to the PHV is zeroed
// by the per-packet Reset before the next packet reads it; and the
// engine reads class and outputs on fired packets only, where the tail
// did run. ExecInterpret engines slice nothing — the interpreter runs
// every table of every pipe on every packet and stays the reference
// the compiled split is tested against.
func (e *Engine) ConfigurePackets(meta PacketMeta) {
	m := meta
	e.meta = &m
	if e.mode == ExecInterpret {
		e.cut = 1 // pipe 0 runs whole, as its one unit (see runChain)
		return
	}
	// Recomputed from the whole-chain unit count, so reconfiguring with
	// another meta starts clean.
	total := e.split.PerPacket + e.split.PerFire
	units0 := len(e.plans[0].units)
	e.cut = e.plans[0].statelessFrom(meta.Fire)
	tail := PlanSplit{PerFire: units0 - e.cut}
	for _, cp := range e.plans[1:] {
		if cp.statelessFrom(noField) != 0 {
			e.cut, tail = units0, PlanSplit{}
			break
		}
		tail.PerFire += len(cp.units)
		tail.TailPipes++
	}
	tail.PerPacket = total - tail.PerFire
	e.split = tail
}

// PlanSplit returns the engine's per-packet / per-fire division of its
// program chain.
func (e *Engine) PlanSplit() PlanSplit { return e.split }

// PlanShape returns what the engine's program chain lowered to, summed
// over its pipes (see PlanShape).
func (e *Engine) PlanShape() PlanShape { return e.shape }

// RunPackets pushes a trace of raw packets through the program chain:
// every packet updates the flow-state registers; packets that complete
// a feature window additionally produce an inference result. Results
// are returned in packet order, one per fired packet: each shard
// appends its fires to a private padded staging buffer, and the
// packet-order view is a min-index cursor merge over the shards'
// buffers — no shared flags or flat output buffer written across
// cores. Packets are sharded by flow hash exactly like RunBatch jobs,
// so all state of one flow is touched by one worker in arrival order;
// state persists across calls (use the programs' ResetState to start a
// fresh trace). Calls must not overlap with other runs on the same
// engine, and the returned Outs slices alias per-engine staging that
// the NEXT RunPackets call overwrites — copy them to retain results
// across calls. The engine must have been configured with
// ConfigurePackets.
func (e *Engine) RunPackets(pkts []PacketIn) []PacketResult {
	if e.meta == nil {
		panic("pisa: RunPackets on an engine without ConfigurePackets")
	}
	if len(pkts) == 0 {
		return nil
	}
	e.runPackets(pkts)
	return e.mergeFires(e.shardRes, len(e.out))
}

// runPackets replays a non-empty batch, inline or as one task per
// non-empty shard, leaving the machine's and subscribers' fires in
// their staging — reset first, so a panicked or skipped shard adds
// none.
func (e *Engine) runPackets(pkts []PacketIn) {
	for s := range e.shardRes {
		e.shardRes[s].reset()
		for _, sub := range e.subs {
			sub.res[s].reset()
		}
	}
	if e.inline(len(pkts)) {
		e.runInline(shardTask{pkts: pkts, idx: e.seqIdx(len(pkts))})
	} else {
		e.submitPackets(pkts)
		e.waitBatch()
	}
	n := 0
	for s := range e.shardRes {
		n += len(e.shardRes[s].fireIdx)
	}
	e.noteFires(n)
}

// mergeFires returns the fires staged in res (per shard, w outputs
// each) in packet order, nil when none fired: take the shard whose next
// fire has the smallest packet index, O(shards) per fire. Outs alias
// the staging.
func (e *Engine) mergeFires(res []shardRes, w int) []PacketResult {
	n := 0
	for s := range res {
		n += len(res[s].fireIdx)
	}
	if n == 0 {
		return nil
	}
	out := make([]PacketResult, 0, n)
	cur := e.mergeCur
	clear(cur)
	for len(out) < n {
		bs := -1
		var bi int32
		for s := range res {
			if sr := &res[s]; cur[s] < len(sr.fireIdx) {
				if v := sr.fireIdx[cur[s]]; bs < 0 || v < bi {
					bs, bi = s, v
				}
			}
		}
		sr, k := &res[bs], cur[bs]
		cur[bs]++
		out = append(out, PacketResult{Pkt: int(bi), Class: int(sr.fireClass[k]), Outs: sr.fireOuts[k*w : (k+1)*w : (k+1)*w]})
	}
	return out
}

// runPacketShard replays the given packet indices in order on shard s's
// PHVs, appending an inference record to the shard's private fire
// staging for every packet whose fire field is raised by pipe 0.
// Compiled engines run the chain's per-packet prefix, read fire, and
// run the stateless tail on fired packets only (see ConfigurePackets);
// the interpreter runs the whole chain on every packet.
func (e *Engine) runPacketShard(s int, pkts []PacketIn, idx []int) {
	phvs := e.phvs[s]
	sr := &e.shardRes[s]
	interp := e.mode == ExecInterpret
	hash, fields, fireF := e.meta.Hash, e.meta.Fields, e.meta.Fire
	cut, sliced := e.cut, e.split.PerFire > 0
	rmw0 := phvRMWs(phvs)
	for _, i := range idx {
		// The engine's fields, the packet's values and the PHV's vector
		// are loop constants: hoisted, they are not reloaded through
		// their headers for every field of every packet.
		phv, pkt := phvs[0], &pkts[i]
		vals, in := phv.Vals, pkt.Fields
		clear(vals)
		vals[hash] = int32(pkt.Hash)
		for d, f := range fields {
			vals[f] = in[d]
		}
		if interp {
			e.progs[0].Process(phv)
		} else {
			e.plans[0].processRange(phv, 0, cut)
		}
		fire := vals[fireF] != 0
		if !fire && sliced {
			continue
		}
		last := e.runChain(phvs, cut)
		if fire {
			sr.stage(int32(i), last.Vals, e.class, e.out)
		}
	}
	sr.regRMWs.Add(phvRMWs(phvs) - rmw0)
}

// runWindow loads one window into the chain's input fields, runs the
// whole chain and returns the last pipe's PHV values.
func (e *Engine) runWindow(phvs []*PHV, in []int32) []int32 {
	vals := phvs[0].Vals
	clear(vals)
	for d, f := range e.in {
		vals[f] = in[d]
	}
	return e.runChain(phvs, 0).Vals
}

// runChain runs pipe 0 from plan unit `from` on, then every later pipe
// behind its bridge, and returns the last pipe's PHV — for window jobs,
// fired packets' tails and subscribers alike. An interpreter engine runs
// a pipe as one unit, so its from is 0 or 1.
func (e *Engine) runChain(phvs []*PHV, from int) *PHV {
	interp := e.mode == ExecInterpret
	phv := phvs[0]
	if !interp {
		e.plans[0].processRange(phv, from, len(e.plans[0].procs))
	} else if from == 0 {
		e.progs[0].Process(phv)
	}
	for k := 1; k < len(e.progs); k++ {
		next := phvs[k]
		next.Reset()
		br := &e.bridges[k-1]
		for b, f := range br.From {
			next.Set(br.To[b], phv.Get(f))
		}
		if interp {
			e.progs[k].Process(next)
		} else {
			e.plans[k].Process(next)
		}
		phv = next
	}
	return phv
}

// phvRMWs sums the monotonic per-PHV RMW counters of one shard's pipe
// PHVs; deltas of this sum around a task attribute its register work.
func phvRMWs(phvs []*PHV) uint64 {
	n := uint64(0)
	for _, p := range phvs {
		n += p.RegRMWs
	}
	return n
}

// runShard processes the given job indices in order on shard s's PHVs,
// chaining each packet through every program of the pipeline. Results
// land in the shard's private dense region (class + outputs, stride
// len(e.out)+1 per job) — the hot loop writes no cache line another
// worker writes. The shard then scatters its own jobs' entries into the
// job-order slice: a short parallel merge, each shard touching only its
// own indices.
func (e *Engine) runShard(s int, jobs []Job, res []Result, dense []int32, idx []int) {
	phvs := e.phvs[s]
	stride := len(e.out) + 1
	out, class := e.out, e.class
	rmw0 := phvRMWs(phvs)
	for k, i := range idx {
		rec, vals := dense[k*stride:(k+1)*stride:(k+1)*stride], e.runWindow(phvs, jobs[i].In)
		rec[0] = vals[class]
		for d, f := range out {
			rec[1+d] = vals[f]
		}
	}
	e.shardRes[s].regRMWs.Add(phvRMWs(phvs) - rmw0)
	for k, i := range idx {
		off := k * stride
		res[i] = Result{Class: int(dense[off]), Outs: dense[off+1 : off+stride : off+stride]}
	}
}

// seqIdx returns the reused [0..n) index slice for single-shard batches.
func (e *Engine) seqIdx(n int) []int {
	for len(e.seq) < n {
		e.seq = append(e.seq, len(e.seq))
	}
	return e.seq[:n]
}
