package pisa

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pegasus-idp/pegasus/internal/faultinject"
)

// sharedEngines registers n engines over fresh copies of the standard
// test program on one scheduler.
func sharedEngines(t *testing.T, s *Scheduler, n int, mode ExecMode) ([]*Engine, FieldID, FieldID, FieldID) {
	t.Helper()
	var engines []*Engine
	var k, out, class FieldID
	for i := 0; i < n; i++ {
		prog, kf, of, cf := engineTestProg(t)
		k, out, class = kf, of, cf
		engines = append(engines, s.NewChainEngine("m", []*Program{prog}, nil,
			[]FieldID{kf}, []FieldID{of}, cf, 1, mode))
	}
	return engines, k, out, class
}

// TestSchedulerSharedMatchesSolo pins the tentpole's equivalence
// contract: an engine registered on a shared multi-model scheduler
// classifies bit-identically to a solo engine over the same program.
func TestSchedulerSharedMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	jobs := make([]Job, 513)
	for i := range jobs {
		jobs[i] = Job{Hash: rng.Uint32(), In: []int32{int32(rng.Intn(256))}}
	}
	soloProg, k, out, class := engineTestProg(t)
	solo := NewEngine(soloProg, []FieldID{k}, []FieldID{out}, class, 4)
	want := solo.RunBatch(jobs)
	solo.Close()

	for _, mode := range []ExecMode{ExecCompiled, ExecInterpret} {
		s := NewScheduler(4)
		engines, _, _, _ := sharedEngines(t, s, 3, mode)
		// Replay the same batch on every co-resident engine, concurrently.
		var wg sync.WaitGroup
		results := make([][]Result, len(engines))
		for ei, e := range engines {
			wg.Add(1)
			go func(ei int, e *Engine) {
				defer wg.Done()
				results[ei] = e.RunBatch(jobs)
			}(ei, e)
		}
		wg.Wait()
		for ei, res := range results {
			for i := range res {
				if res[i].Class != want[i].Class || res[i].Outs[0] != want[i].Outs[0] {
					t.Fatalf("mode=%v engine %d job %d: shared %+v, solo %+v", mode, ei, i, res[i], want[i])
				}
			}
		}
		for _, e := range engines {
			e.Close()
		}
		s.Close()
	}
}

// TestSchedulerStats checks the per-model serving counters: packets and
// tasks accumulate per session, and Scheduler.Stats reports every
// registered model.
func TestSchedulerStats(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	progA, k, out, class := engineTestProg(t)
	a := s.NewChainEngine("model-a", []*Program{progA}, nil, []FieldID{k}, []FieldID{out}, class, 2, ExecCompiled)
	defer a.Close()
	progB, k2, out2, class2 := engineTestProg(t)
	b := s.NewChainEngine("model-b", []*Program{progB}, nil, []FieldID{k2}, []FieldID{out2}, class2, 1, ExecCompiled)
	defer b.Close()

	jobs := make([]Job, 100)
	for i := range jobs {
		jobs[i] = Job{Hash: uint32(i), In: []int32{int32(i % 256)}}
	}
	a.RunBatch(jobs)
	a.RunBatch(jobs)
	b.RunBatch(jobs[:40])

	as, bs := a.Stats(), b.Stats()
	if as.Name != "model-a" || as.Weight != 2 {
		t.Fatalf("model-a stats identity: %+v", as)
	}
	if as.Packets != 200 {
		t.Fatalf("model-a served %d packets, want 200", as.Packets)
	}
	if bs.Packets != 40 {
		t.Fatalf("model-b served %d packets, want 40", bs.Packets)
	}
	if as.Tasks == 0 || bs.Tasks == 0 {
		t.Fatalf("tasks not counted: a=%d b=%d", as.Tasks, bs.Tasks)
	}
	all := s.Stats()
	if len(all) != 2 || all[0].Name != "model-a" || all[1].Name != "model-b" {
		t.Fatalf("scheduler stats = %+v", all)
	}
}

// TestSchedulerFairnessNoStarvation is the starvation guard: with one
// model replaying a 100× larger trace on the same shared budget, the
// small model must keep making progress and finish long before the
// large one — weighted fair draining may not let the big queue
// monopolise the pool.
func TestSchedulerFairnessNoStarvation(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	progBig, k, out, class := engineTestProg(t)
	big := s.NewChainEngine("big", []*Program{progBig}, nil, []FieldID{k}, []FieldID{out}, class, 1, ExecCompiled)
	defer big.Close()
	progSmall, k2, out2, class2 := engineTestProg(t)
	small := s.NewChainEngine("small", []*Program{progSmall}, nil, []FieldID{k2}, []FieldID{out2}, class2, 1, ExecCompiled)
	defer small.Close()

	rng := rand.New(rand.NewSource(37))
	mkJobs := func(n int) []Job {
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{Hash: rng.Uint32(), In: []int32{int32(rng.Intn(256))}}
		}
		return jobs
	}
	const iters = 50
	bigJobs := mkJobs(20000) // 100× the small model's trace
	smallJobs := mkJobs(200)

	var bigRunning atomic.Bool
	bigRunning.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < iters; i++ {
			big.RunBatch(bigJobs)
		}
		bigRunning.Store(false)
	}()
	// The small model replays its trace while the big one saturates the
	// pool; count how many of its batches complete while the big model
	// still has work in flight — a starving scheduler would park them
	// all until the big replay drains.
	interleaved := 0
	for i := 0; i < iters; i++ {
		small.RunBatch(smallJobs)
		if bigRunning.Load() {
			interleaved++
		}
	}
	<-done

	bs, ss := big.Stats(), small.Stats()
	if bs.Packets != uint64(iters*len(bigJobs)) {
		t.Fatalf("big model served %d packets, want %d", bs.Packets, iters*len(bigJobs))
	}
	if ss.Packets != uint64(iters*len(smallJobs)) {
		t.Fatalf("small model served %d packets, want %d", ss.Packets, iters*len(smallJobs))
	}
	if interleaved < iters/10 {
		t.Fatalf("only %d/%d small batches completed while the 100× model was replaying — starved by the shared pool",
			interleaved, iters)
	}
}

// TestSchedulerStealsSparseShards covers the work-stealing path: a
// session whose register sizes clamp it to fewer shards than the pool
// budget queues tasks on only some workers, and the idle workers must
// steal them — with results still bit-identical to a solo replay.
func TestSchedulerStealsSparseShards(t *testing.T) {
	const slots = 2 // register size 2 clamps shards to 2 on a budget-4 pool
	build := func() (*Program, *Register, FieldID, FieldID) {
		var l Layout
		slot := l.MustAdd("slot", 16)
		v := l.MustAdd("v", 32)
		acc := l.MustAdd("acc", 32)
		prog := NewProgram("sparse", &l, Tofino2)
		reg, err := NewRegister("state", 32, slots)
		if err != nil {
			t.Fatal(err)
		}
		ri := prog.AddRegister(reg)
		prog.Place(0, &Table{
			Name: "accumulate", Kind: MatchNone, DefaultData: []int32{},
			Action: []Op{{Kind: OpRegAdd, Reg: ri, Dst: acc, A: slot, B: v}},
		})
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		_ = v
		return prog, reg, slot, acc
	}
	rng := rand.New(rand.NewSource(41))
	jobs := make([]Job, 500)
	for i := range jobs {
		s := uint32(rng.Intn(slots))
		jobs[i] = Job{Hash: s, In: []int32{int32(s), int32(rng.Intn(100))}}
	}

	refProg, refReg, _, _ := build()
	refPHV := refProg.Layout.NewPHV()
	for _, j := range jobs {
		refPHV.Reset()
		refPHV.Set(FieldID(0), j.In[0])
		refPHV.Set(FieldID(1), j.In[1])
		refProg.Process(refPHV)
	}

	s := NewScheduler(4)
	defer s.Close()
	prog, reg, slotF, accF := build()
	eng := s.NewChainEngine("sparse", []*Program{prog}, nil,
		[]FieldID{slotF, FieldID(1)}, []FieldID{accF}, accF, 1, ExecCompiled)
	defer eng.Close()
	if eng.Workers() != slots {
		t.Fatalf("shards = %d, want %d (clamped below the budget)", eng.Workers(), slots)
	}
	for iter := 0; iter < 20; iter++ { // repeat so stealing actually happens
		eng.RunBatch(jobs)
	}
	for sl := 0; sl < slots; sl++ {
		if got, want := reg.Get(sl), refReg.Get(sl)*20; got != want {
			t.Fatalf("slot %d: sharded state %d, sequential %d", sl, got, want)
		}
	}
}

// TestSchedulerSharedStatefulConsistency extends the per-flow register
// guarantee to shared pools: two stateful engines replay concurrently
// on one scheduler, and each ends with exactly the sequential register
// state (shard tasks of one engine never interleave within a flow).
func TestSchedulerSharedStatefulConsistency(t *testing.T) {
	const slots = 4
	build := func() (*Program, *Register, FieldID, FieldID, FieldID) {
		var l Layout
		slot := l.MustAdd("slot", 16)
		v := l.MustAdd("v", 32)
		acc := l.MustAdd("acc", 32)
		prog := NewProgram("flows", &l, Tofino2)
		reg, err := NewRegister("state", 32, slots)
		if err != nil {
			t.Fatal(err)
		}
		ri := prog.AddRegister(reg)
		prog.Place(0, &Table{
			Name: "accumulate", Kind: MatchNone, DefaultData: []int32{},
			Action: []Op{{Kind: OpRegAdd, Reg: ri, Dst: acc, A: slot, B: v}},
		})
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		return prog, reg, slot, v, acc
	}
	rng := rand.New(rand.NewSource(13))
	jobs := make([]Job, 600)
	for i := range jobs {
		s := uint32(rng.Intn(slots))
		jobs[i] = Job{Hash: s, In: []int32{int32(s), int32(rng.Intn(100))}}
	}

	// Sequential reference.
	refProg, refReg, slot, v, _ := build()
	phv := refProg.Layout.NewPHV()
	for _, j := range jobs {
		phv.Reset()
		phv.Set(slot, j.In[0])
		phv.Set(v, j.In[1])
		refProg.Process(phv)
	}
	want := make([]int32, slots)
	for s := 0; s < slots; s++ {
		want[s] = refReg.Get(s)
	}

	s := NewScheduler(4)
	defer s.Close()
	type inst struct {
		eng *Engine
		reg *Register
	}
	var insts []inst
	for i := 0; i < 2; i++ {
		prog, reg, slotF, vF, accF := build()
		eng := s.NewChainEngine("stateful", []*Program{prog}, nil,
			[]FieldID{slotF, vF}, []FieldID{accF}, accF, 1, ExecCompiled)
		defer eng.Close()
		insts = append(insts, inst{eng, reg})
	}
	var wg sync.WaitGroup
	for _, in := range insts {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			e.RunBatch(jobs)
		}(in.eng)
	}
	wg.Wait()
	for ii, in := range insts {
		for sl := 0; sl < slots; sl++ {
			if got := in.reg.Get(sl); got != want[sl] {
				t.Fatalf("engine %d slot %d: shared-pool state %d, sequential %d", ii, sl, got, want[sl])
			}
		}
	}
}

// TestSchedulerWaitDepthStats pins the serving-stats extensions: every
// served task lands in exactly one wait bucket and one queue-depth
// bucket (ΣWaitHist == Tasks == ΣQueueHist), the cumulative wait is
// consistent with the histogram, and the weight column tracks live
// SetWeight retuning.
func TestSchedulerWaitDepthStats(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	prog, k, out, class := engineTestProg(t)
	e := s.NewChainEngine("m", []*Program{prog}, nil, []FieldID{k}, []FieldID{out}, class, 1, ExecCompiled)
	defer e.Close()

	jobs := make([]Job, 300)
	for i := range jobs {
		jobs[i] = Job{Hash: uint32(i), In: []int32{int32(i % 256)}}
	}
	for i := 0; i < 10; i++ {
		e.RunBatch(jobs)
	}
	st := e.Stats()
	var waits, depths uint64
	for i := 0; i < StatBuckets; i++ {
		waits += st.WaitHist[i]
		depths += st.QueueHist[i]
	}
	if waits != st.Tasks {
		t.Fatalf("ΣWaitHist = %d, Tasks = %d", waits, st.Tasks)
	}
	if depths != st.Tasks {
		t.Fatalf("ΣQueueHist = %d, Tasks = %d", depths, st.Tasks)
	}
	if st.Wait < 0 {
		t.Fatalf("negative cumulative wait %v", st.Wait)
	}
	if st.MeanWait() < 0 {
		t.Fatalf("negative mean wait %v", st.MeanWait())
	}

	if e.Weight() != 1 {
		t.Fatalf("initial weight %d, want 1", e.Weight())
	}
	e.SetWeight(7)
	if got := e.Stats().Weight; got != 7 {
		t.Fatalf("weight after SetWeight(7) = %d", got)
	}
	e.SetWeight(0) // clamped
	if got := e.Weight(); got != 1 {
		t.Fatalf("weight after SetWeight(0) = %d, want 1 (clamped)", got)
	}

	// Accumulation helper used across version swaps.
	var acc EngineStats
	acc.Add(st)
	acc.Add(st)
	if acc.Tasks != 2*st.Tasks || acc.Packets != 2*st.Packets || acc.Wait != 2*st.Wait {
		t.Fatalf("EngineStats.Add: %+v vs base %+v", acc, st)
	}
}

// TestSubmitBatchAsync covers the non-blocking submission API: one
// driver saturates two sessions by submitting to both before waiting,
// results match RunBatch, and Drain quiesces an outstanding batch.
func TestSubmitBatchAsync(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	progA, k, out, class := engineTestProg(t)
	a := s.NewChainEngine("a", []*Program{progA}, nil, []FieldID{k}, []FieldID{out}, class, 1, ExecCompiled)
	defer a.Close()
	progB, k2, out2, class2 := engineTestProg(t)
	b := s.NewChainEngine("b", []*Program{progB}, nil, []FieldID{k2}, []FieldID{out2}, class2, 1, ExecCompiled)
	defer b.Close()

	rng := rand.New(rand.NewSource(5))
	jobs := make([]Job, 400)
	for i := range jobs {
		jobs[i] = Job{Hash: rng.Uint32(), In: []int32{int32(rng.Intn(256))}}
	}
	want := a.RunBatch(jobs)

	for iter := 0; iter < 20; iter++ {
		pa := a.SubmitBatch(jobs)
		pb := b.SubmitBatch(jobs) // both queues full before either wait
		ra, rb := pa.Wait(), pb.Wait()
		for i := range want {
			if ra[i].Class != want[i].Class || ra[i].Outs[0] != want[i].Outs[0] {
				t.Fatalf("async a diverged at %d: %+v vs %+v", i, ra[i], want[i])
			}
			if rb[i].Class != want[i].Class || rb[i].Outs[0] != want[i].Outs[0] {
				t.Fatalf("async b diverged at %d: %+v vs %+v", i, rb[i], want[i])
			}
		}
		if again := pa.Wait(); &again[0] != &ra[0] {
			t.Fatalf("second Wait returned a different result slice")
		}
	}

	// Drain from a third goroutine quiesces the outstanding batch.
	p := a.SubmitBatch(jobs)
	done := make(chan struct{})
	go func() {
		a.Drain()
		close(done)
	}()
	<-done
	res := p.Wait()
	if len(res) != len(jobs) {
		t.Fatalf("drained batch lost results: %d/%d", len(res), len(jobs))
	}
	if p := a.SubmitBatch(nil); len(p.Wait()) != 0 {
		t.Fatal("empty submit")
	}
}

// TestStealUnderWorkerStalls hammers the lock-free claim/steal path:
// on a budget-4 pool with three co-resident sessions, a rotating
// faultinject stall wedges a different worker each round while all
// sessions submit concurrently. Peers must steal the QUEUED mailbox
// slots parked behind the wedged worker, every batch must stay
// bit-identical to a solo replay, and the striped packet counters must
// account for every packet exactly. Run under -race this also checks
// the mailbox CAS protocol and the eventcount park/wake for data races.
func TestStealUnderWorkerStalls(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(97))
	jobs := make([]Job, 257)
	for i := range jobs {
		jobs[i] = Job{Hash: rng.Uint32(), In: []int32{int32(rng.Intn(256))}}
	}
	soloProg, k, out, class := engineTestProg(t)
	solo := NewEngine(soloProg, []FieldID{k}, []FieldID{out}, class, 4)
	want := solo.RunBatch(jobs)
	solo.Close()

	s := NewScheduler(4)
	defer s.Close()
	s.StartWatchdog(5 * time.Millisecond)
	engines, _, _, _ := sharedEngines(t, s, 3, ExecCompiled)
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()

	const rounds = 20
	for round := 0; round < rounds; round++ {
		// Wedge one worker by id for this round; two shots so the stall
		// re-fires after the first steal re-routes around it.
		faultinject.Arm(faultinject.WorkerStall, strconv.Itoa(round%4), time.Millisecond, 2)
		var wg sync.WaitGroup
		results := make([][]Result, len(engines))
		for ei, e := range engines {
			wg.Add(1)
			go func(ei int, e *Engine) {
				defer wg.Done()
				results[ei] = e.RunBatch(jobs)
			}(ei, e)
		}
		wg.Wait()
		for ei, res := range results {
			for i := range res {
				if res[i].Class != want[i].Class || res[i].Outs[0] != want[i].Outs[0] {
					t.Fatalf("round %d engine %d job %d: got %+v, want %+v", round, ei, i, res[i], want[i])
				}
			}
		}
	}
	faultinject.Reset()

	// Striped stats must account for every packet of every round, and
	// the wait histogram must cover exactly one entry per shard task.
	for ei, e := range engines {
		st := e.Stats()
		if st.Packets != uint64(rounds*len(jobs)) {
			t.Fatalf("engine %d Packets = %d, want %d", ei, st.Packets, rounds*len(jobs))
		}
		var hist uint64
		for _, b := range st.WaitHist {
			hist += b
		}
		if hist != st.Tasks {
			t.Fatalf("engine %d wait histogram sums to %d, want Tasks=%d", ei, hist, st.Tasks)
		}
	}
}
