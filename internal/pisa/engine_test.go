package pisa

import (
	"math/rand"
	"testing"
)

// engineTestProg builds a two-stage program: a ternary bucket classifier
// into `class`, and a doubling ALU op into `out`.
func engineTestProg(t *testing.T) (*Program, FieldID, FieldID, FieldID) {
	t.Helper()
	var l Layout
	k := l.MustAdd("k", 8)
	out := l.MustAdd("out", 32)
	class := l.MustAdd("class", 8)
	prog := NewProgram("engine-test", &l, Tofino2)
	prog.Place(0, &Table{
		Name: "range", Kind: MatchTernary,
		KeyFields: []FieldID{k}, KeyWidths: []int{8},
		Entries: []Entry{
			{Key: []uint32{0x00}, Mask: []uint32{0x80}, Data: []int32{0}}, // [0,127]
			{Key: []uint32{0x00}, Mask: []uint32{0x00}, Data: []int32{1}}, // rest
		},
		Action:        []Op{{Kind: OpSetData, Dst: class, DataIdx: 0}},
		DataWidthBits: 8,
	})
	prog.Place(1, &Table{
		Name: "double", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpAdd, Dst: out, A: k, B: k}},
	})
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return prog, k, out, class
}

func TestEngineMatchesSequential(t *testing.T) {
	prog, k, out, class := engineTestProg(t)
	rng := rand.New(rand.NewSource(9))
	jobs := make([]Job, 257)
	for i := range jobs {
		jobs[i] = Job{Hash: rng.Uint32(), In: []int32{int32(rng.Intn(256))}}
	}
	// Sequential reference.
	want := make([]Result, len(jobs))
	phv := prog.Layout.NewPHV()
	for i, j := range jobs {
		phv.Reset()
		phv.Set(k, j.In[0])
		prog.Process(phv)
		want[i] = Result{Class: int(phv.Get(class)), Outs: []int32{phv.Get(out)}}
	}
	for _, mode := range []ExecMode{ExecCompiled, ExecInterpret} {
		for _, workers := range []int{0, 1, 2, 3, 8} {
			e := NewChainEngineMode([]*Program{prog}, nil, []FieldID{k}, []FieldID{out}, class, workers, mode)
			if workers > 0 && e.Workers() != workers {
				t.Fatalf("Workers() = %d, want %d", e.Workers(), workers)
			}
			if e.Mode() != mode {
				t.Fatalf("Mode() = %v, want %v", e.Mode(), mode)
			}
			got := e.RunBatch(jobs)
			if len(got) != len(want) {
				t.Fatalf("mode=%v workers=%d: %d results, want %d", mode, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Class != want[i].Class || got[i].Outs[0] != want[i].Outs[0] {
					t.Fatalf("mode=%v workers=%d job %d: got %+v, want %+v", mode, workers, i, got[i], want[i])
				}
			}
			// Batches must be repeatable on the same engine (PHV and
			// shard-buffer reuse across RunBatch calls).
			again := e.RunBatch(jobs)
			for i := range again {
				if again[i].Class != got[i].Class || again[i].Outs[0] != got[i].Outs[0] {
					t.Fatalf("mode=%v workers=%d: second batch diverged at %d", mode, workers, i)
				}
			}
			e.Close()
			e.Close() // idempotent
		}
	}
}

// TestRunBatchResultsSurviveLaterBatches pins the window path's
// retention contract: every batch gets a fresh result arena, so the
// results of a batch — inline single jobs and multi-shard batches alike
// — stay valid while later batches run on the same engine, and a job
// stream cut into uneven batches matches one whole-stream batch.
func TestRunBatchResultsSurviveLaterBatches(t *testing.T) {
	prog, k, out, class := engineTestProg(t)
	rng := rand.New(rand.NewSource(23))
	jobs := make([]Job, 2000)
	for i := range jobs {
		jobs[i] = Job{Hash: rng.Uint32(), In: []int32{int32(rng.Intn(256))}}
	}
	for _, mode := range []ExecMode{ExecCompiled, ExecInterpret} {
		for _, workers := range []int{1, 4} {
			e := NewChainEngineMode([]*Program{prog}, nil, []FieldID{k}, []FieldID{out}, class, workers, mode)
			var kept [][]Result
			for lo := 0; lo < len(jobs); {
				hi := min(len(jobs), lo+1+rng.Intn(300))
				if rng.Intn(4) == 0 {
					hi = lo + 1 // a single job runs inline on a solo engine
				}
				kept = append(kept, e.RunBatch(jobs[lo:hi]))
				lo = hi
			}
			want := e.RunBatch(jobs)
			e.Close()
			i := 0
			for _, res := range kept {
				for _, r := range res {
					if r.Class != want[i].Class || r.Outs[0] != want[i].Outs[0] || r.Outs[0] != 2*jobs[i].In[0] {
						t.Fatalf("mode=%v workers=%d job %d: kept %+v, whole %+v (overwritten by a later batch?)",
							mode, workers, i, r, want[i])
					}
					i++
				}
			}
			if i != len(jobs) {
				t.Fatalf("mode=%v workers=%d: %d results kept, want %d", mode, workers, i, len(jobs))
			}
		}
	}
}

// TestEngineClampsWorkersToRegisterSizes checks the stateful-program
// guard: the pool shrinks until it divides every register array size,
// so shards own disjoint hash-congruent cell sets.
func TestEngineClampsWorkersToRegisterSizes(t *testing.T) {
	var l Layout
	k := l.MustAdd("k", 8)
	prog := NewProgram("regs", &l, Tofino2)
	r6, err := NewRegister("r6", 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := NewRegister("r4", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog.AddRegister(r6)
	prog.AddRegister(r4)
	// Largest w ≤ 8 dividing both 6 and 4 is 2.
	e := NewEngine(prog, []FieldID{k}, nil, k, 8)
	if e.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", e.Workers())
	}
	e.Close()
	// Register-free programs keep the requested pool.
	free := NewProgram("stateless", &l, Tofino2)
	e = NewEngine(free, []FieldID{k}, nil, k, 8)
	if e.Workers() != 8 {
		t.Fatalf("stateless Workers() = %d, want 8", e.Workers())
	}
	e.Close()
}

// TestChainEngineMatchesSingle runs a computation split across two
// bridged programs and checks the chain engine agrees with the same
// computation emitted as one program, across worker counts.
func TestChainEngineMatchesSingle(t *testing.T) {
	// Single program: out = (a + b) << 1, class = 1 when out >= 16.
	var ls Layout
	a := ls.MustAdd("a", 8)
	b := ls.MustAdd("b", 8)
	sum := ls.MustAdd("sum", 16)
	out := ls.MustAdd("out", 16)
	class := ls.MustAdd("class", 8)
	sixteen := ls.MustAdd("sixteen", 16)
	single := NewProgram("single", &ls, Tofino2)
	single.Place(0, &Table{Name: "add", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpAdd, Dst: sum, A: a, B: b}, {Kind: OpSet, Dst: sixteen, Imm: 16}}})
	single.Place(1, &Table{Name: "shift", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpShl, Dst: out, A: sum, Imm: 1}}})
	single.Place(2, &Table{Name: "cls", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpSelGE, Dst: class, A: out, B: sixteen, Imm: 1}}})
	if err := single.Validate(); err != nil {
		t.Fatal(err)
	}

	// Chain: pipe 0 computes the sum, pipe 1 receives it over a bridge
	// and finishes.
	var l0 Layout
	a0 := l0.MustAdd("a", 8)
	b0 := l0.MustAdd("b", 8)
	sum0 := l0.MustAdd("sum", 16)
	p0 := NewProgram("pipe0", &l0, Tofino2)
	p0.Place(0, &Table{Name: "add", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpAdd, Dst: sum0, A: a0, B: b0}}})
	var l1 Layout
	br := l1.MustAdd("br", 16)
	out1 := l1.MustAdd("out", 16)
	class1 := l1.MustAdd("class", 8)
	sixteen1 := l1.MustAdd("sixteen", 16)
	p1 := NewProgram("pipe1", &l1, Tofino2)
	p1.Place(0, &Table{Name: "shift", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpShl, Dst: out1, A: br, Imm: 1}, {Kind: OpSet, Dst: sixteen1, Imm: 16}}})
	p1.Place(1, &Table{Name: "cls", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpSelGE, Dst: class1, A: out1, B: sixteen1, Imm: 1}}})
	for _, p := range []*Program{p0, p1} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(17))
	jobs := make([]Job, 301)
	for i := range jobs {
		jobs[i] = Job{Hash: rng.Uint32(), In: []int32{int32(rng.Intn(32)), int32(rng.Intn(32))}}
	}
	refEng := NewEngine(single, []FieldID{a, b}, []FieldID{out}, class, 1)
	ref := refEng.RunBatch(jobs)
	refEng.Close()
	for _, mode := range []ExecMode{ExecCompiled, ExecInterpret} {
		for _, workers := range []int{1, 2, 4, 8} {
			chain := NewChainEngineMode([]*Program{p0, p1},
				[]Bridge{{From: []FieldID{sum0}, To: []FieldID{br}}},
				[]FieldID{a0, b0}, []FieldID{out1}, class1, workers, mode)
			got := chain.RunBatch(jobs)
			for i := range got {
				if got[i].Class != ref[i].Class || got[i].Outs[0] != ref[i].Outs[0] {
					t.Fatalf("mode=%v workers=%d job %d: chain %+v, single %+v", mode, workers, i, got[i], ref[i])
				}
			}
			chain.Close()
		}
	}
}

func TestEngineEmptyBatch(t *testing.T) {
	prog, k, out, class := engineTestProg(t)
	e := NewEngine(prog, []FieldID{k}, []FieldID{out}, class, 4)
	defer e.Close()
	if res := e.RunBatch(nil); len(res) != 0 {
		t.Fatalf("empty batch: %d results", len(res))
	}
}

// TestEngineShardedRegisterConsistency checks the per-flow guarantee: a
// program accumulating into a register cell indexed by the flow slot
// produces the same final register state batched as sequentially,
// because all packets of one flow land on one shard in order.
func TestEngineShardedRegisterConsistency(t *testing.T) {
	const workers = 4
	const slots = workers // slot i is only touched by shard i%workers
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

	rng := rand.New(rand.NewSource(11))
	jobs := make([]Job, 400)
	for i := range jobs {
		s := uint32(rng.Intn(slots))
		jobs[i] = Job{Hash: s, In: []int32{int32(s), int32(rng.Intn(100))}}
	}
	// Sequential reference register state.
	phv := prog.Layout.NewPHV()
	for _, j := range jobs {
		phv.Reset()
		phv.Set(slot, j.In[0])
		phv.Set(v, j.In[1])
		prog.Process(phv)
	}
	want := make([]int32, slots)
	for s := 0; s < slots; s++ {
		want[s] = reg.Get(s)
	}
	reg.Reset()

	e := NewEngine(prog, []FieldID{slot, v}, []FieldID{acc}, acc, workers)
	defer e.Close()
	e.RunBatch(jobs)
	for s := 0; s < slots; s++ {
		if reg.Get(s) != want[s] {
			t.Fatalf("slot %d: batched %d, sequential %d", s, reg.Get(s), want[s])
		}
	}
}
