package trafficgen

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// statelessProg builds a small stateless program: out = k + 7,
// class = k & 3. Stateless, so it shards to any worker count.
func statelessProg(t *testing.T) (*pisa.Program, pisa.FieldID, pisa.FieldID, pisa.FieldID) {
	t.Helper()
	var l pisa.Layout
	k := l.MustAdd("k", 16)
	out := l.MustAdd("out", 32)
	class := l.MustAdd("class", 8)
	prog := pisa.NewProgram("stateless", &l, pisa.Tofino2)
	prog.Place(0, &pisa.Table{
		Name: "compute", Kind: pisa.MatchNone, DefaultData: []int32{},
		Action: []pisa.Op{
			{Kind: pisa.OpAddImm, Dst: out, A: k, Imm: 7},
			{Kind: pisa.OpAndImm, Dst: class, A: k, Imm: 3},
		},
	})
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return prog, k, out, class
}

// counterProg builds a small stateful per-packet program: a per-flow
// packet counter banked in a register, firing every 4th packet of a
// flow with out = len + count. The register size is a power of two, so
// the program shards to any worker count dividing it.
func counterProg(t *testing.T, slots int) (*pisa.Program, pisa.PacketMeta, pisa.FieldID, pisa.FieldID) {
	t.Helper()
	var l pisa.Layout
	hash := l.MustAdd("hash", 32)
	length := l.MustAdd("len", 16)
	ts := l.MustAdd("ts", 32)
	slot := l.MustAdd("slot", 32)
	cnt := l.MustAdd("cnt", 32)
	phase := l.MustAdd("phase", 8)
	zero := l.MustAdd("zero", 8) // never written: the counter's no-restart predicate
	one := l.MustAdd("one", 8)
	fire := l.MustAdd("fire", 8)
	out := l.MustAdd("out", 32)
	prog := pisa.NewProgram("counter", &l, pisa.Tofino2)
	reg, err := pisa.NewRegister("pktcnt", 32, slots)
	if err != nil {
		t.Fatal(err)
	}
	ri := prog.AddRegister(reg)
	prog.Place(0, &pisa.Table{
		Name: "count", Kind: pisa.MatchNone, DefaultData: []int32{},
		Action: []pisa.Op{
			{Kind: pisa.OpAndImm, Dst: slot, A: hash, Imm: int32(slots - 1)},
			{Kind: pisa.OpRegCntRestart, Reg: ri, Dst: cnt, A: slot, B: zero},
		},
	})
	// Second stage: derive fire from the counter and the output value.
	prog.Place(1, &pisa.Table{
		Name: "fire", Kind: pisa.MatchNone, DefaultData: []int32{},
		Action: []pisa.Op{
			{Kind: pisa.OpAndImm, Dst: phase, A: cnt, Imm: 3},
			{Kind: pisa.OpSet, Dst: one, Imm: 1},
			{Kind: pisa.OpSelEQI, Dst: fire, A: phase, Imm: 0, B: one},
			{Kind: pisa.OpAdd, Dst: out, A: length, B: cnt},
		},
	})
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return prog, pisa.PacketMeta{Hash: hash, Fields: []pisa.FieldID{length, ts}, Fire: fire}, out, fire
}

// workerCounts returns the worker sweep: 1, 2, 4, NumCPU
// (deduplicated).
func workerCounts() []int {
	counts := []int{1, 2, 4}
	n := runtime.NumCPU()
	have := false
	for _, c := range counts {
		if c == n {
			have = true
		}
	}
	if !have {
		counts = append(counts, n)
	}
	return counts
}

// batchSizes cuts a stream into uneven batches: single jobs (the inline
// path of a solo engine), small and large sharded batches.
var batchSizes = []int{1, 7, 256, 1, 1024, 4096}

// checkStateless fails unless res are the stateless program's results
// for jobs, in job order.
func checkStateless(t *testing.T, tag string, jobs []pisa.Job, res []pisa.Result) {
	t.Helper()
	if len(res) != len(jobs) {
		t.Fatalf("%s: %d results for %d jobs", tag, len(res), len(jobs))
	}
	for i, r := range res {
		wantOut, wantClass := jobs[i].In[0]+7, int(jobs[i].In[0]&3)
		if r.Outs[0] != wantOut || r.Class != wantClass {
			t.Fatalf("%s: result %d = (out %d, class %d), want (%d, %d) — out of order or wrong",
				tag, i, r.Outs[0], r.Class, wantOut, wantClass)
		}
	}
}

// TestJobBatchesInOrderUnderLoad drives a sustained generated job
// stream through back-to-back SubmitBatch/Wait calls of uneven size at
// 1/2/4/NumCPU workers: every result lands at its job's index with the
// right values, and the session counts every job once.
func TestJobBatchesInOrderUnderLoad(t *testing.T) {
	const total = 20000
	tmpl := [][]int32{{3}, {57}, {129}, {200}}
	for _, workers := range workerCounts() {
		prog, k, out, class := statelessProg(t)
		eng := pisa.NewEngine(prog, []pisa.FieldID{k}, []pisa.FieldID{out}, class, workers)
		gen := NewJobGen(Config{Seed: int64(workers), Flows: 1 << 12}, tmpl)
		jobs := gen.Jobs(total)
		for lo, b := 0, 0; lo < total; b++ {
			hi := min(total, lo+batchSizes[b%len(batchSizes)])
			res := eng.SubmitBatch(jobs[lo:hi]).Wait()
			checkStateless(t, fmt.Sprintf("workers=%d batch at %d", workers, lo), jobs[lo:hi], res)
			lo = hi
		}
		if st := eng.Stats(); st.Packets != total {
			t.Fatalf("workers=%d: session counted %d jobs, want %d", workers, st.Packets, total)
		}
		eng.Close()
	}
}

// TestJobFillLoopMatchesJobs pins the generator's batch contract on a
// live engine: refilling one reused batch with Fill after each RunBatch
// draws the same stream as Jobs, and the engine's results over it are
// the same — no result aliases the arena the next Fill overwrites.
func TestJobFillLoopMatchesJobs(t *testing.T) {
	const total, batch = 10000, 512
	tmpl := [][]int32{{11}, {64}, {250}}
	cfg := Config{Seed: 5, Flows: 1 << 8, FlowPackets: Sample{Dist: DistFixed, Mean: 6}}
	prog, k, out, class := statelessProg(t)
	eng := pisa.NewEngine(prog, []pisa.FieldID{k}, []pisa.FieldID{out}, class, 4)
	defer eng.Close()

	jobs := NewJobGen(cfg, tmpl).Jobs(total)
	want := eng.RunBatch(jobs)
	checkStateless(t, "whole stream", jobs, want)

	gen := NewJobGen(cfg, tmpl)
	buf := make([]pisa.Job, batch)
	var got []pisa.Result
	for lo := 0; lo < total; lo += batch {
		b := buf[:min(batch, total-lo)]
		gen.Fill(b)
		for i, j := range b {
			if j.Hash != jobs[lo+i].Hash || j.In[0] != jobs[lo+i].In[0] {
				t.Fatalf("job %d: Fill drew (%d, %v), Jobs (%d, %v)", lo+i, j.Hash, j.In, jobs[lo+i].Hash, jobs[lo+i].In)
			}
		}
		got = append(got, eng.RunBatch(b)...)
	}
	for i := range want {
		if got[i].Outs[0] != want[i].Outs[0] || got[i].Class != want[i].Class {
			t.Fatalf("job %d: Fill loop (out %d, class %d), whole stream (out %d, class %d)",
				i, got[i].Outs[0], got[i].Class, want[i].Outs[0], want[i].Class)
		}
	}
}

// fireRec is one fired inference of the counter program.
type fireRec struct {
	pkt int
	out int32
}

// sequentialFires replays pkts through a fresh counter program one
// packet at a time on the interpreter — the reference every engine run
// is held to.
func sequentialFires(t *testing.T, slots int, pkts []pisa.PacketIn) []fireRec {
	t.Helper()
	prog, meta, out, _ := counterProg(t, slots)
	phv := prog.Layout.NewPHV()
	var want []fireRec
	for i, p := range pkts {
		phv.Reset()
		phv.Set(meta.Hash, int32(p.Hash))
		for d, f := range meta.Fields {
			phv.Set(f, p.Fields[d])
		}
		prog.Process(phv)
		if phv.Get(meta.Fire) != 0 {
			want = append(want, fireRec{pkt: i, out: phv.Get(out)})
		}
	}
	if len(want) == 0 {
		t.Fatal("reference replay fired nothing — test program broken")
	}
	return want
}

// checkFires fails unless got (global packet indices) equals want.
func checkFires(t *testing.T, tag string, got, want []fireRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d fires, sequential replay %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s fire %d: (pkt %d, out %d), sequential (pkt %d, out %d)",
				tag, i, got[i].pkt, got[i].out, want[i].pkt, want[i].out)
		}
	}
}

// TestPacketBatchesMatchSequential replays a sustained generated
// raw-packet stream through the stateful counter program as uneven
// RunPackets batches, at several worker counts and in both exec modes,
// and requires the fired inferences to be bit-identical (index and
// outputs) to a sequential interpreter replay of the same stream.
func TestPacketBatchesMatchSequential(t *testing.T) {
	const slots, total = 64, 20000
	pkts := NewPacketGen(Config{Seed: 99, Flows: 256}, LayoutSeq, 0).Packets(total)
	want := sequentialFires(t, slots, pkts)

	for _, mode := range []pisa.ExecMode{pisa.ExecInterpret, pisa.ExecCompiled} {
		for _, workers := range workerCounts() {
			prog, meta, out, _ := counterProg(t, slots)
			eng := pisa.NewChainEngineMode([]*pisa.Program{prog}, nil, nil, []pisa.FieldID{out}, out, workers, mode)
			eng.ConfigurePackets(meta)
			var got []fireRec
			for lo, b := 0, 0; lo < total; b++ {
				hi := min(total, lo+batchSizes[b%len(batchSizes)])
				for _, r := range eng.RunPackets(pkts[lo:hi]) {
					got = append(got, fireRec{pkt: lo + r.Pkt, out: r.Outs[0]})
				}
				lo = hi
			}
			tag := fmt.Sprintf("%v workers=%d", mode, workers)
			checkFires(t, tag, got, want)
			if st := eng.Stats(); st.Packets != total || st.Fires != uint64(len(want)) {
				t.Fatalf("%s: counted %d packets / %d fires, want %d / %d", tag, st.Packets, st.Fires, total, len(want))
			}
			eng.Close()
		}
	}
}

// TestPacketFillLoopMatchesPackets is the raw-packet twin of
// TestJobFillLoopMatchesJobs: a PacketGen refilling one reused batch
// after each RunPackets feeds the stateful engine the same stream as
// Packets, so its fires match the sequential replay — the engine keeps
// no reference to a batch's fields past the call.
func TestPacketFillLoopMatchesPackets(t *testing.T) {
	const slots, total, batch = 64, 12000, 1000
	cfg := Config{Seed: 17, Flows: 128}
	want := sequentialFires(t, slots, NewPacketGen(cfg, LayoutSeq, 0).Packets(total))

	prog, meta, out, _ := counterProg(t, slots)
	eng := pisa.NewEngine(prog, nil, []pisa.FieldID{out}, out, 4)
	defer eng.Close()
	eng.ConfigurePackets(meta)
	gen := NewPacketGen(cfg, LayoutSeq, 0)
	buf := make([]pisa.PacketIn, batch)
	var got []fireRec
	for lo := 0; lo < total; lo += batch {
		b := buf[:min(batch, total-lo)]
		gen.Fill(b)
		for _, r := range eng.RunPackets(b) {
			got = append(got, fireRec{pkt: lo + r.Pkt, out: r.Outs[0]})
		}
	}
	checkFires(t, "Fill loop", got, want)
}

// TestTwoSessionsShareScheduler runs two engine sessions submitting
// generated batches concurrently on one shared budget-2 scheduler: both
// must finish with every result in order, and both must actually be
// served (neither session's submissions starve).
func TestTwoSessionsShareScheduler(t *testing.T) {
	const total, batch = 30000, 1000
	s := pisa.NewScheduler(2)
	defer s.Close()
	tmpl := [][]int32{{5}, {90}, {177}}

	engines := make([]*pisa.Engine, 2)
	streams := make([][]pisa.Job, 2)
	for si := range engines {
		prog, k, out, class := statelessProg(t)
		engines[si] = s.NewChainEngine(fmt.Sprintf("session-%d", si), []*pisa.Program{prog}, nil,
			[]pisa.FieldID{k}, []pisa.FieldID{out}, class, 1, pisa.ExecCompiled)
		defer engines[si].Close()
		streams[si] = NewJobGen(Config{Seed: int64(100 + si), Flows: 1 << 10}, tmpl).Jobs(total)
	}

	var wg sync.WaitGroup
	for si, eng := range engines {
		wg.Add(1)
		go func(si int, eng *pisa.Engine) {
			defer wg.Done()
			jobs := streams[si]
			for lo := 0; lo < total; lo += batch {
				res := eng.SubmitBatch(jobs[lo : lo+batch]).Wait()
				for i, r := range res {
					if want := jobs[lo+i].In[0] + 7; r.Outs[0] != want {
						t.Errorf("session %d result %d = %d, want %d", si, lo+i, r.Outs[0], want)
						return
					}
				}
			}
		}(si, eng)
	}
	wg.Wait()
	for si, eng := range engines {
		if st := eng.Stats(); st.Packets != total || st.Tasks == 0 {
			t.Fatalf("session %d served %d packets in %d tasks, want %d", si, st.Packets, st.Tasks, total)
		}
	}
	if all := s.Stats(); len(all) != 2 {
		t.Fatalf("scheduler reports %d sessions, want 2", len(all))
	}
}
