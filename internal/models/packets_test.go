package models

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// packetFlows returns test flows whose register slots are collision
// free for the given flow-table size, so host-side per-flow extraction
// and the shared-slot dataplane state agree exactly.
func packetFlows(t *testing.T, flows []netsim.Flow, slots uint32) []netsim.Flow {
	t.Helper()
	seen := map[uint32]bool{}
	var out []netsim.Flow
	for _, f := range flows {
		s := f.Tuple.Hash() & (slots - 1)
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, f)
	}
	if len(out) < 8 {
		t.Fatalf("only %d collision-free flows", len(out))
	}
	return out
}

// fireExpectation is one expected inference: the packet index in the
// merged stream that completes a window, and the class (or output
// vector) host-side extraction + RunSwitch computes for it.
type fireExpectation struct {
	pkt   int
	class int
	outs  []int32
}

func roundInts(x []float64) []int32 {
	v := make([]int32, len(x))
	for j, f := range x {
		v[j] = int32(math.RoundToEven(f))
	}
	return v
}

// expectStats builds the expected fires of the stats machine: every
// Window-th packet of a flow fires with the cumulative flow statistics
// over the packets so far.
func expectStats(em *core.Emitted, stream []netsim.StreamPacket) []fireExpectation {
	counts := map[*netsim.Flow]int{}
	var exp []fireExpectation
	for i, sp := range stream {
		counts[sp.Flow]++
		n := counts[sp.Flow]
		if n%Window != 0 {
			continue
		}
		cls, outs := em.RunSwitch(roundInts(netsim.StatFeatures(sp.Flow, n)))
		exp = append(exp, fireExpectation{pkt: i, class: cls, outs: outs})
	}
	return exp
}

// expectSeq builds the expected fires of the sequence machine: window k
// of a flow fires on its Window·(k+1)-th packet with that window's
// interleaved len/IPD buckets.
func expectSeq(em *core.Emitted, stream []netsim.StreamPacket) []fireExpectation {
	counts := map[*netsim.Flow]int{}
	wins := map[*netsim.Flow][]netsim.SeqWindow{}
	var exp []fireExpectation
	for i, sp := range stream {
		counts[sp.Flow]++
		n := counts[sp.Flow]
		if n%Window != 0 {
			continue
		}
		w, ok := wins[sp.Flow]
		if !ok {
			w = netsim.SeqWindows(sp.Flow, Window)
			wins[sp.Flow] = w
		}
		cls, outs := em.RunSwitch(roundInts(w[n/Window-1].SeqFeatures()))
		exp = append(exp, fireExpectation{pkt: i, class: cls, outs: outs})
	}
	return exp
}

// registerBanks copies the final contents of every register of every
// pipe of em.
func registerBanks(em *core.Emitted) [][]int32 {
	var banks [][]int32
	for _, p := range em.Programs() {
		for _, r := range p.Registers {
			cells := make([]int32, r.Size)
			for c := range cells {
				cells[c] = r.Get(c)
			}
			banks = append(banks, cells)
		}
	}
	return banks
}

// checkFires replays the merged trace through the packet engine in both
// execution modes and requires the fired packets and their results to
// match the host-side expectation bit for bit. The interpreter runs
// every table on every packet while compiled plans run their stateless
// tail on fired packets only, so the two modes must also agree on the
// register RMW count and on every final register cell: skipping the
// tail leaves flow state untouched.
func checkFires(t *testing.T, name string, em *core.Emitted, stream []netsim.StreamPacket,
	exp []fireExpectation, checkClass bool) {
	t.Helper()
	jobs := PacketJobs(em, stream)
	var refRMWs uint64
	var refBanks [][]int32
	for _, mode := range []pisa.ExecMode{pisa.ExecInterpret, pisa.ExecCompiled} {
		eng := em.NewPacketEngine(4, mode)
		eng.ResetState()
		res := eng.RunPackets(jobs)
		rmws, banks := eng.Stats().RegRMWs, registerBanks(em)
		eng.Close()
		if len(res) != len(exp) {
			t.Fatalf("%s [%v]: %d fires, host expects %d", name, mode, len(res), len(exp))
		}
		for i, r := range res {
			e := exp[i]
			if r.Pkt != e.pkt {
				t.Fatalf("%s [%v]: fire %d at packet %d, host expects packet %d", name, mode, i, r.Pkt, e.pkt)
			}
			if checkClass && r.Class != e.class {
				t.Fatalf("%s [%v]: packet %d class %d, host expects %d", name, mode, r.Pkt, r.Class, e.class)
			}
			if e.outs != nil {
				for j := range e.outs {
					if r.Outs[j] != e.outs[j] {
						t.Fatalf("%s [%v]: packet %d out[%d] = %d, host expects %d",
							name, mode, r.Pkt, j, r.Outs[j], e.outs[j])
					}
				}
			}
		}
		if mode == pisa.ExecInterpret {
			refRMWs, refBanks = rmws, banks
			continue
		}
		if rmws != refRMWs {
			t.Fatalf("%s: compiled plans executed %d register RMWs, interpreter %d", name, rmws, refRMWs)
		}
		for r := range refBanks {
			for c, want := range refBanks[r] {
				if banks[r][c] != want {
					t.Fatalf("%s: register %d cell %d = %d after compiled replay, interpreter left %d",
						name, r, c, banks[r][c], want)
				}
			}
		}
	}
}

// TestPacketPathMatchesHostExtraction is the end-to-end acceptance test
// of the per-packet engine path: for every model family, feeding the
// raw merged trace through the extraction emission yields exactly the
// classifications of host-side StatFeatures/SeqWindows extraction
// followed by RunSwitch, in both execution modes.
func TestPacketPathMatchesHostExtraction(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(41))
	const flowTable = 1 << 16
	flows := packetFlows(t, test, flowTable)
	stream := netsim.Merge(flows)

	// MLP-B: the stats machine. The plain emission already fills the
	// 20-stage pipe, so the packet emission splits across the two-pipe
	// target with extraction staying in pipe 0.
	mlp := NewMLPB(k, rng)
	mlp.Train(train, TrainOpts{Epochs: 4, Seed: 41})
	if err := mlp.Compile(train); err != nil {
		t.Fatal(err)
	}
	plain, err := mlp.Emit(flowTable)
	if err != nil {
		t.Fatal(err)
	}
	tgt, _ := core.LookupTarget("tofino-multipipe")
	mlp.pipe.Opts.Emit.Target = tgt
	emp, err := mlp.EmitPackets(flowTable)
	if err != nil {
		t.Fatal(err)
	}
	if len(emp.More) == 0 {
		t.Fatalf("MLP-B packet emission fit one pipe (%d stages); expected a split", emp.Stages)
	}
	checkFires(t, "MLP-B", emp, stream, expectStats(plain, stream), true)

	// CNN-B and CNN-M: the sequence machine through the generic
	// feed-forward emission.
	for _, mk := range []func(int, *rand.Rand) *Feedforward{NewCNNB, NewCNNM} {
		m := mk(k, rng)
		m.Train(train, TrainOpts{Epochs: 3, Seed: 41})
		if err := m.Compile(train); err != nil {
			t.Fatal(err)
		}
		plain, err := m.Emit(flowTable)
		if err != nil {
			t.Fatal(err)
		}
		emp, err := m.EmitPackets(flowTable)
		if err != nil {
			t.Fatal(err)
		}
		checkFires(t, m.Name, emp, stream, expectSeq(plain, stream), true)
	}
}

// TestPacketPathRNNMultiPipe runs RNN-B's packet path on the two-pipe
// Tofino target: the extraction machine plus eight RNN steps overflow
// one pipe, so the emission splits with extraction staying in pipe 0
// and the engine reading the fire flag there while classifying in the
// final pipe.
func TestPacketPathRNNMultiPipe(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(43))
	const flowTable = 1 << 16
	flows := packetFlows(t, test, flowTable)
	stream := netsim.Merge(flows)

	rnn := NewRNNB(k, rng)
	rnn.Train(train, TrainOpts{Epochs: 2, LR: 0.02, Seed: 43})
	if err := rnn.Compile(train); err != nil {
		t.Fatal(err)
	}
	plain, err := rnn.Emit(flowTable)
	if err != nil {
		t.Fatal(err)
	}
	tgt, _ := core.LookupTarget("tofino-multipipe")
	rnn.pipe.Opts.Emit.Target = tgt
	emp, err := rnn.EmitPackets(flowTable)
	if err != nil {
		t.Fatal(err)
	}
	if len(emp.More) == 0 {
		t.Fatalf("RNN-B packet emission fit one pipe (%d stages); expected a multi-pipe split", emp.Stages)
	}
	if len(emp.Prog.Registers) == 0 {
		t.Fatal("extraction registers not in pipe 0")
	}
	for _, p := range emp.More {
		if len(p.Registers) != 0 {
			t.Fatal("extraction registers leaked into a later pipe")
		}
	}
	checkFires(t, "RNN-B", emp, stream, expectSeq(plain, stream), true)
}

// TestPacketPathCNNL runs the payload family end to end: the per-packet
// phase computes each packet's fuzzy index, the window phase banks it
// in the per-flow position registers, and the window-completing packet
// restores the bank and classifies — matching RunSwitchWindow's
// host-driven banking over the plain emission.
func TestPacketPathCNNL(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(47))
	const flowTable = 1 << 16
	flows := packetFlows(t, test, flowTable)
	stream := netsim.Merge(flows)

	for _, useIPD := range []bool{false, true} {
		m := NewCNNL(k, useIPD, 4, rng)
		m.Train(train, TrainOpts{Epochs: 1, LR: 0.01, Seed: 47})
		if err := m.Compile(train, 400); err != nil {
			t.Fatal(err)
		}
		plain, err := m.Emit(flowTable)
		if err != nil {
			t.Fatal(err)
		}
		emp, err := m.EmitPackets(flowTable)
		if err != nil {
			t.Fatal(err)
		}
		// Host expectation: RunSwitchWindow over per-flow windows.
		counts := map[*netsim.Flow]int{}
		wins := map[*netsim.Flow][][]float64{}
		var exp []fireExpectation
		for i, sp := range stream {
			counts[sp.Flow]++
			n := counts[sp.Flow]
			if n%Window != 0 {
				continue
			}
			w, ok := wins[sp.Flow]
			if !ok {
				xs, _ := m.Extract([]netsim.Flow{*sp.Flow})
				w = xs
				wins[sp.Flow] = w
			}
			exp = append(exp, fireExpectation{pkt: i, class: RunSwitchWindow(m, plain, w[n/Window-1])})
		}
		checkFires(t, m.Name, emp, stream, exp, true)
	}
}

// TestPacketPathAutoEncoder checks the anomaly family: no argmax, so
// the equivalence target is the emitted reconstruction-error outputs.
func TestPacketPathAutoEncoder(t *testing.T) {
	train, test, _ := smallDataset(t)
	rng := rand.New(rand.NewSource(53))
	const flowTable = 1 << 16
	flows := packetFlows(t, test, flowTable)
	stream := netsim.Merge(flows)

	ae := NewAutoEncoder(nil, rng)
	ae.Train(train, TrainOpts{Epochs: 2, Seed: 53})
	if err := ae.Compile(train); err != nil {
		t.Fatal(err)
	}
	plain, err := ae.Emit(flowTable)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := ae.EmitPackets(flowTable)
	if err != nil {
		t.Fatal(err)
	}
	checkFires(t, "AutoEncoder", emp, stream, expectSeq(plain, stream), false)
}

// TestPacketPathHashCollisions pins the shared-slot semantics: flows
// whose five-tuples hash to the same register slot share extraction
// state, so the dataplane sees their interleaved packets as one logical
// flow — and both execution modes must agree bit for bit on that
// behaviour.
func TestPacketPathHashCollisions(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(59))

	m := NewCNNB(k, rng)
	m.Train(train, TrainOpts{Epochs: 2, Seed: 59})
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}
	plain, err := m.Emit(1 << 8)
	if err != nil {
		t.Fatal(err)
	}

	// Two flows with identical tuples: guaranteed slot collision.
	a, b := test[0], test[1]
	b.Tuple = a.Tuple
	stream := netsim.Merge([]netsim.Flow{a, b})
	emp, err := m.EmitPackets(1 << 8)
	if err != nil {
		t.Fatal(err)
	}

	// The dataplane's view: one merged flow in arrival order.
	merged := netsim.Flow{Tuple: a.Tuple}
	for _, sp := range stream {
		merged.Packets = append(merged.Packets, sp.Flow.Packets[sp.Idx])
	}
	mergedStream := netsim.Merge([]netsim.Flow{merged})
	exp := expectSeq(plain, mergedStream)
	checkFires(t, "CNN-B/collision", emp, stream, exp, true)
}

// TestPacketPathZeroAllocs pins the zero-per-packet-heap-allocation
// property of the compiled stateful path: a whole-trace RunPackets call
// may allocate only the returned result slice, so allocations per
// packet must be (far) below one hundredth. It also pins what the
// CNN-M packet chain lowers to.
func TestPacketPathZeroAllocs(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(67))
	m := NewCNNM(k, rng)
	m.Train(train, TrainOpts{Epochs: 1, Seed: 67})
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}
	emp, err := m.EmitPackets(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	jobs := PacketJobs(emp, netsim.Merge(test))
	eng := emp.NewPacketEngine(1, pisa.ExecCompiled)
	defer eng.Close()
	// What every packet pays, read off the system: the prelude, the two
	// bucket searches (256 length and 206 IPD values, each finished in
	// two compares) and one dispatch over the window position — seven
	// banks and the fire unit. And what every fire pays for its four combo
	// tables: a bit per clustering-tree leaf, not per range-coded entry.
	split, sh := eng.PlanSplit(), eng.PlanShape()
	if split.PerPacket != 4 || split.PerFire != 10 || fmt.Sprint(sh.Dispatch, sh.Interval, sh.Searched) != "[8] [256 206] 0" {
		t.Fatalf("CNN-M packet plan: %v; %v; want 4 units per packet, 10 per fire, one dispatch of 8 bodies, intervals 256+206 cell-indexed", split, sh)
	}
	if want := "4 bitmap (2+2+2+2 words/row, 3497 rules -> 379 groups)"; !strings.Contains(sh.String(), want) {
		t.Fatalf("CNN-M packet plan: %v; want %s", sh, want)
	}
	eng.ResetState()
	eng.RunPackets(jobs) // warm the reusable buffers
	perCall := testing.AllocsPerRun(10, func() {
		eng.RunPackets(jobs)
	})
	if perPkt := perCall / float64(len(jobs)); perPkt > 0.01 {
		t.Fatalf("compiled stateful path allocates %.4f heap objects per packet (%.1f per %d-packet trace)",
			perPkt, perCall, len(jobs))
	}
}

// TestCNNMPlanShapeAndZeroAllocs compiles a real CNN-M window emission:
// its sixteen per-field range tables must run as one load run, its four
// combo tables as bitmap units, and Process must not allocate.
func TestCNNMPlanShapeAndZeroAllocs(t *testing.T) {
	train, test, k := smallDataset(t)
	m := NewCNNM(k, rand.New(rand.NewSource(67)))
	m.Train(train, TrainOpts{Epochs: 1, Seed: 67})
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}
	em, err := m.Emit(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	plan := pisa.CompileProgram(em.Prog)
	if sh := plan.Shape(); len(sh.LoadRuns) != 1 || sh.LoadRuns[0] != 16 || len(sh.Bitmaps) != 4 || sh.Units != 10 {
		t.Fatalf("CNN-M plan shape: %v, want one 16-load run and four bitmap units in 10 units", sh)
	}
	xs, _ := ExtractSeq(test)
	jobs := core.BatchJobsFromFloats(xs)
	phv := em.Prog.Layout.NewPHV()
	n := 0
	if allocs := testing.AllocsPerRun(200, func() {
		phv.Reset()
		for i, f := range em.InFields {
			phv.Set(f, jobs[n%len(jobs)].In[i])
		}
		n++
		plan.Process(phv)
	}); allocs != 0 {
		t.Fatalf("CompiledProgram.Process allocates %.1f heap objects per packet", allocs)
	}
}

// TestPacketBatchesMatchWhole replays a real CNN-B trace as uneven
// RunPackets batches and requires the fired results to match one
// whole-trace RunPackets: flow windows that straddle a batch boundary
// fire in the later batch with the same class and outputs.
func TestPacketBatchesMatchWhole(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(61))
	flows := packetFlows(t, test, 1<<16)
	stream := netsim.Merge(flows)

	m := NewCNNB(k, rng)
	m.Train(train, TrainOpts{Epochs: 2, Seed: 61})
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}
	emp, err := m.EmitPackets(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	jobs := PacketJobs(emp, stream)

	for _, mode := range []pisa.ExecMode{pisa.ExecInterpret, pisa.ExecCompiled} {
		for _, workers := range []int{1, 4} {
			eng := emp.NewPacketEngine(workers, mode)
			eng.ResetState()
			var got []pisa.PacketResult
			for lo := 0; lo < len(jobs); {
				hi := min(len(jobs), lo+1+rng.Intn(97))
				for _, r := range eng.RunPackets(jobs[lo:hi]) {
					// Outs alias staging the next call overwrites.
					r.Pkt += lo
					r.Outs = append([]int32(nil), r.Outs...)
					got = append(got, r)
				}
				lo = hi
			}
			eng.ResetState()
			want := eng.RunPackets(jobs)
			eng.Close()
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("%v w%d: batches fired %d, whole trace %d", mode, workers, len(got), len(want))
			}
			for i := range want {
				if got[i].Pkt != want[i].Pkt || got[i].Class != want[i].Class {
					t.Fatalf("%v w%d fire %d = (pkt %d, class %d), whole (pkt %d, class %d)",
						mode, workers, i, got[i].Pkt, got[i].Class, want[i].Pkt, want[i].Class)
				}
				for j := range want[i].Outs {
					if got[i].Outs[j] != want[i].Outs[j] {
						t.Fatalf("%v w%d fire %d out[%d] = %d, whole %d", mode, workers, i, j, got[i].Outs[j], want[i].Outs[j])
					}
				}
			}
		}
	}
}

// TestPacketPathIdleEviction pins the idle-timeout flow-eviction
// semantics: a new flow colliding into a register slot whose previous
// flow went idle past the timeout starts a clean window — the stale
// half-built state no longer leaks into its feature vectors. The check
// runs the classic blind-spot scenario: flow A banks half a window,
// then flow B (same five-tuple, so a guaranteed slot collision) starts
// after a long gap. Without eviction B's fourth packet completes a
// mixed A+B window; with eviction the first fire is B's own eighth
// packet, bit-identical to replaying B alone — in both exec modes.
func TestPacketPathIdleEviction(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(73))

	m := NewCNNB(k, rng)
	m.Train(train, TrainOpts{Epochs: 2, Seed: 73})
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}
	plain, err := m.Emit(1 << 8)
	if err != nil {
		t.Fatal(err)
	}

	// Flow A: half a window. Flow B: same tuple, 8 packets, shifted to
	// start several timeouts after A's last packet. The timeout must
	// exceed every intra-flow gap so eviction triggers only at the
	// A→B boundary.
	a := test[0]
	a.Packets = append([]netsim.Packet(nil), a.Packets[:Window/2]...)
	b := test[1]
	b.Tuple = a.Tuple
	b.Packets = append([]netsim.Packet(nil), b.Packets[:Window]...)
	maxGap := uint64(0)
	for _, f := range []netsim.Flow{a, b} {
		for i := 1; i < len(f.Packets); i++ {
			if d := f.Packets[i].Time - f.Packets[i-1].Time; d > maxGap {
				maxGap = d
			}
		}
	}
	timeout := maxGap + 1
	empOld, err := m.EmitPackets(1 << 8)
	if err != nil {
		t.Fatal(err)
	}
	// With eviction: emit the same model with the timeout folded into
	// the extraction prelude.
	saved := m.pipe.Opts.Emit.Extract
	m.pipe.Opts.Emit.Extract = &core.ExtractSpec{Kind: core.ExtractSeq, Window: Window, IdleTimeout: int(timeout)}
	emp, err := m.pipe.EmitProgram(1 << 8)
	m.pipe.Opts.Emit.Extract = saved
	if err != nil {
		t.Fatal(err)
	}

	// Two idle gaps: a plain one, and one inside 2^31..2^32 µs where
	// the 32-bit timestamp delta wraps negative under signed compares —
	// both must evict.
	for _, gap := range []uint64{3 * timeout, 2_400_000_000} {
		base := a.Packets[len(a.Packets)-1].Time + gap
		bs := b
		bs.Packets = append([]netsim.Packet(nil), b.Packets...)
		shift := int64(base) - int64(bs.Packets[0].Time)
		for i := range bs.Packets {
			bs.Packets[i].Time = uint64(int64(bs.Packets[i].Time) + shift)
		}
		stream := netsim.Merge([]netsim.Flow{a, bs})

		// Control: without eviction the collision semantics stand — the
		// first fire completes the mixed A+B window at stream index 7.
		eng := empOld.NewPacketEngine(1, pisa.ExecCompiled)
		eng.ResetState()
		old := eng.RunPackets(PacketJobs(empOld, stream))
		eng.Close()
		if len(old) == 0 || old[0].Pkt != Window-1 {
			t.Fatalf("gap %d control without eviction: fires %v, want first fire at packet %d (mixed window)",
				gap, old, Window-1)
		}

		// Expected: exactly the fires of B replayed alone, offset by
		// A's packets in the merged stream.
		exp := expectSeq(plain, netsim.Merge([]netsim.Flow{bs}))
		for i := range exp {
			exp[i].pkt += len(a.Packets)
		}
		if len(exp) == 0 {
			t.Fatal("B alone fired no windows")
		}
		checkFires(t, "CNN-B/evict", emp, stream, exp, true)
	}

	// The prelude must not have grown: eviction rides the existing
	// counter RMW, so stage count and register count match the
	// timeout-free emission.
	if emp.Stages != empOld.Stages {
		t.Fatalf("eviction added stages: %d vs %d", emp.Stages, empOld.Stages)
	}
	if len(emp.Prog.Registers) != len(empOld.Prog.Registers) {
		t.Fatalf("eviction added registers: %d vs %d", len(emp.Prog.Registers), len(empOld.Prog.Registers))
	}
}
