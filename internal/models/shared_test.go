package models

import (
	"math/rand"
	"testing"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// runSharedFanout replays a merged trace through one physically shared
// extraction machine fanning windows out to the subscriber emissions,
// returning per-subscriber results plus the machine's engine stats
// (for the exactly-once RMW assertions).
func runSharedFanout(t *testing.T, shared *core.SharedExtraction, subs []*core.Emitted,
	stream []netsim.StreamPacket, mode pisa.ExecMode) ([][]pisa.PacketResult, pisa.EngineStats) {
	t.Helper()
	sched := pisa.NewScheduler(4)
	defer sched.Close()
	ext := shared.Em.NewPacketEngineOn(sched, "ext", 1, mode)
	defer ext.Close()
	fan := pisa.NewFanout(ext)
	var engs []*pisa.Engine
	for i, em := range subs {
		eng := em.NewEngineOn(sched, em.Prog.Name+string(rune('a'+i)), 1, mode)
		defer eng.Close()
		fan.Subscribe(eng)
		engs = append(engs, eng)
	}
	ext.ResetState()
	res := fan.RunPackets(PacketJobs(shared.Em, stream))
	for i, eng := range engs {
		if st := eng.Stats(); st.RegRMWs != 0 {
			t.Fatalf("subscriber %d executed %d register RMWs; subscribers must be pure-combinational", i, st.RegRMWs)
		}
	}
	// Detach result rows from the subscriber engines' reused arenas
	// before the engines close.
	for i := range res {
		for k := range res[i] {
			res[i][k].Outs = append([]int32(nil), res[i][k].Outs...)
		}
	}
	return res, ext.Stats()
}

// privateFires replays the same trace through a model's fused
// private-prelude engine, returning detached fires and the engine stats.
func privateFires(t *testing.T, emp *core.Emitted, stream []netsim.StreamPacket,
	mode pisa.ExecMode) ([]pisa.PacketResult, pisa.EngineStats) {
	t.Helper()
	eng := emp.NewPacketEngine(4, mode)
	defer eng.Close()
	eng.ResetState()
	res := eng.RunPackets(PacketJobs(emp, stream))
	out := make([]pisa.PacketResult, len(res))
	for i, r := range res {
		out[i] = pisa.PacketResult{Pkt: r.Pkt, Class: r.Class, Outs: append([]int32(nil), r.Outs...)}
	}
	return out, eng.Stats()
}

// matchFires requires the shared-subscriber results to be bit-identical
// to the private-prelude fires: same fired packets, classes and outputs.
func matchFires(t *testing.T, name string, mode pisa.ExecMode, got, want []pisa.PacketResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s [%v]: shared fan-out fired %d windows, private engine %d", name, mode, len(got), len(want))
	}
	for i := range got {
		if got[i].Pkt != want[i].Pkt || got[i].Class != want[i].Class {
			t.Fatalf("%s [%v]: fire %d shared (pkt %d, class %d), private (pkt %d, class %d)",
				name, mode, i, got[i].Pkt, got[i].Class, want[i].Pkt, want[i].Class)
		}
		if len(got[i].Outs) != len(want[i].Outs) {
			t.Fatalf("%s [%v]: fire %d shared %d outs, private %d", name, mode, i, len(got[i].Outs), len(want[i].Outs))
		}
		for j := range got[i].Outs {
			if got[i].Outs[j] != want[i].Outs[j] {
				t.Fatalf("%s [%v]: fire %d out[%d] = %d shared, %d private",
					name, mode, i, j, got[i].Outs[j], want[i].Outs[j])
			}
		}
	}
}

// TestSharedExtractionMatchesPrivate is the fan-out acceptance test:
// raw merged traces through the physically shared machine classify
// bit-identical to each model's private-prelude engine — MLP-B on the
// stats machine and RNN-B on the seq machine, in both execution modes —
// and the machine executes the prelude's register RMWs exactly once
// per packet (the same count ONE private prelude pays), with the
// subscribers executing none.
func TestSharedExtractionMatchesPrivate(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(83))
	const flowTable = 1 << 16
	flows := packetFlows(t, test, flowTable)
	stream := netsim.Merge(flows)
	tgt, _ := core.LookupTarget("tofino-multipipe")

	mlp := NewMLPB(k, rng)
	mlp.Train(train, TrainOpts{Epochs: 4, Seed: 83})
	if err := mlp.Compile(train); err != nil {
		t.Fatal(err)
	}
	mlp.pipe.Opts.Emit.Target = tgt
	rnn := NewRNNB(k, rng)
	rnn.Train(train, TrainOpts{Epochs: 2, LR: 0.02, Seed: 83})
	if err := rnn.Compile(train); err != nil {
		t.Fatal(err)
	}
	rnn.pipe.Opts.Emit.Target = tgt

	type caseT struct {
		name       string
		kind       core.ExtractKind
		emitShared func(*core.SharedExtraction) (*core.Emitted, error)
		emp        *core.Emitted
	}
	var cases []caseT
	mlpP, err := mlp.EmitPackets(flowTable)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, caseT{"MLP-B", core.ExtractStats, mlp.EmitShared, mlpP})
	rnnP, err := rnn.EmitPackets(flowTable)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, caseT{"RNN-B", core.ExtractSeq, rnn.EmitShared, rnnP})

	for _, c := range cases {
		shared, err := core.EmitSharedExtraction("px-shared", pisa.Tofino2, SharedWindowSpec(c.kind), flowTable)
		if err != nil {
			t.Fatalf("%s machine: %v", c.name, err)
		}
		em, err := c.emitShared(shared)
		if err != nil {
			t.Fatalf("%s shared emission: %v", c.name, err)
		}
		for _, p := range em.Programs() {
			if len(p.Registers) > 0 {
				t.Fatalf("%s subscriber program %s has registers", c.name, p.Name)
			}
		}
		for _, mode := range []pisa.ExecMode{pisa.ExecInterpret, pisa.ExecCompiled} {
			res, extStats := runSharedFanout(t, shared, []*core.Emitted{em}, stream, mode)
			want, privStats := privateFires(t, c.emp, stream, mode)
			if len(want) == 0 {
				t.Fatalf("%s fired no windows", c.name)
			}
			matchFires(t, c.name, mode, res[0], want)
			// Exactly-once: the machine's RMW count equals ONE private
			// prelude's over the same trace (the accounting flow-state
			// registers of the fused form execute no ops).
			if extStats.RegRMWs == 0 || extStats.RegRMWs != privStats.RegRMWs {
				t.Fatalf("%s [%v]: machine executed %d register RMWs, one private prelude %d",
					c.name, mode, extStats.RegRMWs, privStats.RegRMWs)
			}
		}
	}
}

// TestSharedExtractionFanoutExactlyOnce pins the headline property with
// 3 co-resident models on one scheduler: the shared machine executes
// each packet's register RMWs exactly once no matter how many
// subscribers ride it — total RMWs equal ONE private prelude's count,
// where three private engines pay three times that.
func TestSharedExtractionFanoutExactlyOnce(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(89))
	const flowTable = 1 << 10
	flows := packetFlows(t, test, flowTable)
	stream := netsim.Merge(flows)

	mk := []func(int, *rand.Rand) *Feedforward{NewCNNB, NewCNNM, NewCNNB}
	shared, err := core.EmitSharedExtraction("px-shared-seq", pisa.Tofino2,
		SharedWindowSpec(core.ExtractSeq), flowTable)
	if err != nil {
		t.Fatal(err)
	}
	var subs []*core.Emitted
	var privTotal uint64
	var one uint64
	for i, f := range mk {
		m := f(k, rng)
		m.Train(train, TrainOpts{Epochs: 1, Seed: int64(89 + i)})
		if err := m.Compile(train); err != nil {
			t.Fatal(err)
		}
		em, err := m.EmitShared(shared)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, em)
		emp, err := m.EmitPackets(flowTable)
		if err != nil {
			t.Fatal(err)
		}
		_, st := privateFires(t, emp, stream, pisa.ExecCompiled)
		privTotal += st.RegRMWs
		one = st.RegRMWs
	}
	res, extStats := runSharedFanout(t, shared, subs, stream, pisa.ExecCompiled)
	for i := range res {
		if len(res[i]) == 0 {
			t.Fatalf("subscriber %d saw no fired windows", i)
		}
	}
	if extStats.RegRMWs != one {
		t.Fatalf("shared machine executed %d register RMWs for 3 models, exactly-once is %d", extStats.RegRMWs, one)
	}
	if privTotal != 3*one {
		t.Fatalf("private baseline RMWs %d, want 3×%d — models diverge on the same prelude", privTotal, one)
	}
}

// TestSharedHashCollision pins the shared-slot semantics on the SHARED
// bank: flows hashing to one register slot interleave into one logical
// flow exactly as they do on a private prelude — the fan-out classifies
// the collision stream bit-identical to the fused engine, in both
// execution modes.
func TestSharedHashCollision(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(97))

	m := NewCNNB(k, rng)
	m.Train(train, TrainOpts{Epochs: 2, Seed: 97})
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}
	a, b := test[0], test[1]
	b.Tuple = a.Tuple // guaranteed slot collision
	stream := netsim.Merge([]netsim.Flow{a, b})

	emp, err := m.EmitPackets(1 << 8)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := core.EmitSharedExtraction("px-shared-seq", pisa.Tofino2,
		SharedWindowSpec(core.ExtractSeq), 1<<8)
	if err != nil {
		t.Fatal(err)
	}
	em, err := m.EmitShared(shared)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []pisa.ExecMode{pisa.ExecInterpret, pisa.ExecCompiled} {
		res, _ := runSharedFanout(t, shared, []*core.Emitted{em}, stream, mode)
		want, _ := privateFires(t, emp, stream, mode)
		if len(want) == 0 {
			t.Fatal("collision stream fired no windows")
		}
		matchFires(t, "CNN-B/collision", mode, res[0], want)
	}
}

// TestSharedIdleEviction pins idle-timeout eviction on the shared bank:
// a machine emitted with an IdleTimeout evicts stale flow state exactly
// as the private prelude does, so the fan-out's fires on a
// gap-separated collision stream match the fused engine's bit for bit
// in both execution modes.
func TestSharedIdleEviction(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(101))

	m := NewCNNB(k, rng)
	m.Train(train, TrainOpts{Epochs: 2, Seed: 101})
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}

	// Flow A banks half a window; flow B (same tuple) starts several
	// timeouts later — eviction must trigger exactly at the boundary.
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
	base := a.Packets[len(a.Packets)-1].Time + 3*timeout
	shift := int64(base) - int64(b.Packets[0].Time)
	for i := range b.Packets {
		b.Packets[i].Time = uint64(int64(b.Packets[i].Time) + shift)
	}
	stream := netsim.Merge([]netsim.Flow{a, b})

	spec := core.ExtractSpec{Kind: core.ExtractSeq, Window: Window, IdleTimeout: int(timeout)}
	// Private reference: the same model fused with the evicting prelude.
	saved := m.pipe.Opts.Emit.Extract
	m.pipe.Opts.Emit.Extract = &spec
	emp, err := m.pipe.EmitProgram(1 << 8)
	m.pipe.Opts.Emit.Extract = saved
	if err != nil {
		t.Fatal(err)
	}
	shared, err := core.EmitSharedExtraction("px-shared-seq", pisa.Tofino2, spec, 1<<8)
	if err != nil {
		t.Fatal(err)
	}
	em, err := m.EmitShared(shared)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []pisa.ExecMode{pisa.ExecInterpret, pisa.ExecCompiled} {
		res, _ := runSharedFanout(t, shared, []*core.Emitted{em}, stream, mode)
		want, _ := privateFires(t, emp, stream, mode)
		if len(want) == 0 {
			t.Fatal("eviction stream fired no windows")
		}
		// Eviction means the first fire is B's own full window, not the
		// mixed A+B window at stream index Window-1.
		if want[0].Pkt == Window-1 {
			t.Fatalf("private reference did not evict (first fire at packet %d)", want[0].Pkt)
		}
		matchFires(t, "CNN-B/evict", mode, res[0], want)
	}
}
