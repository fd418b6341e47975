package pisa

import (
	"fmt"
	"math/rand"
	"testing"
)

// randStatefulProgram builds a random extraction-shaped program: a
// prelude deriving the register slot from the hash field, a run of
// selector-gated tables performing one register RMW each (sharing
// registers only under exclusive equality gates, as the one-RMW rule
// demands), and an always-firing readout. Register sizes are powers of
// two and slots are hash-derived, so the program is engine-shardable.
func randStatefulProgram(t *testing.T, rng *rand.Rand, slots int) (*Program, PacketMeta, []FieldID) {
	t.Helper()
	var l Layout
	hash := l.MustAdd("hash", 32)
	slot := l.MustAdd("slot", 32)
	sel := l.MustAdd("sel", 8)
	val := l.MustAdd("val", 16)
	fire := l.MustAdd("fire", 8)
	outs := []FieldID{
		l.MustAdd("out0", 32), l.MustAdd("out1", 32), l.MustAdd("out2", 32), l.MustAdd("out3", 32),
	}
	prog := NewProgram("stateful-fuzz", &l, Tofino2)

	prog.Place(0, &Table{Name: "prelude", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{
			{Kind: OpAndImm, Dst: slot, A: hash, Imm: int32(slots - 1)},
			{Kind: OpSet, Dst: fire, Imm: 1},
		}})

	kinds := []OpKind{OpRegAdd, OpRegMax, OpRegMin, OpRegExch, OpRegStore, OpRegLoad, OpRegCntRestart}
	numRegs := 2 + rng.Intn(4)
	stage := 1
	for r := 0; r < numRegs; r++ {
		init := int32(0)
		if rng.Intn(3) == 0 {
			init = int32(rng.Intn(1000) - 500)
		}
		reg, err := NewRegisterInit("r"+string(rune('a'+r)), []int{8, 16, 32}[rng.Intn(3)], slots, init)
		if err != nil {
			t.Fatal(err)
		}
		ri := prog.AddRegister(reg)
		// One to three tables share this register under exclusive
		// equality gates on the selector; each table gets its own stage
		// so the intra-stage write-hazard check stays out of the way.
		users := 1 + rng.Intn(3)
		for u := 0; u < users; u++ {
			k := kinds[rng.Intn(len(kinds))]
			dst := outs[rng.Intn(len(outs))]
			op := Op{Kind: k, Reg: ri, Dst: dst, A: slot, B: val}
			if k == OpRegCntRestart {
				// B doubles as the restart predicate; vary the restart
				// value the counter snaps back to.
				op.Imm = int32(rng.Intn(50))
			}
			prog.Place(stage, &Table{
				Name: "rmw_" + string(rune('a'+r)) + string(rune('0'+u)),
				Kind: MatchNone, DefaultData: []int32{},
				Gate:   &Gate{Field: sel, Op: GateEQ, Value: int32(u)},
				Action: []Op{op},
			})
			stage++
		}
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("random stateful program invalid: %v", err)
	}
	return prog, PacketMeta{Hash: hash, Fields: []FieldID{sel, val}, Fire: fire}, outs
}

// TestStatefulDifferential fuzzes register programs through every
// execution route: the table interpreter, the compiled plan, and the
// packet engine at several worker counts, all of which must agree on
// every fired output and on the final register state.
func TestStatefulDifferential(t *testing.T) {
	rng := drawRNG(t, 7)
	for trial := 0; trial < 30; trial++ {
		slots := 1 << (2 + rng.Intn(3)) // 4..16
		prog, meta, outs := randStatefulProgram(t, rng, slots)

		npkts := 200 + rng.Intn(200)
		pkts := make([]PacketIn, npkts)
		for i := range pkts {
			pkts[i] = PacketIn{
				Hash:   rng.Uint32(),
				Fields: []int32{int32(rng.Intn(3)), int32(rng.Intn(2000) - 1000)},
			}
		}

		// Reference: sequential interpreter via a 1-worker engine.
		ref := newPacketEngine(prog, meta, outs, outs[0], 1, ExecInterpret)
		prog.ResetState()
		want := ref.RunPackets(pkts)
		wantRegs := snapshotRegs(prog)
		ref.Close()

		for _, workers := range []int{1, 2, 4} {
			for _, mode := range []ExecMode{ExecInterpret, ExecCompiled} {
				eng := newPacketEngine(prog, meta, outs, outs[0], workers, mode)
				prog.ResetState()
				got := eng.RunPackets(pkts)
				gotRegs := snapshotRegs(prog)
				eng.Close()
				if len(got) != len(want) {
					t.Fatalf("trial %d [%v w%d]: %d fires, want %d", trial, mode, workers, len(got), len(want))
				}
				for i := range got {
					if got[i].Pkt != want[i].Pkt || got[i].Class != want[i].Class {
						t.Fatalf("trial %d [%v w%d] fire %d: (pkt %d class %d), want (pkt %d class %d)",
							trial, mode, workers, i, got[i].Pkt, got[i].Class, want[i].Pkt, want[i].Class)
					}
					for j := range got[i].Outs {
						if got[i].Outs[j] != want[i].Outs[j] {
							t.Fatalf("trial %d [%v w%d] pkt %d out[%d]: %d want %d",
								trial, mode, workers, got[i].Pkt, j, got[i].Outs[j], want[i].Outs[j])
						}
					}
				}
				for r := range wantRegs {
					for c := range wantRegs[r] {
						if gotRegs[r][c] != wantRegs[r][c] {
							t.Fatalf("trial %d [%v w%d]: register %d cell %d = %d, want %d",
								trial, mode, workers, r, c, gotRegs[r][c], wantRegs[r][c])
						}
					}
				}
			}
		}
	}
}

// slicedChain is a program chain plus the handles an engine needs, as
// built by the fire-slicing and fan-out tests: meta for packet chains,
// in for window chains.
type slicedChain struct {
	progs   []*Program
	bridges []Bridge
	meta    PacketMeta
	in      []FieldID
	outs    []FieldID
	class   FieldID
}

// tailIO names the fields a stateless tail reads and writes, in the
// layout of the pipe it is placed in.
type tailIO struct {
	sel, val, fire FieldID
	src            []FieldID // prefix results (and, once written, outs)
	outs           []FieldID
	class          FieldID
}

// addRandTail appends n random register-free tables that write neither
// fire nor sel — always-runs (merge and constant-fold candidates),
// direct and hashed exact tables, interval and bitmap ternary tables,
// half of them gated on the fire flag or == on the selector (adjacent
// ones of the latter form gate families of every member kind) — and a
// closing class write. The first lead tables are selector-gated for
// sure, so that they join a family the caller left open. One table per
// stage keeps the intra-stage hazard check out of the way.
func addRandTail(rng *rand.Rand, prog *Program, stage int, io tailIO, n, lead int) {
	src := func() FieldID { return io.src[rng.Intn(len(io.src))] }
	dst := func() FieldID { return io.outs[rng.Intn(len(io.outs))] }
	data := func(n int) []int32 {
		d := make([]int32, n)
		for i := range d {
			d[i] = int32(rng.Intn(400) - 200)
		}
		return d
	}
	gate := func(t int) *Gate {
		k := rng.Intn(6)
		if t < lead {
			k = 2
		}
		switch k {
		case 0:
			return &Gate{Field: io.fire, Op: GateNE, Value: 0}
		case 1:
			return &Gate{Field: io.fire, Op: GateEQ, Value: 0} // runs on non-fire packets only
		case 2:
			return &Gate{Field: io.sel, Op: GateEQ, Value: int32(rng.Intn(3))}
		}
		return nil
	}
	hitOps := func() []Op {
		return []Op{
			{Kind: OpSetData, Dst: dst(), DataIdx: 0},
			{Kind: OpAddData, Dst: dst(), A: src(), DataIdx: 1},
		}
	}
	maybeDef := func() []int32 {
		if rng.Intn(2) == 0 {
			return data(2)
		}
		return nil
	}
	for t := 0; t < n; t++ {
		tbl := &Table{Name: nm("tail", t), Gate: gate(t)}
		kind := rng.Intn(6)
		if t < lead {
			kind = rng.Intn(5) // a load run is ungated
		}
		switch kind {
		case 5: // a load run behind the cut (a gated draw starts a new one)
			stage = addLoadRun(rng, prog, stage, nm("tailld", t), io.sel, io.outs)
			continue
		case 0: // always-run
			tbl.Kind, tbl.DefaultData = MatchNone, data(2)
			tbl.Action = []Op{
				{Kind: OpSatAdd, Dst: dst(), A: src(), B: src()},
				{Kind: OpAddData, Dst: dst(), A: src(), DataIdx: rng.Intn(2)},
				{Kind: OpSelGE, Dst: dst(), A: src(), B: src(), Imm: int32(rng.Intn(9))},
			}
		case 1: // narrow exact -> direct index
			tbl.Kind, tbl.KeyFields, tbl.KeyWidths = MatchExact, []FieldID{io.sel}, []int{2}
			for k := 0; k < 3; k++ {
				tbl.Entries = append(tbl.Entries, Entry{Key: []uint32{uint32(rng.Intn(4))}, Data: data(2)})
			}
			tbl.Action, tbl.DefaultData = hitOps(), maybeDef()
		case 2: // two-field exact -> hash
			tbl.Kind, tbl.KeyFields, tbl.KeyWidths = MatchExact, []FieldID{io.sel, io.val}, []int{2, 4}
			for k := 0; k < 12; k++ {
				tbl.Entries = append(tbl.Entries, Entry{Key: []uint32{uint32(rng.Intn(3)), uint32(rng.Intn(16))}, Data: data(2)})
			}
			tbl.Action, tbl.DefaultData = hitOps(), maybeDef()
		case 3: // wide single-field prefix ternary -> interval search
			tbl.Kind, tbl.KeyFields, tbl.KeyWidths = MatchTernary, []FieldID{src()}, []int{16}
			for k := 0; k < 8; k++ {
				mask := widthMask(16) &^ widthMask(16-rng.Intn(17))
				tbl.Entries = append(tbl.Entries, Entry{Key: []uint32{rng.Uint32() & mask}, Mask: []uint32{mask}, Data: data(2)})
			}
			tbl.Action, tbl.DefaultData = hitOps(), maybeDef()
		default: // two-field prefix ternary -> bitmap
			tbl.Kind, tbl.KeyFields, tbl.KeyWidths = MatchTernary, []FieldID{io.val, src()}, []int{8, 14}
			for k := 0; k < 8; k++ {
				m0 := widthMask(8) &^ widthMask(8-rng.Intn(9))
				m1 := widthMask(14) &^ widthMask(14-rng.Intn(15))
				tbl.Entries = append(tbl.Entries, Entry{Key: []uint32{rng.Uint32() & m0, rng.Uint32() & m1},
					Mask: []uint32{m0, m1}, Data: data(2)})
			}
			tbl.Action, tbl.DefaultData = hitOps(), maybeDef()
		}
		prog.Place(stage, tbl)
		stage++
	}
	// Gated like the emitted argmax writeback, so it never merges into a
	// stateful always-unit ahead of it and the tail is never empty.
	prog.Place(stage, &Table{Name: "class", Kind: MatchNone, DefaultData: []int32{},
		Gate:   &Gate{Field: io.fire, Op: GateNE, Value: 0},
		Action: []Op{{Kind: OpAndImm, Dst: io.class, A: io.outs[0], Imm: 7}}})
}

// addLoadRun places two to four adjacent ungated full-domain loads —
// one plan unit, a load run — keyed on sel or on the previous load's
// destination, and returns the next free stage.
func addLoadRun(rng *rand.Rand, prog *Program, stage int, name string, sel FieldID, dsts []FieldID) int {
	key := sel
	for k := 0; k < 2+rng.Intn(3); k++ {
		tbl := &Table{Name: nm(name, k), Kind: MatchExact, KeyFields: []FieldID{key}, KeyWidths: []int{2}}
		for v := uint32(0); v < 4; v++ {
			tbl.Entries = append(tbl.Entries, Entry{Key: []uint32{v}, Data: []int32{int32(rng.Intn(400) - 200)}})
		}
		dst := dsts[rng.Intn(len(dsts))]
		tbl.Action = []Op{{Kind: OpSetData, Dst: dst, DataIdx: 0}}
		prog.Place(stage, tbl)
		stage++
		if rng.Intn(2) == 0 {
			key = dst
		}
	}
	return stage
}

// randSlicedChain builds a random fused packet program in the emitted
// shape: a stateful prefix — slot derivation, a data-dependent fire
// write, selector-gated register RMWs (one gate family, constants
// repeating from register to register), a load run and one RMW gated
// on fire — and a random stateless tail (load runs and gate families
// among its units), which with two pipes starts in pipe 0 and continues
// behind a bridge in a register-free second pipe. Half the chains end
// the prefix in a selector-gated RMW that the tail's first tables join:
// a family straddling the cut, stateful as a whole. It returns the
// chain, the number of plan units the prefix compiles to and the
// bodies of the prefix's gate families (the last one at least).
func randSlicedChain(t *testing.T, rng *rand.Rand, slots, pipes int) (slicedChain, int, []int) {
	t.Helper()
	big := Tofino2.Pipes(4)
	var l Layout
	hash := l.MustAdd("hash", 32)
	slot := l.MustAdd("slot", 32)
	sel := l.MustAdd("sel", 8)
	val := l.MustAdd("val", 16)
	fire := l.MustAdd("fire", 8)
	var st, outs []FieldID
	for i := 0; i < 4; i++ {
		st = append(st, l.MustAdd(nm("st", i), 32))
	}
	for i := 0; i < 4; i++ {
		outs = append(outs, l.MustAdd(nm("out", i), 32))
	}
	class := l.MustAdd("class", 8)
	prog := NewProgram("sliced-fuzz", &l, big)

	// Unit 1: slot and fire, merged into one always-unit. Fire is raised
	// when 0 < val&3 < sel: about one packet in twelve.
	prog.Place(0, &Table{Name: "slot", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpAndImm, Dst: slot, A: hash, Imm: int32(slots - 1)}}})
	prog.Place(1, &Table{Name: "fire", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{
			{Kind: OpAndImm, Dst: fire, A: val, Imm: 3},
			{Kind: OpSelGE, Dst: fire, A: fire, B: sel, Imm: 0}, // fire = 0 unless val&3 < sel
		}})
	units, stage := 1, 2
	kinds := []OpKind{OpRegAdd, OpRegMax, OpRegMin, OpRegExch, OpRegStore, OpRegLoad, OpRegCntRestart}
	addReg := func(name string) int {
		reg, err := NewRegisterInit(name, []int{8, 16, 32}[rng.Intn(3)], slots, int32(rng.Intn(7)-3))
		if err != nil {
			t.Fatal(err)
		}
		return prog.AddRegister(reg)
	}
	families := []int{0}
	for r := 0; r < 1+rng.Intn(3); r++ {
		ri := addReg(nm("r", r))
		for u := 0; u < 1+rng.Intn(3); u++ {
			prog.Place(stage, &Table{Name: nm(nm("rmw", r), u), Kind: MatchNone, DefaultData: []int32{},
				Gate:   &Gate{Field: sel, Op: GateEQ, Value: int32(u)},
				Action: []Op{{Kind: kinds[rng.Intn(len(kinds))], Reg: ri, Dst: st[rng.Intn(len(st))], A: slot, B: val, Imm: int32(rng.Intn(50))}}})
			stage++
			families[0]++
		}
	}
	if families[0] == 1 {
		families = nil // a lone gated table stays a plain unit
	}
	units++ // the RMWs' gates all compare sel: one unit
	// A load run ahead of the cut: one more unit every packet runs.
	stage = addLoadRun(rng, prog, stage, "preld", sel, st[1:3])
	units++
	// The window-completing packet's own RMW (bank restore / counter
	// restart in the emitted programs), gated on fire.
	prog.Place(stage, &Table{Name: "on_fire", Kind: MatchNone, DefaultData: []int32{},
		Gate:   &Gate{Field: fire, Op: GateNE, Value: 0},
		Action: []Op{{Kind: OpRegAdd, Reg: addReg("rf"), Dst: st[3], A: slot, B: val}}})
	stage++
	units++
	// Every packet's last RMW: the unit the cut must not swallow.
	prog.Place(stage, &Table{Name: "count", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpRegAdd, Reg: addReg("rn"), Dst: st[0], A: slot, B: sel}}})
	stage++
	units++
	lead := 0
	if rng.Intn(2) == 0 {
		// The family straddling the cut: its first member is stateful, the
		// tail's leading tables join it and run on every packet with it.
		prog.Place(stage, &Table{Name: "late", Kind: MatchNone, DefaultData: []int32{},
			Gate:   &Gate{Field: sel, Op: GateEQ, Value: int32(rng.Intn(3))},
			Action: []Op{{Kind: OpRegAdd, Reg: addReg("rl"), Dst: st[1], A: slot, B: val}}})
		stage++
		units++
		lead = 1 + rng.Intn(2)
		families = append(families, 1+lead)
	}

	c := slicedChain{progs: []*Program{prog}, meta: PacketMeta{Hash: hash, Fields: []FieldID{sel, val}, Fire: fire},
		outs: outs, class: class}
	io := tailIO{sel: sel, val: val, fire: fire, src: append(append([]FieldID{}, st...), outs...), outs: outs, class: class}
	addRandTail(rng, prog, stage, io, 2+rng.Intn(5), lead)
	if pipes == 2 {
		addBridgedPipe(rng, &c, io)
	}
	for _, p := range c.progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("random sliced chain invalid: %v", err)
		}
	}
	return c, units, families
}

// addBridgedPipe appends a register-free second pipe to the one-pipe
// chain c: a random tail over io's fields carried across a bridge,
// which then holds the chain's outputs and class.
func addBridgedPipe(rng *rand.Rand, c *slicedChain, io tailIO) {
	var l2 Layout
	io2 := tailIO{sel: l2.MustAdd("sel", 8), val: l2.MustAdd("val", 16), fire: l2.MustAdd("fire", 8)}
	br := Bridge{From: []FieldID{io.sel, io.val, io.fire}, To: []FieldID{io2.sel, io2.val, io2.fire}}
	for i, f := range io.src {
		in := l2.MustAdd(nm("in", i), 32)
		io2.src = append(io2.src, in)
		br.From, br.To = append(br.From, f), append(br.To, in)
	}
	for i := 0; i < 4; i++ {
		io2.outs = append(io2.outs, l2.MustAdd(nm("out", i), 32))
	}
	io2.src = append(io2.src, io2.outs...)
	io2.class = l2.MustAdd("class", 8)
	p2 := NewProgram(c.progs[0].Name+"-pipe1", &l2, Tofino2.Pipes(4))
	addRandTail(rng, p2, 0, io2, 2+rng.Intn(5), 0)
	c.progs, c.bridges = append(c.progs, p2), []Bridge{br}
	c.outs, c.class = io2.outs, io2.class
}

// firesAndState is everything a packet replay leaves behind.
type firesAndState struct {
	fires []PacketResult
	rmws  uint64
	regs  [][][]int32 // [pipe][register][cell]
	split PlanSplit
	shape PlanShape
}

// replayChain runs pkts from a clean flow table through a fresh engine
// over the chain and collects what it fired and the state it left.
func replayChain(c slicedChain, pkts []PacketIn, workers int, mode ExecMode) firesAndState {
	e := NewChainEngineMode(c.progs, c.bridges, nil, c.outs, c.class, workers, mode)
	defer e.Close()
	e.ConfigurePackets(c.meta)
	e.ResetState()
	var got firesAndState
	for _, r := range e.RunPackets(pkts) {
		r.Outs = append([]int32(nil), r.Outs...)
		got.fires = append(got.fires, r)
	}
	got.rmws, got.split, got.shape = e.Stats().RegRMWs, e.PlanSplit(), e.PlanShape()
	for _, p := range c.progs {
		got.regs = append(got.regs, snapshotRegs(p))
	}
	return got
}

// checkSliced replays pkts through compiled engines at 1 and 4 shards
// and requires fires, classes, output vectors, RegRMWs and every final
// register cell to equal a 1-shard interpreter engine's, which runs
// every table on every packet. It returns the compiled split and shape.
func checkSliced(t *testing.T, tag string, c slicedChain, pkts []PacketIn) (PlanSplit, PlanShape) {
	t.Helper()
	want := replayChain(c, pkts, 1, ExecInterpret)
	if want.split.PerFire != 0 || want.split.TailPipes != 0 {
		t.Fatalf("%s: interpreter engine slices its chain: %v", tag, want.split)
	}
	if len(want.fires) == 0 || len(want.fires) == len(pkts) {
		t.Fatalf("%s: %d of %d packets fired; the trace must mix both", tag, len(want.fires), len(pkts))
	}
	var split PlanSplit
	var shape PlanShape
	for _, workers := range []int{1, 4} {
		got := replayChain(c, pkts, workers, ExecCompiled)
		split, shape = got.split, got.shape
		if len(got.fires) != len(want.fires) {
			t.Fatalf("%s [w%d]: %d fires, want %d", tag, workers, len(got.fires), len(want.fires))
		}
		for i, g := range got.fires {
			w := want.fires[i]
			if g.Pkt != w.Pkt || g.Class != w.Class {
				t.Fatalf("%s [w%d] fire %d: (pkt %d class %d), want (pkt %d class %d)", tag, workers, i, g.Pkt, g.Class, w.Pkt, w.Class)
			}
			for j := range w.Outs {
				if g.Outs[j] != w.Outs[j] {
					t.Fatalf("%s [w%d] pkt %d out[%d]: %d, want %d", tag, workers, g.Pkt, j, g.Outs[j], w.Outs[j])
				}
			}
		}
		if got.rmws != want.rmws {
			t.Fatalf("%s [w%d]: %d register RMWs, want %d", tag, workers, got.rmws, want.rmws)
		}
		for p := range want.regs {
			for r := range want.regs[p] {
				for cell, w := range want.regs[p][r] {
					if g := got.regs[p][r][cell]; g != w {
						t.Fatalf("%s [w%d]: pipe %d register %d cell %d = %d, want %d", tag, workers, p, r, cell, g, w)
					}
				}
			}
		}
	}
	return split, shape
}

func randSlicedPackets(rng *rand.Rand, n int) []PacketIn {
	pkts := make([]PacketIn, n)
	for i := range pkts {
		pkts[i] = PacketIn{Hash: rng.Uint32(), Fields: []int32{int32(rng.Intn(3)), int32(rng.Intn(2000) - 1000)}}
	}
	return pkts
}

// TestFireSlicedDifferential fuzzes the fire-sliced cut: random chains
// of a stateful prefix and a stateless tail, where compiled engines
// run the tail on fired packets only, must be indistinguishable from
// the interpreter running everything — and the cut must sit exactly
// behind the prefix's last register op, so the tail is never empty and
// never swallows a stateful unit. The prefix's gate families must have
// merged as built (a family counts as one unit), the one straddling
// the cut with the tail tables that joined it.
func TestFireSlicedDifferential(t *testing.T) {
	rng := drawRNG(t, 29)
	for trial := 0; trial < 40; trial++ {
		slots := 1 << (2 + rng.Intn(3)) // 4..16
		pipes := 1 + trial%2
		c, prefix, families := randSlicedChain(t, rng, slots, pipes)
		split, shape := checkSliced(t, fmt.Sprintf("trial %d", trial), c, randSlicedPackets(rng, 200+rng.Intn(200)))
		if split.PerPacket != prefix || split.PerFire == 0 || split.TailPipes != pipes-1 {
			t.Fatalf("trial %d: split %v, want %d units per packet, a non-empty tail and %d tail pipes",
				trial, split, prefix, pipes-1)
		}
		for i, n := range families {
			if last := i == len(families)-1; len(shape.Dispatch) <= i || shape.Dispatch[i] < n || !last && shape.Dispatch[i] != n {
				t.Fatalf("trial %d: dispatch units %v, want the prefix's families %v (the last may have grown in the tail)", trial, shape.Dispatch, families)
			}
		}
	}
}

// TestFireSlicedEmptyTail pins the three shapes that leave nothing to
// skip: a register op in the last table, a late table writing the fire
// field, and a chain whose second pipe owns a register — which must
// still see every packet.
func TestFireSlicedEmptyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pkts := randSlicedPackets(rng, 300)
	last := func(c slicedChain) (*Program, int) {
		p := c.progs[len(c.progs)-1]
		return p, len(p.Stages)
	}
	wantEmpty := func(tag string, c slicedChain) {
		t.Helper()
		if split, _ := checkSliced(t, tag, c, pkts); split.PerFire != 0 || split.TailPipes != 0 {
			t.Fatalf("%s: split %v, want an empty tail", tag, split)
		}
	}

	// A register op behind the whole tail (say, banking the verdict).
	c, _, _ := randSlicedChain(t, rng, 8, 1)
	p, stage := last(c)
	verdict, err := NewRegister("verdict", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	slot, _ := p.Layout.Lookup("slot")
	p.Place(stage, &Table{Name: "bank", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpRegStore, Reg: p.AddRegister(verdict), A: slot, B: c.class}}})
	wantEmpty("register op in the last table", c)

	// A late table that lowers the fire flag for one selector in three.
	c, _, _ = randSlicedChain(t, rng, 8, 1)
	p, stage = last(c)
	p.Place(stage, &Table{Name: "veto", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpSelEQI, Dst: c.meta.Fire, A: c.meta.Fields[0], B: p.Layout.MustAdd("never", 8), Imm: 0}}})
	wantEmpty("late fire write", c)

	// A second pipe that counts packets per slot in its own register.
	c, _, _ = randSlicedChain(t, rng, 8, 2)
	p, stage = last(c)
	seen, err := NewRegister("seen", 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	slot2 := p.Layout.MustAdd("slot", 32)
	zero := p.Layout.MustAdd("zero", 8) // never written: the counter never restarts
	cnt := p.Layout.MustAdd("cnt", 32)
	slot, _ = c.progs[0].Layout.Lookup("slot")
	c.bridges[0].From = append(c.bridges[0].From, slot)
	c.bridges[0].To = append(c.bridges[0].To, slot2)
	p.Place(stage, &Table{Name: "seen", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpRegCntRestart, Reg: p.AddRegister(seen), Dst: cnt, A: slot2, B: zero}}})
	wantEmpty("stateful second pipe", c)
	total := 0
	for cell := 0; cell < seen.Size; cell++ {
		total += int(seen.Get(cell))
	}
	if total != len(pkts) {
		t.Fatalf("second-pipe register counted %d packets, want %d", total, len(pkts))
	}
}

// newPacketEngine is a test convenience: a single-program packet engine.
func newPacketEngine(prog *Program, meta PacketMeta, out []FieldID, class FieldID, workers int, mode ExecMode) *Engine {
	e := NewChainEngineMode([]*Program{prog}, nil, nil, out, class, workers, mode)
	e.ConfigurePackets(meta)
	return e
}

// TestValidateOneRMWPerPacket pins the static one-RMW rule: two ops on
// one register in one action, or two tables sharing a register without
// provably exclusive gates, must fail validation; exclusive equality
// gates must pass.
func TestValidateOneRMWPerPacket(t *testing.T) {
	build := func() (*Program, FieldID, FieldID, int) {
		var l Layout
		sel := l.MustAdd("sel", 8)
		v := l.MustAdd("v", 16)
		p := NewProgram("rmw", &l, Tofino2)
		reg, err := NewRegister("r", 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		ri := p.AddRegister(reg)
		return p, sel, v, ri
	}

	// Two RMWs in one action: invalid.
	p, _, v, ri := build()
	p.Place(0, &Table{Name: "twice", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{
			{Kind: OpRegAdd, Reg: ri, Dst: v, A: v, B: v},
			{Kind: OpRegMax, Reg: ri, Dst: v, A: v, B: v},
		}})
	if err := p.Validate(); err == nil {
		t.Fatal("double RMW in one action validated")
	}

	// Two ungated tables sharing a register: invalid.
	p, _, v, ri = build()
	p.Place(0, &Table{Name: "a", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpRegAdd, Reg: ri, Dst: v, A: v, B: v}}})
	p.Place(1, &Table{Name: "b", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpRegLoad, Reg: ri, Dst: v, A: v}}})
	if err := p.Validate(); err == nil {
		t.Fatal("unguarded register sharing validated")
	}

	// Same-value equality gates: still overlapping, invalid.
	p, sel, v, ri := build()
	p.Place(0, &Table{Name: "a", Kind: MatchNone, DefaultData: []int32{},
		Gate:   &Gate{Field: sel, Op: GateEQ, Value: 1},
		Action: []Op{{Kind: OpRegAdd, Reg: ri, Dst: v, A: v, B: v}}})
	p.Place(1, &Table{Name: "b", Kind: MatchNone, DefaultData: []int32{},
		Gate:   &Gate{Field: sel, Op: GateEQ, Value: 1},
		Action: []Op{{Kind: OpRegLoad, Reg: ri, Dst: v, A: v}}})
	if err := p.Validate(); err == nil {
		t.Fatal("overlapping equality gates validated")
	}

	// Distinct equality gates on one field: provably exclusive, valid.
	p, sel, v, ri = build()
	p.Place(0, &Table{Name: "a", Kind: MatchNone, DefaultData: []int32{},
		Gate:   &Gate{Field: sel, Op: GateEQ, Value: 0},
		Action: []Op{{Kind: OpRegAdd, Reg: ri, Dst: v, A: v, B: v}}})
	p.Place(1, &Table{Name: "b", Kind: MatchNone, DefaultData: []int32{},
		Gate:   &Gate{Field: sel, Op: GateEQ, Value: 1},
		Action: []Op{{Kind: OpRegLoad, Reg: ri, Dst: v, A: v}}})
	if err := p.Validate(); err != nil {
		t.Fatalf("exclusive equality gates rejected: %v", err)
	}

	// Distinct equality gates whose field is REWRITTEN between the
	// sharing stages: a packet arriving with sel=0 passes the first
	// gate, the rewrite flips sel to 1, and the second gate passes too
	// — two RMWs for one packet, so validation must reject it.
	p, sel, v, ri = build()
	p.Place(0, &Table{Name: "a", Kind: MatchNone, DefaultData: []int32{},
		Gate:   &Gate{Field: sel, Op: GateEQ, Value: 0},
		Action: []Op{{Kind: OpRegAdd, Reg: ri, Dst: v, A: v, B: v}}})
	p.Place(1, &Table{Name: "flip", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpSet, Dst: sel, Imm: 1}}})
	p.Place(2, &Table{Name: "b", Kind: MatchNone, DefaultData: []int32{},
		Gate:   &Gate{Field: sel, Op: GateEQ, Value: 1},
		Action: []Op{{Kind: OpRegLoad, Reg: ri, Dst: v, A: v}}})
	if err := p.Validate(); err == nil {
		t.Fatal("gate field rewritten between sharing stages validated")
	}
}

// TestRegExchSemantics pins the read-and-replace op in both execution
// modes: the destination receives the previous cell value, the cell the
// operand.
func TestRegExchSemantics(t *testing.T) {
	var l Layout
	slotF := l.MustAdd("slot", 8)
	in := l.MustAdd("in", 16)
	old := l.MustAdd("old", 16)
	prog := NewProgram("exch", &l, Tofino2)
	reg, err := NewRegisterInit("last", 16, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	ri := prog.AddRegister(reg)
	prog.Place(0, &Table{Name: "x", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpRegExch, Reg: ri, Dst: old, A: slotF, B: in}}})
	plan := CompileProgram(prog)

	for _, run := range []struct {
		name string
		proc func(*PHV)
	}{
		{"interp", prog.Process},
		{"compiled", plan.Process},
	} {
		prog.ResetState()
		phv := l.NewPHV()
		seq := []int32{3, 11, 5}
		wantOld := []int32{7, 3, 11} // init 7, then previous writes
		for i, v := range seq {
			phv.Reset()
			phv.Set(slotF, 2)
			phv.Set(in, v)
			run.proc(phv)
			if got := phv.Get(old); got != wantOld[i] {
				t.Fatalf("%s step %d: old = %d, want %d", run.name, i, got, wantOld[i])
			}
		}
		if got := reg.Get(2); got != 5 {
			t.Fatalf("%s: final cell = %d, want 5", run.name, got)
		}
	}
}

// TestRunPacketsChunkedMatchesWhole pins that flow state persists
// across RunPackets calls: a trace cut into uneven batches — single
// packets among them — fires exactly what one whole-trace call fires,
// with each batch's Pkt indices local to it, in both exec modes.
func TestRunPacketsChunkedMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prog, meta, outs := randStatefulProgram(t, rng, 8)
	pkts := randSlicedPackets(rng, 5000)
	for _, workers := range []int{1, 4} {
		for _, mode := range []ExecMode{ExecInterpret, ExecCompiled} {
			eng := newPacketEngine(prog, meta, outs, outs[0], workers, mode)
			prog.ResetState()
			var got []PacketResult
			for lo := 0; lo < len(pkts); {
				hi := min(len(pkts), lo+1+rng.Intn(700))
				for _, r := range eng.RunPackets(pkts[lo:hi]) {
					// Outs alias staging the next call overwrites.
					r.Pkt += lo
					r.Outs = append([]int32(nil), r.Outs...)
					got = append(got, r)
				}
				lo = hi
			}
			prog.ResetState()
			want := eng.RunPackets(pkts)
			eng.Close()
			if len(want) == 0 {
				t.Fatal("the whole trace fired nothing")
			}
			sameRows(t, fmt.Sprintf("[%v w%d]", mode, workers), got, want)
		}
	}
}

// TestRunPacketsStatsAccounting pins the packet path's session
// counters: an empty batch is a no-op (nil result, no task, no count),
// a one-packet batch on a multi-shard solo engine runs as exactly one
// inline task, and over a chunked replay Packets, Fires and RegRMWs
// add up to what the batches returned and to what an interpreter engine
// counts over the same trace.
func TestRunPacketsStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	prog, meta, outs := randStatefulProgram(t, rng, 8)
	pkts := randSlicedPackets(rng, 3000)
	var rmws []uint64
	for _, mode := range []ExecMode{ExecInterpret, ExecCompiled} {
		eng := newPacketEngine(prog, meta, outs, outs[0], 4, mode)
		prog.ResetState()
		if res := eng.RunPackets(nil); res != nil {
			t.Fatalf("%v: empty batch returned %d fires", mode, len(res))
		}
		if st := eng.Stats(); st.Tasks != 0 || st.Packets != 0 || st.Fires != 0 || st.RegRMWs != 0 {
			t.Fatalf("%v: empty batch was accounted: %+v", mode, st)
		}
		fires := len(eng.RunPackets(pkts[:1]))
		if st := eng.Stats(); st.Tasks != 1 || st.Packets != 1 || st.Fires != uint64(fires) {
			t.Fatalf("%v: one-packet batch accounted as %d tasks, %d packets, %d fires (returned %d)",
				mode, st.Tasks, st.Packets, st.Fires, fires)
		}
		for lo := 1; lo < len(pkts); {
			hi := min(len(pkts), lo+1+rng.Intn(500))
			fires += len(eng.RunPackets(pkts[lo:hi]))
			lo = hi
		}
		st := eng.Stats()
		eng.Close()
		if st.Packets != uint64(len(pkts)) || st.Fires != uint64(fires) || fires == 0 {
			t.Fatalf("%v: counted %d packets and %d fires, replayed %d and returned %d",
				mode, st.Packets, st.Fires, len(pkts), fires)
		}
		if st.RegRMWs == 0 {
			t.Fatalf("%v: a stateful replay counted no register RMWs", mode)
		}
		rmws = append(rmws, st.RegRMWs)
	}
	if rmws[0] != rmws[1] {
		t.Fatalf("RegRMWs: interpreter %d, compiled %d", rmws[0], rmws[1])
	}
}

// TestRegisterBankedLayout pins the arena-compaction contract: logical
// cell contents survive repacking to any shard count (power-of-two fast
// path and the general divisor layout alike), and Get/Set keep
// addressing logical indices.
func TestRegisterBankedLayout(t *testing.T) {
	build := func(size int) (*Program, *Register) {
		var l Layout
		l.MustAdd("x", 32)
		p := NewProgram("bank", &l, Tofino2)
		r, err := NewRegister("state", 32, size)
		if err != nil {
			t.Fatal(err)
		}
		p.AddRegister(r)
		return p, r
	}
	check := func(r *Register, size int, tag string) {
		t.Helper()
		for i := 0; i < size; i++ {
			if got := r.Get(i); got != int32(100+i) {
				t.Fatalf("%s: cell %d = %d, want %d", tag, i, got, 100+i)
			}
		}
	}
	for _, tc := range []struct{ size, shards, reshards int }{
		{8, 4, 2},  // pow2 fast path both ways
		{6, 3, 2},  // general divisor layout
		{6, 4, 1},  // 4 ∤ 6 → natural layout fallback inside rebase
		{16, 1, 8}, // natural → banked
	} {
		p, r := build(tc.size)
		for i := 0; i < tc.size; i++ {
			r.Set(i, int32(100+i))
		}
		p.CompactRegisters(tc.shards)
		check(r, tc.size, "first compaction")
		// Writes through the banked layout must round-trip too.
		for i := 0; i < tc.size; i++ {
			r.Set(i, int32(100+i))
		}
		p.CompactRegisters(tc.reshards)
		check(r, tc.size, "recompaction")
	}
}
