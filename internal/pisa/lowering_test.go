package pisa

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestCompiledGateFamilies pins where a gate family starts and stops:
// adjacent == gates on one field merge whatever their members lowered
// to, constants may repeat (bodies run in table order) or be negative;
// a member that writes the gate field, a constant too far away, another
// field and another comparison each end the run. A family is stateful
// as a whole, so the fire cut never falls inside one.
func TestCompiledGateFamilies(t *testing.T) {
	var l Layout
	g := l.MustAdd("g", 16)
	h := l.MustAdd("h", 8)
	k := l.MustAdd("k", 16)
	a := l.MustAdd("a", 32)
	b := l.MustAdd("b", 32)
	prog := NewProgram("families", &l, Tofino2)
	stage := 0
	place := func(gate *Gate, tbl *Table) {
		tbl.Name, tbl.Gate = nm("t", stage), gate
		if tbl.Kind == MatchNone {
			tbl.DefaultData = []int32{}
		}
		prog.Place(stage, tbl)
		stage++
	}
	eq := func(f FieldID, v int32) *Gate { return &Gate{Field: f, Op: GateEQ, Value: v} }
	set := func(dst FieldID, v int32) *Table {
		return &Table{Kind: MatchNone, Action: []Op{{Kind: OpSet, Dst: dst, Imm: v}}}
	}
	// Family of four: a repeated constant (the second body sees the
	// first's write), a negative one over a direct table, an interval.
	place(eq(g, 1), set(a, 10))
	place(eq(g, 1), &Table{Kind: MatchNone, Action: []Op{{Kind: OpAddImm, Dst: a, A: a, Imm: 1}}})
	place(eq(g, -2), &Table{Kind: MatchExact, KeyFields: []FieldID{k}, KeyWidths: []int{4},
		Entries: []Entry{{Key: []uint32{3}, Data: []int32{33}}}, DefaultData: []int32{-1},
		Action: []Op{{Kind: OpSetData, Dst: b, DataIdx: 0}}})
	place(eq(g, 3), &Table{Kind: MatchTernary, KeyFields: []FieldID{k}, KeyWidths: []int{16},
		Entries: []Entry{{Key: []uint32{0x100}, Mask: []uint32{0xff00}, Data: []int32{44}}},
		Action:  []Op{{Kind: OpSetData, Dst: b, DataIdx: 0}}})
	// Writes the gate field: a unit of its own, and the gate behind it
	// must see the new value.
	place(eq(g, 1), set(g, 3))
	place(eq(g, 3), set(b, 7))
	// 300 is out of 3's reach; 301 joins 300.
	place(eq(g, 300), set(a, 300))
	place(eq(g, 301), set(a, 301))
	place(eq(h, 1), set(b, 8)) // another field
	place(&Gate{Field: g, Op: GateNE, Value: 1}, &Table{Kind: MatchNone, Action: []Op{{Kind: OpAddImm, Dst: b, A: b, Imm: 100}}})

	plan := CompileProgram(prog)
	if sh := plan.Shape(); fmt.Sprint(sh.Dispatch) != "[4 2]" || sh.Units != 6 || sh.Always != 4 {
		t.Fatalf("shape %v, want families of 4 and 2 bodies and four lone units", sh)
	}
	var inputs [][]int32
	for _, gv := range []int32{-3, -2, -1, 0, 1, 2, 3, 4, 299, 300, 301, 302, 70000, math.MinInt32, math.MaxInt32} {
		for _, kv := range []int32{0, 3, 0x100, 0x1ff, 0x200} {
			inputs = append(inputs, []int32{gv, 0, kv, -5, -6}, []int32{gv, 1, kv, -5, -6})
		}
	}
	diffProcess(t, prog, plan, []FieldID{g, h, k, a, b}, inputs)

	// A stateful member makes the family stateful: [family, tail].
	reg, err := NewRegister("r", 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	cut := NewProgram("straddle", &l, Tofino2)
	cut.Place(0, &Table{Name: "rmw", Kind: MatchNone, DefaultData: []int32{}, Gate: eq(g, 0),
		Action: []Op{{Kind: OpRegAdd, Reg: cut.AddRegister(reg), Dst: a, A: h, B: k}}})
	cut.Place(1, &Table{Name: "pure", Kind: MatchNone, DefaultData: []int32{}, Gate: eq(g, 1), Action: set(b, 5).Action})
	cut.Place(2, &Table{Name: "tail", Kind: MatchNone, DefaultData: []int32{}, Action: set(b, 6).Action})
	if cp := CompileProgram(cut); len(cp.units) != 2 || cp.statelessFrom(noField) != 1 {
		t.Fatalf("straddling family: %d units, stateless from %d; want 2 and 1", len(cp.units), cp.statelessFrom(noField))
	}
}

// TestCellIndexMatchesIntervalRow is the property test of the O(1)
// search: for key widths 1–32 and linear, logarithmic, random and
// clustered interval starts, the cell index must resolve key 0, the top
// of the domain and every boundary ±1 to the interval the binary search
// finds. Both finishes — two compares, search of the cell's span — must
// have been drawn.
func TestCellIndexMatchesIntervalRow(t *testing.T) {
	rng := drawRNG(t, 41)
	finishes := map[bool]int{}
	for w := 1; w <= 32; w++ {
		km := widthMask(w)
		cases := map[string][]uint64{"single": {0}}
		for _, step := range []uint64{1, 6, 64, 1000} {
			var lows []uint64
			for v := uint64(0); v <= uint64(km) && len(lows) < 700; v += step {
				lows = append(lows, v)
			}
			cases[fmt.Sprint("linear/", step)] = lows
		}
		for _, sub := range []uint64{1, 4, 12} { // sub steps per octave
			lows := []uint64{0}
			for o := uint64(1); o <= uint64(km); o <<= 1 {
				for s := uint64(0); s < sub; s++ {
					lows = append(lows, o+o*s/sub)
				}
			}
			cases[fmt.Sprint("log/", sub)] = lows
		}
		for n := 0; n < 6; n++ {
			lows := []uint64{0, uint64(km)}
			for i := rng.Intn(600); i > 0; i-- {
				lows = append(lows, uint64(rng.Uint32()&km))
			}
			// A run of adjacent starts high in the domain: no cell width
			// up to the bound keeps it to two per cell on wide keys.
			for c, i := uint64(rng.Uint32()&km), uint64(0); i < 40 && c+i <= uint64(km); i++ {
				lows = append(lows, c+i)
			}
			cases[fmt.Sprint("random/", n)] = lows
		}
		for name, lows := range cases {
			slices.Sort(lows)
			lows = slices.Compact(lows)
			ix := newCellIndex(lows, km)
			finishes[ix.span]++
			keys := []uint32{0, km}
			for _, b := range lows {
				keys = append(keys, uint32(b-1)&km, uint32(b), uint32(b+1)&km)
			}
			for _, key := range keys {
				want := intervalRow(lows, key)
				if lows[want] > uint64(key) || want+1 < len(lows) && lows[want+1] <= uint64(key) {
					t.Fatalf("width %d %s: intervalRow(%d) = %d, not the greatest start ≤ key", w, name, key, want)
				}
				if got := ix.row(key); got != want {
					t.Fatalf("width %d %s (m=%d span=%v): key %d in interval %d, want %d", w, name, ix.m, ix.span, key, got, want)
				}
			}
		}
	}
	if finishes[false] == 0 || finishes[true] == 0 {
		t.Fatalf("finishes drawn: %v, want both two-compare and span-search indexes", finishes)
	}
}

// TestSealedRegisterOpsDifferential runs every register op kind through
// a sealed stream — alone in its action, between stateless ops, and
// behind a lookup with action data — against runOps: 8/16/32-bit
// registers, natural and banked layouts (compacted before and after the
// plan is built), indices in range, out of range and negative, operands
// that truncate, and OpRegCntRestart under both predicate values. PHVs,
// RegRMWs and every cell must agree packet by packet.
func TestSealedRegisterOpsDifferential(t *testing.T) {
	rng := drawRNG(t, 53)
	kinds := []OpKind{OpRegLoad, OpRegStore, OpRegMax, OpRegMin, OpRegAdd, OpRegExch, OpRegCntRestart}
	for _, kind := range kinds {
		for _, width := range []int{8, 16, 32} {
			for _, lay := range []struct{ size, shards int }{{8, 1}, {8, 4}, {6, 3}} {
				for _, compactFirst := range []bool{true, false} {
					var l Layout
					idx := l.MustAdd("idx", 32)
					val := l.MustAdd("val", 32)
					key := l.MustAdd("key", 8)
					x := l.MustAdd("x", 32)
					y := l.MustAdd("y", 32)
					z := l.MustAdd("z", 32)
					prog := NewProgram("sealed", &l, Tofino2)
					var regs []int
					for i := 0; i < 3; i++ {
						r, err := NewRegisterInit(nm("r", i), width, lay.size, int32(rng.Intn(300)-150))
						if err != nil {
							t.Fatal(err)
						}
						regs = append(regs, prog.AddRegister(r))
					}
					op := func(reg int, dst FieldID) Op {
						return Op{Kind: kind, Reg: reg, Dst: dst, A: idx, B: val, Imm: int32(rng.Intn(90))}
					}
					prog.Place(0, &Table{Name: "alone", Kind: MatchNone, DefaultData: []int32{}, Action: []Op{op(regs[0], x)}})
					prog.Place(1, &Table{Name: "fence", Kind: MatchNone, DefaultData: []int32{}, Gate: &Gate{Field: key, Op: GateLE, Value: 2},
						Action: []Op{{Kind: OpAddImm, Dst: y, A: x, Imm: 1}, op(regs[1], y), {Kind: OpAdd, Dst: y, A: y, B: x}}})
					prog.Place(2, &Table{Name: "looked-up", Kind: MatchExact, KeyFields: []FieldID{key}, KeyWidths: []int{2},
						Entries: []Entry{{Key: []uint32{1}, Data: []int32{40, -7}}, {Key: []uint32{2}, Data: []int32{-300, 9}}},
						Action:  []Op{{Kind: OpSetData, Dst: z, DataIdx: 0}, op(regs[2], z), {Kind: OpAddData, Dst: z, A: z, DataIdx: 1}}})
					tag := fmt.Sprintf("op %d width %d size %d shards %d compactFirst %v", kind, width, lay.size, lay.shards, compactFirst)
					if err := prog.Validate(); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if compactFirst {
						prog.CompactRegisters(lay.shards)
					}
					plan := CompileProgram(prog)
					prog.CompactRegisters(lay.shards)

					idxs := []int32{0, 1, int32(lay.size - 1), int32(lay.size), int32(lay.size + 3), -1, -5, math.MinInt32, math.MaxInt32}
					vals := []int32{0, 0, 1, -1, 100, 127, 128, 300, -200, 40000, -40000, 70000, math.MaxInt32, math.MinInt32}
					type pkt struct{ idx, val, key int32 }
					pkts := make([]pkt, 400)
					for i := range pkts {
						pkts[i] = pkt{idxs[rng.Intn(len(idxs))], vals[rng.Intn(len(vals))], int32(rng.Intn(4))}
					}
					run := func(proc func(*PHV)) (phvs [][]int32, rmws uint64, cells [][]int32) {
						prog.ResetState()
						phv := l.NewPHV()
						for _, p := range pkts {
							phv.Reset()
							phv.Set(idx, p.idx)
							phv.Set(val, p.val)
							phv.Set(key, p.key)
							proc(phv)
							phvs = append(phvs, slices.Clone(phv.Vals))
						}
						return phvs, phv.RegRMWs, snapshotRegs(prog)
					}
					wantPHVs, wantRMWs, wantCells := run(prog.Process)
					gotPHVs, gotRMWs, gotCells := run(plan.Process)
					for i := range wantPHVs {
						if !slices.Equal(gotPHVs[i], wantPHVs[i]) {
							t.Fatalf("%s: packet %d %+v: PHV %v, want %v", tag, i, pkts[i], gotPHVs[i], wantPHVs[i])
						}
					}
					if gotRMWs != wantRMWs {
						t.Fatalf("%s: %d register RMWs, want %d", tag, gotRMWs, wantRMWs)
					}
					for r := range wantCells {
						if !slices.Equal(gotCells[r], wantCells[r]) {
							t.Fatalf("%s: register %d cells %v, want %v", tag, r, gotCells[r], wantCells[r])
						}
					}
				}
			}
		}
	}
}

// TestCompiledIntervalEqualDataMerge pins the equal-data merge of a
// searched interval table: neighbours with equal action data become one
// interval — also across a miss that a default fills with the same data
// — but a miss without default, which leaves the PHV untouched, stays
// apart from every interval that runs the action, even an action that
// reads no data at all.
func TestCompiledIntervalEqualDataMerge(t *testing.T) {
	build := func(def []int32, action func(out FieldID) []Op) (*Program, []FieldID) {
		var l Layout
		k := l.MustAdd("k", 16)
		out := l.MustAdd("out", 16)
		rule := func(lo uint32, bits int, data int32) Entry {
			return Entry{Key: []uint32{lo}, Mask: []uint32{widthMask(16) &^ widthMask(bits)}, Data: []int32{data}}
		}
		prog := NewProgram("merge", &l, Tofino2)
		prog.Place(0, &Table{Name: "t", Kind: MatchTernary, KeyFields: []FieldID{k}, KeyWidths: []int{16},
			Entries: []Entry{
				rule(0x000, 7, 5), rule(0x080, 7, 5), // [0,0xff] in two rules of equal data
				rule(0x100, 8, 7),
				// [0x200,0x2ff] uncovered
				rule(0x300, 8, 5),
			},
			DefaultData: def, Action: action(out)})
		return prog, []FieldID{k, out}
	}
	setData := func(out FieldID) []Op { return []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}} }
	noData := func(out FieldID) []Op { return []Op{{Kind: OpSet, Dst: out, Imm: 9}} }
	var inputs [][]int32
	for _, k := range []int32{0, 0x7f, 0x80, 0xff, 0x100, 0x1ff, 0x200, 0x2ff, 0x300, 0x3ff, 0x400, 0xffff} {
		inputs = append(inputs, []int32{k, -1}) // out preset: an untouched miss shows
	}
	for _, tc := range []struct {
		name   string
		def    []int32
		action func(FieldID) []Op
		want   string
	}{
		{"no default", nil, setData, "[5]"},                   // 5 | 7 | miss | 5 | miss
		{"default of equal data", []int32{5}, setData, "[3]"}, // 5 | 7 | miss=5, 5, miss=5
		{"default of other data", []int32{6}, setData, "[5]"},
		{"no data, no default", nil, noData, "[4]"}, // run | miss | run | miss
		{"no data, default", []int32{}, noData, "[1]"},
	} {
		prog, fields := build(tc.def, tc.action)
		plan := CompileProgram(prog)
		if got := fmt.Sprint(plan.Shape().Interval); got != tc.want {
			t.Errorf("%s: intervals %s, want %s", tc.name, got, tc.want)
		}
		diffProcess(t, prog, plan, fields, inputs)
	}
}
