package pisa

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// seedRuns counts, per test, the runs made in this process.
var seedRuns sync.Map

// drawRNG seeds a random-program test: base on the test's first run —
// the tier-1 draw, the same on every machine — and another seed on
// each repeat, so that `go test -count=N` (CI) compares N draws instead
// of one draw N times. A repeat logs its seed for replay.
func drawRNG(t *testing.T, base int64) *rand.Rand {
	n, _ := seedRuns.LoadOrStore(t.Name(), new(int64))
	run := n.(*int64)
	seed := base + 1000003**run
	if *run++; seed != base {
		t.Logf("draw %d: seed %d", *run, seed)
	}
	return rand.New(rand.NewSource(seed))
}

// randProgram generates a random program exercising every compiled
// specialisation: merged always-runs, gated tables, direct-indexed and
// hashed exact tables, value tables and load runs, interval-coded,
// bitmap (two to four fields; data from a small alphabet and the
// equal-data runs of coverRuns, so that cover groups form, fail to form
// and land past the first row word) and generic ternary tables,
// register read-modify-writes, and gate families:
// adjacent tables of any of those kinds gated == on one field, with
// repeating, negative and large constants, a member now and then
// writing the gate field (its random destinations include it), which
// must end the run.
func randProgram(t *testing.T, rng *rand.Rand) (*Program, []FieldID) {
	t.Helper()
	var l Layout
	fields := make([]FieldID, 8)
	for i := range fields {
		fields[i] = l.MustAdd(fieldName(i), 16)
	}
	prog := NewProgram("fuzz", &l, Tofino2)
	reg, err := NewRegister("r", 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	ri := prog.AddRegister(reg)

	f := func() FieldID { return fields[rng.Intn(len(fields))] }
	randOps := func(n, dataLen int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			switch rng.Intn(8) {
			case 0:
				ops[i] = Op{Kind: OpSet, Dst: f(), Imm: int32(rng.Intn(100))}
			case 1:
				ops[i] = Op{Kind: OpAdd, Dst: f(), A: f(), B: f()}
			case 2:
				ops[i] = Op{Kind: OpMax, Dst: f(), A: f(), B: f()}
			case 3:
				ops[i] = Op{Kind: OpAndImm, Dst: f(), A: f(), Imm: 0xff}
			case 4:
				ops[i] = Op{Kind: OpSelGE, Dst: f(), A: f(), B: f(), Imm: int32(rng.Intn(10))}
			case 5:
				if dataLen > 0 {
					ops[i] = Op{Kind: OpSetData, Dst: f(), DataIdx: rng.Intn(dataLen)}
				} else {
					ops[i] = Op{Kind: OpMove, Dst: f(), A: f()}
				}
			case 6:
				if dataLen > 0 {
					ops[i] = Op{Kind: OpAddData, Dst: f(), A: f(), DataIdx: rng.Intn(dataLen)}
				} else {
					ops[i] = Op{Kind: OpSub, Dst: f(), A: f(), B: f()}
				}
			default:
				// Register RMW on a cell derived from a field value.
				idx := f()
				ops[i] = Op{Kind: OpAndImm, Dst: idx, A: idx, Imm: 7}
				if i+1 < len(ops) {
					i++
					ops[i] = Op{Kind: OpRegAdd, Reg: ri, Dst: f(), A: idx, B: f()}
				}
			}
		}
		return ops
	}
	var family *Gate // set while a gate family is drawn: every table takes it
	randGate := func() *Gate {
		if family != nil {
			g := *family
			g.Value += int32(rng.Intn(4))
			return &g
		}
		if rng.Intn(3) != 0 {
			return nil
		}
		return &Gate{Field: f(), Op: GateOp(1 + rng.Intn(4)), Value: int32(rng.Intn(4))}
	}
	randData := func(n int) []int32 {
		d := make([]int32, n)
		for i := range d {
			d[i] = int32(rng.Intn(200) - 100)
		}
		return d
	}

	stage := 0
	addTable := func(tbl *Table) {
		prog.Place(stage, tbl)
		stage++
	}

	var gen func(n, kind int)
	gen = func(n, kind int) {
		dataLen := 1 + rng.Intn(3)
		switch kind {
		case 8: // gate family: the field brought into the constants' range, then the members
			g, base := f(), []int32{0, 0, -2, 254, 70000}[rng.Intn(5)]
			addTable(&Table{Name: nm("famkey", n), Kind: MatchNone, DefaultData: []int32{}, Action: []Op{
				{Kind: OpAndImm, Dst: g, A: g, Imm: 3}, {Kind: OpAddImm, Dst: g, A: g, Imm: base}}})
			family = &Gate{Field: g, Op: GateEQ, Value: base}
			for k := 0; k < 2+rng.Intn(5); k++ {
				gen(n, []int{0, 0, 1, 3, 4, 6}[rng.Intn(6)])
			}
			family = nil
		case 0: // always-run (merge candidates: often ungated, back to back)
			addTable(&Table{Name: nm("always", n), Kind: MatchNone,
				DefaultData: randData(dataLen), Action: randOps(3, dataLen), Gate: randGate()})
		case 1: // narrow single-field exact -> direct index
			w := 4 + rng.Intn(5)
			entries := make([]Entry, 1+rng.Intn(10))
			for i := range entries {
				entries[i] = Entry{Key: []uint32{uint32(rng.Intn(1 << w))}, Data: randData(dataLen)}
			}
			var def []int32
			if rng.Intn(2) == 0 {
				def = randData(dataLen)
			}
			addTable(&Table{Name: nm("direct", n), Kind: MatchExact,
				KeyFields: []FieldID{f()}, KeyWidths: []int{w}, Entries: entries,
				Action: randOps(2, dataLen), DefaultData: def, Gate: randGate()})
		case 2: // multi-field exact -> hash
			entries := make([]Entry, 1+rng.Intn(12))
			for i := range entries {
				entries[i] = Entry{Key: []uint32{uint32(rng.Intn(1 << 10)), uint32(rng.Intn(1 << 12))},
					Data: randData(dataLen)}
			}
			addTable(&Table{Name: nm("hash", n), Kind: MatchExact,
				KeyFields: []FieldID{f(), f()}, KeyWidths: []int{10, 12}, Entries: entries,
				Action: randOps(2, dataLen), Gate: randGate()})
		case 3: // single-field prefix ternary -> dense (w<=12) or interval search
			w := 8 + rng.Intn(9)
			entries := make([]Entry, 1+rng.Intn(10))
			for i := range entries {
				plen := rng.Intn(w + 1)
				mask := widthMask(w) &^ widthMask(w-plen)
				entries[i] = Entry{Key: []uint32{uint32(rng.Intn(1<<w)) & mask},
					Mask: []uint32{mask}, Data: randData(dataLen)}
			}
			var def []int32
			if rng.Intn(2) == 0 {
				def = randData(dataLen)
			}
			addTable(&Table{Name: nm("interval", n), Kind: MatchTernary,
				KeyFields: []FieldID{f()}, KeyWidths: []int{w}, Entries: entries,
				Action: randOps(2, dataLen), DefaultData: def, Gate: randGate()})
		case 4: // multi-field ternary -> bitmap (prefix masks) or generic scan
			// One narrow and one wide dimension, so the bitmap path
			// exercises both dense rows and cell-indexed ones.
			w0, w1 := 8, 10+rng.Intn(6)
			alphabet := [][]int32{randData(dataLen), randData(dataLen), randData(dataLen)}
			var entries []Entry
			if rng.Intn(2) == 0 {
				for rules := 1 + rng.Intn(10); len(entries) < rules; {
					entries = coverRuns(rng, []int{w0, w1}, alphabet, entries)
				}
			} else {
				entries = make([]Entry, 1+rng.Intn(10))
				for i := range entries {
					m0, m1 := rng.Uint32()&widthMask(w0), rng.Uint32()&widthMask(w1)
					entries[i] = Entry{
						Key:  []uint32{rng.Uint32() & m0, rng.Uint32() & m1},
						Mask: []uint32{m0, m1}, Data: alphabet[rng.Intn(len(alphabet))]}
				}
			}
			addTable(&Table{Name: nm("multi", n), Kind: MatchTernary,
				KeyFields: []FieldID{f(), f()}, KeyWidths: []int{w0, w1}, Entries: entries,
				Action: randOps(2, dataLen), Gate: randGate()})
		case 5: // back-to-back single-destination loads -> load runs
			dst := f()
			for k := 0; k < 1+rng.Intn(4); k++ {
				key := f()
				if rng.Intn(2) == 0 {
					key = dst // keyed on the previous load's destination
				}
				dst = f()
				w := 3 + rng.Intn(4)
				var entries []Entry
				for v := 0; v < 1<<w; v++ {
					if rng.Intn(8) != 0 { // mostly full domains
						entries = append(entries, Entry{Key: []uint32{uint32(v)}, Data: randData(dataLen)})
					}
				}
				var def []int32
				if rng.Intn(2) == 0 {
					def = randData(dataLen)
				}
				var gate *Gate
				if rng.Intn(4) == 0 { // a gated load must end the run
					gate = &Gate{Field: f(), Op: GateOp(1 + rng.Intn(4)), Value: int32(rng.Intn(4))}
				}
				addTable(&Table{Name: nm(nm("load", n), k), Kind: MatchExact,
					KeyFields: []FieldID{key}, KeyWidths: []int{w}, Entries: entries, DefaultData: def, Gate: gate,
					Action: []Op{{Kind: OpSetData, Dst: dst, DataIdx: rng.Intn(dataLen)}}})
			}
		case 6: // three- and four-field prefix ternary, several row words -> bitmap
			nf := 3 + rng.Intn(2)
			tbl := &Table{Name: nm("combo", n), Kind: MatchTernary, Action: randOps(2, dataLen), Gate: randGate()}
			for d := 0; d < nf; d++ {
				tbl.KeyFields = append(tbl.KeyFields, f())
				tbl.KeyWidths = append(tbl.KeyWidths, []int{4, 6, 13, 16}[rng.Intn(4)])
			}
			alphabet := [][]int32{randData(dataLen), randData(dataLen), randData(dataLen), randData(dataLen)}
			for rules := 40 + rng.Intn(200); len(tbl.Entries) < rules; {
				// A first row word of narrow rules of alternating data — 64
				// groups that rarely hit — so that hits land in later words too.
				if r := len(tbl.Entries); r < 64 {
					tbl.Entries = append(tbl.Entries, randPrefixEntry(rng, tbl.KeyWidths, true, alphabet[r%2]))
				} else {
					tbl.Entries = coverRuns(rng, tbl.KeyWidths, alphabet, tbl.Entries)
				}
			}
			if rng.Intn(2) == 0 {
				tbl.DefaultData = randData(dataLen)
			}
			addTable(tbl)
		default: // wide single-field exact -> hashed, not direct
			entries := make([]Entry, 1+rng.Intn(8))
			for i := range entries {
				entries[i] = Entry{Key: []uint32{rng.Uint32() & widthMask(16)}, Data: randData(dataLen)}
			}
			// Duplicate a key occasionally to test first-match priority.
			if len(entries) > 2 {
				entries[len(entries)-1].Key[0] = entries[0].Key[0]
			}
			addTable(&Table{Name: nm("exact16", n), Kind: MatchExact,
				KeyFields: []FieldID{f()}, KeyWidths: []int{16}, Entries: entries,
				Action: randOps(2, dataLen), Gate: randGate()})
		}
	}
	for n := 0; n < 6+rng.Intn(6); n++ {
		gen(n, rng.Intn(9))
	}
	return prog, fields
}

// randPrefixEntry draws one prefix-mask ternary entry over fields of
// the given widths: narrow entries wildcard at most two low bits per
// field and rarely hit, the others draw every prefix length.
func randPrefixEntry(rng *rand.Rand, widths []int, narrow bool, data []int32) Entry {
	e := Entry{Data: data}
	for _, w := range widths {
		free := rng.Intn(w + 1)
		if narrow {
			free = rng.Intn(3)
		}
		mask := widthMask(w) &^ widthMask(free)
		e.Key = append(e.Key, rng.Uint32()&mask)
		e.Mask = append(e.Mask, mask)
	}
	return e
}

// coverRuns appends the next rules of a prefix-ternary table over
// fields of the given widths, data from the alphabet: a lone random
// rule, or an equal-data run (of other data than the rule before it)
// built on the cross product of one to three prefixes per field,
// shuffled — (a) the product itself, which must lower to one cover
// group, (b) less one box, (c) with one box twice, (d) cut in two by a
// broad rule of other data, which must keep its priority over the second
// part. (b) and (c) are no cross products and must stay one group per
// rule; so must an (a) whose short prefixes happened to coincide or whose
// successor drew its data.
func coverRuns(rng *rand.Rand, widths []int, alphabet [][]int32, entries []Entry) []Entry {
	pick, kind := rng.Intn(len(alphabet)), rng.Intn(6)
	if kind > 3 {
		return append(entries, randPrefixEntry(rng, widths, false, alphabet[pick]))
	}
	if n := len(entries); n > 0 && slices.Equal(entries[n-1].Data, alphabet[pick]) {
		pick = (pick + 1) % len(alphabet)
	}
	data := alphabet[pick]
	// prefix is a key and mask of plen bits whose top two bits are top.
	prefix := func(w, plen int, top uint32) (key, mask uint32) {
		mask = widthMask(w) &^ widthMask(w-plen)
		return (top<<(w-2) | rng.Uint32()&widthMask(w-2)) & mask, mask
	}
	run := []Entry{{Data: data}}
	for _, w := range widths {
		var next []Entry
		for n, top := 1+rng.Intn(3), rng.Uint32(); n > 0; n-- {
			key, mask := prefix(w, 1+rng.Intn(min(w, 5)), (top+uint32(n))&3)
			for _, e := range run {
				next = append(next, Entry{Key: append(slices.Clone(e.Key), key), Mask: append(slices.Clone(e.Mask), mask), Data: data})
			}
		}
		run = next
	}
	rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
	switch kind {
	case 1:
		run = run[1:]
	case 2:
		run = append(run, run[rng.Intn(len(run))])
	case 3:
		split := Entry{Data: alphabet[(pick+1)%len(alphabet)]}
		for _, w := range widths {
			key, mask := prefix(w, rng.Intn(3), rng.Uint32()&3)
			split.Key, split.Mask = append(split.Key, key), append(split.Mask, mask)
		}
		run = slices.Insert(run, rng.Intn(len(run)+1), split)
	}
	return append(entries, run...)
}

func fieldName(i int) string { return string(rune('a' + i)) }

func nm(base string, n int) string { return base + string(rune('0'+n)) }

// TestCompiledMatchesInterpreterFuzz is the differential equivalence
// test at the pisa level: random programs covering every execUnit kind,
// random packets, full-PHV and register-state bit-identity between
// Program.Process and CompiledProgram.Process.
func TestCompiledMatchesInterpreterFuzz(t *testing.T) {
	rng := drawRNG(t, 1234)
	families, bodies, rules, groups, deep := 0, 0, 0, 0, 0
	defer func() {
		// Members that write their gate field split families, so most are
		// short; some must still have held more than two bodies.
		if families < 5 || bodies <= 2*families {
			t.Errorf("%d gate families of %d bodies drawn: the family case of randProgram is not merging", families, bodies)
		}
		// Cover groups must have formed (128 rules merged away on the
		// leanest of 40 draws), and bitmap units past one row word of them.
		if rules-groups < 40 || deep == 0 {
			t.Errorf("%d rules in %d cover groups, %d bitmap units past one row word: coverRuns is not reaching the grouping", rules, groups, deep)
		}
	}()
	for trial := 0; trial < 40; trial++ {
		prog, fields := randProgram(t, rng)
		plan := CompileProgram(prog)
		sh := plan.Shape()
		for _, n := range sh.Dispatch {
			families, bodies = families+1, bodies+n
		}
		rules, groups = rules+sh.Rules, groups+sh.Groups
		for _, w := range sh.Bitmaps {
			if w > 1 {
				deep++
			}
		}
		ipv := prog.Layout.NewPHV()
		cpv := prog.Layout.NewPHV()
		for pkt := 0; pkt < 50; pkt++ {
			in := make([]int32, len(fields))
			for i := range in {
				in[i] = int32(rng.Intn(1 << 16))
			}
			// Interpreted pass.
			ipv.Reset()
			for i, f := range fields {
				ipv.Set(f, in[i])
			}
			prog.Process(ipv)
			iregs := snapshotRegs(prog)
			resetRegs(prog)
			// Compiled pass on the same register baseline.
			cpv.Reset()
			for i, f := range fields {
				cpv.Set(f, in[i])
			}
			plan.Process(cpv)
			cregs := snapshotRegs(prog)
			resetRegs(prog)

			for i := range ipv.Vals {
				if ipv.Vals[i] != cpv.Vals[i] {
					t.Fatalf("trial %d pkt %d: field %s interp %d compiled %d",
						trial, pkt, prog.Layout.Name(FieldID(i)), ipv.Vals[i], cpv.Vals[i])
				}
			}
			for r := range iregs {
				for c := range iregs[r] {
					if iregs[r][c] != cregs[r][c] {
						t.Fatalf("trial %d pkt %d: reg %d cell %d interp %d compiled %d",
							trial, pkt, r, c, iregs[r][c], cregs[r][c])
					}
				}
			}
		}
	}
}

func snapshotRegs(p *Program) [][]int32 {
	out := make([][]int32, len(p.Registers))
	for i, r := range p.Registers {
		out[i] = make([]int32, r.Size)
		for c := 0; c < r.Size; c++ {
			out[i][c] = r.Get(c)
		}
	}
	return out
}

func resetRegs(p *Program) {
	for _, r := range p.Registers {
		r.Reset()
	}
}

// TestCompiledAlwaysMerge checks that runs of ungated MatchNone tables
// collapse into one unit with correctly rebased action-data indices.
func TestCompiledAlwaysMerge(t *testing.T) {
	var l Layout
	a := l.MustAdd("a", 32)
	b := l.MustAdd("b", 32)
	prog := NewProgram("merge", &l, Tofino2)
	prog.Place(0, &Table{Name: "t0", Kind: MatchNone, DefaultData: []int32{7},
		Action: []Op{{Kind: OpSetData, Dst: a, DataIdx: 0}}})
	prog.Place(1, &Table{Name: "t1", Kind: MatchNone, DefaultData: []int32{0, 35},
		Action: []Op{{Kind: OpSetData, Dst: b, DataIdx: 1}}})
	prog.Place(2, &Table{Name: "t2", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpAdd, Dst: a, A: a, B: b}}})
	plan := CompileProgram(prog)
	if len(plan.units) != 1 {
		t.Fatalf("always-run not merged: %d units", len(plan.units))
	}
	phv := l.NewPHV()
	plan.Process(phv)
	if phv.Get(a) != 42 || phv.Get(b) != 35 {
		t.Fatalf("merged run: a=%d b=%d, want 42/35", phv.Get(a), phv.Get(b))
	}
	// Source table actions must be untouched by the merge's rebasing.
	if op := prog.Stages[1].Tables[0].Action[0]; op.DataIdx != 1 {
		t.Fatalf("merge mutated source table op: DataIdx=%d", op.DataIdx)
	}
}

// TestCompiledIntervalPriority pins first-match-wins on overlapping
// range-coded entries (the two-level tables append a catch-all last).
func TestCompiledIntervalPriority(t *testing.T) {
	var l Layout
	k := l.MustAdd("k", 8)
	out := l.MustAdd("out", 8)
	prog := NewProgram("prio", &l, Tofino2)
	prog.Place(0, &Table{Name: "t", Kind: MatchTernary,
		KeyFields: []FieldID{k}, KeyWidths: []int{8},
		Entries: []Entry{
			{Key: []uint32{0x40}, Mask: []uint32{0xc0}, Data: []int32{1}}, // [64,127]
			{Key: []uint32{0x00}, Mask: []uint32{0x80}, Data: []int32{2}}, // [0,127], shadowed above
			{Key: []uint32{0x00}, Mask: []uint32{0x00}, Data: []int32{3}}, // catch-all
		},
		Action: []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}}, DataWidthBits: 8})
	plan := CompileProgram(prog)
	ipv, cpv := l.NewPHV(), l.NewPHV()
	for v := 0; v < 256; v++ {
		ipv.Reset()
		ipv.Set(k, int32(v))
		prog.Process(ipv)
		cpv.Reset()
		cpv.Set(k, int32(v))
		plan.Process(cpv)
		if ipv.Get(out) != cpv.Get(out) {
			t.Fatalf("k=%d: interp %d compiled %d", v, ipv.Get(out), cpv.Get(out))
		}
	}
}

// diffProcess requires Program.Process and the compiled plan to leave
// bit-identical PHVs for every given assignment of the input fields.
func diffProcess(t *testing.T, prog *Program, plan *CompiledProgram, fields []FieldID, inputs [][]int32) {
	t.Helper()
	ipv, cpv := prog.Layout.NewPHV(), prog.Layout.NewPHV()
	for n, in := range inputs {
		ipv.Reset()
		cpv.Reset()
		for i, f := range fields {
			ipv.Set(f, in[i])
			cpv.Set(f, in[i])
		}
		prog.Process(ipv)
		plan.Process(cpv)
		for i := range ipv.Vals {
			if ipv.Vals[i] != cpv.Vals[i] {
				t.Fatalf("input %d %v: field %s interp %d compiled %d", n, in, prog.Layout.Name(FieldID(i)), ipv.Vals[i], cpv.Vals[i])
			}
		}
	}
}

// TestCompiledLoadRuns pins which tables become value tables and where
// load runs start and stop: a load keyed on its predecessor's
// destination stays in the run (and sees that destination), a gated
// load and a multi-destination value table each end it, and a
// partial-domain table without default keeps its slots, because its
// misses must leave the PHV untouched.
func TestCompiledLoadRuns(t *testing.T) {
	var l Layout
	a := l.MustAdd("a", 8)
	b := l.MustAdd("b", 8)
	g := l.MustAdd("g", 8)
	var x []FieldID
	for i := 0; i < 10; i++ {
		x = append(x, l.MustAdd(nm("x", i), 16))
	}
	prog := NewProgram("loads", &l, Tofino2)
	stage := 0
	full := func(w, mul int) (es []Entry) {
		for v := 0; v < 1<<w; v++ {
			es = append(es, Entry{Key: []uint32{uint32(v)}, Data: []int32{int32(v*mul + 1), int32(-v)}})
		}
		return es
	}
	load := func(key FieldID, w int, dst FieldID, entries []Entry, def []int32, gate *Gate) {
		prog.Place(stage, &Table{Name: nm("t", stage), Kind: MatchExact, KeyFields: []FieldID{key}, KeyWidths: []int{w},
			Entries: entries, DefaultData: def, Gate: gate, Action: []Op{{Kind: OpSetData, Dst: dst, DataIdx: 0}}})
		stage++
	}
	// Run of four: full domain; range-coded ternary with a catch-all;
	// keyed on the previous load's destination; partial domain with a
	// default.
	load(a, 4, x[0], full(4, 3), nil, nil)
	prog.Place(stage, &Table{Name: "range", Kind: MatchTernary, KeyFields: []FieldID{b}, KeyWidths: []int{8},
		Entries: []Entry{
			{Key: []uint32{0x40}, Mask: []uint32{0xc0}, Data: []int32{5}},
			{Key: []uint32{0}, Mask: []uint32{0}, Data: []int32{9}},
		}, Action: []Op{{Kind: OpSetData, Dst: x[1], DataIdx: 0}}})
	stage++
	load(x[1], 4, x[2], full(4, 7), nil, nil)
	load(a, 4, x[3], full(4, 2)[:5], []int32{-77}, nil)
	// A gated load ends the run and is a unit of its own.
	load(b, 3, x[4], full(3, 11), nil, &Gate{Field: g, Op: GateEQ, Value: 1})
	// Run of one, ended by a two-destination value table.
	load(x[4], 3, x[5], full(3, 13), nil, nil)
	prog.Place(stage, &Table{Name: "pair", Kind: MatchExact, KeyFields: []FieldID{b}, KeyWidths: []int{4}, Entries: full(4, 17),
		Action: []Op{{Kind: OpSetData, Dst: x[6], DataIdx: 1}, {Kind: OpSetData, Dst: x[7], DataIdx: 0}}})
	stage++
	// Run of two, ended by a partial-domain table without default.
	load(x[7], 5, x[8], full(5, 19), nil, nil)
	load(x[8], 5, x[9], full(5, 23), nil, nil)
	load(a, 4, x[0], full(4, 29)[3:], nil, nil)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}

	plan := CompileProgram(prog)
	sh := plan.Shape()
	if fmt.Sprint(sh.LoadRuns) != "[4 1 2]" || sh.ValueTables != 2 || sh.SlotDirect != 1 || sh.Units != 6 || sh.Tables != 10 {
		t.Errorf("shape %v, want load runs of 4, 1 and 2, two value tables, one slot-direct unit: 10 tables in 6 units", sh)
	}
	var inputs [][]int32
	for av := 0; av < 16; av++ {
		for bv := 0; bv < 256; bv += 5 {
			inputs = append(inputs, []int32{int32(av), int32(bv), int32(bv % 3)})
		}
	}
	diffProcess(t, prog, plan, []FieldID{a, b, g}, inputs)
}

// bitmapCase builds a one-table program over nf key fields of the
// given widths and returns probe keys: for every rule one key inside
// its box (which an earlier overlapping rule may still win), plus
// random keys, most of which miss.
func bitmapCase(rng *rand.Rand, widths []int, rules int, def []int32) (*Program, []FieldID, [][]int32) {
	var l Layout
	var keys []FieldID
	for d := range widths {
		keys = append(keys, l.MustAdd(nm("k", d), 16))
	}
	out := l.MustAdd("out", 32)
	tbl := &Table{Name: "combo", Kind: MatchTernary, KeyFields: keys, KeyWidths: widths, DefaultData: def,
		Action: []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}}}
	var probes [][]int32
	for r := 0; r < rules; r++ {
		e := randPrefixEntry(rng, widths, r%3 != 0, []int32{int32(r + 1)})
		tbl.Entries = append(tbl.Entries, e)
		in, miss := make([]int32, len(widths)), make([]int32, len(widths))
		for d, w := range widths {
			in[d] = int32(e.Key[d] | rng.Uint32()&(widthMask(w)&^e.Mask[d]))
			miss[d] = int32(rng.Uint32() & widthMask(w))
		}
		probes = append(probes, in, miss)
	}
	prog := NewProgram("bitmap", &l, Tofino2)
	prog.Place(0, tbl)
	return prog, keys, probes
}

// pre is a prefix of a key field: its top len bits are val.
type pre struct {
	val uint32
	len int
}

// coverRule is one hand-built rule over two key fields.
type coverRule struct {
	p0, p1 pre
	data   int32
}

// ruleRun is a run of consecutive equal-data rules and whether it must
// lower to one cover group (otherwise: one group per rule).
type ruleRun struct {
	rules []coverRule
	one   bool
}

// TestCompiledCoverGroups pins which equal-data runs of a multi-field
// ternary table lower to one cover group and that the lowering is exact
// either way: hand-built tables probed over their whole key domain
// against the interpreter, with and without default data, over two dense
// dimensions, a dense and a cell-indexed one, and four dimensions (every
// rule crossed with both halves of two one-bit fields, which keeps a
// product a product and anything else not one). Rules and groups are read
// off PlanShape. Random rule sets of distinct data, where no group forms,
// then cover rows of many words.
func TestCompiledCoverGroups(t *testing.T) {
	A, B, C, D, all := pre{0b00, 2}, pre{0b10, 2}, pre{0b0, 1}, pre{0b11, 2}, pre{}
	product := func(s0, s1 []pre, data int32) (rs []coverRule) {
		for _, p0 := range s0 {
			for _, p1 := range s1 {
				rs = append(rs, coverRule{p0, p1, data})
			}
		}
		return rs
	}
	abcd := product([]pre{A, B}, []pre{C, D}, 7) // A×C A×D B×C B×D
	catchAll := ruleRun{[]coverRule{{all, all, 9}}, true}
	var many, sparse []ruleRun
	for g := uint32(0); g < 70; g++ {
		// 70 groups of two boxes each: hits land in both row words.
		many = append(many, ruleRun{product([]pre{{g % 16, 4}}, []pre{{4 * (g / 16), 5}, {4*(g/16) + 2, 5}}, int32(100+g)), true})
	}
	// Key (1,2) finds a group in row word 0 in either dimension — (1,1)
	// and (2,2) — but none in both: the search must go on to word 1.
	exact := func(v0, v1 uint32, data int32) ruleRun {
		return ruleRun{[]coverRule{{pre{v0, 4}, pre{v1, 5}, data}}, true}
	}
	sparse = append(sparse, exact(1, 1, 100), exact(2, 2, 101))
	for len(sparse) < 70 {
		sparse = append(sparse, exact(15, 15, int32(len(sparse))))
	}
	sparse = append(sparse, exact(1, 2, 170))
	cases := []struct {
		name string
		runs []ruleRun
	}{
		{"(a) cross product", []ruleRun{{abcd, true}, catchAll}},
		{"(b) product less one box", []ruleRun{{abcd[1:], false}, catchAll}},
		{"(c) product with one box twice", []ruleRun{{append(abcd[:4:4], abcd[2]), false}, catchAll}},
		{"as many boxes as the product, one missing, one twice", []ruleRun{{append(abcd[1:4:4], abcd[2]), false}, catchAll}},
		{"L-shape A×C, B×D", []ruleRun{{[]coverRule{abcd[0], abcd[3]}, false}, catchAll}},
		{"(d) product cut by a rule of other data", []ruleRun{{[]coverRule{abcd[0], abcd[2]}, true}, catchAll, {[]coverRule{abcd[1], abcd[3]}, true}}},
		{"(e) 70 groups", append(many, catchAll)},
		{"no common group in row word 0", sparse},
	}
	halves := []pre{{0, 1}, {1, 1}}
	for _, widths := range [][]int{{4, 5}, {4, 13}, {4, 5, 1, 1}} {
		var l Layout
		var keys []FieldID
		inputs := [][]int32{{}}
		for d, w := range widths {
			keys = append(keys, l.MustAdd(nm("k", d), 16))
			var next [][]int32
			for _, in := range inputs {
				for v := int32(0); v < 1<<w; v++ {
					next = append(next, append(in[:len(in):len(in)], v))
				}
			}
			inputs = next
		}
		out := l.MustAdd("out", 32)
		entry := func(data int32, ps ...pre) Entry {
			e := Entry{Data: []int32{data}}
			for d, p := range ps {
				e.Key = append(e.Key, p.val<<(widths[d]-p.len))
				e.Mask = append(e.Mask, widthMask(widths[d])&^widthMask(widths[d]-p.len))
			}
			return e
		}
		for _, tc := range cases {
			for _, def := range [][]int32{nil, {-1}} {
				tbl := &Table{Name: "t", Kind: MatchTernary, KeyFields: keys, KeyWidths: widths, DefaultData: def,
					Action: []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}}}
				groups := 0
				for _, run := range tc.runs {
					n := len(tbl.Entries)
					for _, r := range run.rules {
						if len(widths) == 2 {
							tbl.Entries = append(tbl.Entries, entry(r.data, r.p0, r.p1))
							continue
						}
						for _, p2 := range halves {
							for _, p3 := range halves {
								tbl.Entries = append(tbl.Entries, entry(r.data, r.p0, r.p1, p2, p3))
							}
						}
					}
					if groups++; !run.one {
						groups += len(tbl.Entries) - n - 1
					}
				}
				prog := NewProgram("cover", &l, Tofino2)
				prog.Place(0, tbl)
				plan := CompileProgram(prog)
				tag := fmt.Sprintf("%s, widths %v, default %v", tc.name, widths, def)
				if sh := plan.Shape(); len(sh.Bitmaps) != 1 || sh.Bitmaps[0] != (groups+63)/64 || sh.Rules != len(tbl.Entries) || sh.Groups != groups {
					t.Errorf("%s: shape %v, want %d rules in %d groups", tag, sh, len(tbl.Entries), groups)
				}
				t.Run(tag, func(t *testing.T) { diffProcess(t, prog, plan, keys, inputs) })
				phv := l.NewPHV()
				if allocs := testing.AllocsPerRun(20, func() { plan.Process(phv) }); allocs != 0 {
					t.Fatalf("%s: bitmap lookup allocates %.1f heap objects per packet", tag, allocs)
				}
			}
		}
	}

	// Grouping defeated: every rule has its own data, so a bit is a rule
	// and rows run to many words; three and four key fields, dense and
	// cell-indexed dimensions. Every rule is probed inside its own box, so
	// hits land in every row word and first-match priority is checked
	// against the overlapping rules ahead of it.
	rng := rand.New(rand.NewSource(77))
	for _, tc := range []struct {
		widths []int
		rules  int
		def    []int32
	}{
		{[]int{6, 5, 5}, 40, nil},               // one row word
		{[]int{6, 14, 5}, 200, []int32{-1}},     // four row words, a cell-indexed dimension
		{[]int{6, 5, 5, 5}, 1500, nil},          // 24 row words
		{[]int{5, 13, 4, 16}, 4500, []int32{0}}, // 71 row words
	} {
		prog, keys, probes := bitmapCase(rng, tc.widths, tc.rules, tc.def)
		plan := CompileProgram(prog)
		if sh := plan.Shape(); len(sh.Bitmaps) != 1 || sh.Bitmaps[0] != (tc.rules+63)/64 || sh.Groups != tc.rules {
			t.Fatalf("widths %v, %d rules: shape %v, want one bitmap unit of a group per rule", tc.widths, tc.rules, sh)
		}
		diffProcess(t, prog, plan, keys, probes)
	}
}

// TestActionDataArity pins the arity check: an entry or default with
// fewer action-data values than the action reads is reported by
// Validate, table and entry named, and fails plan construction instead
// of panicking on the first packet that hits it.
func TestActionDataArity(t *testing.T) {
	build := func(entryData, def []int32) *Program {
		var l Layout
		k := l.MustAdd("k", 8)
		out := l.MustAdd("out", 16)
		p := NewProgram("arity", &l, Tofino2)
		p.Place(0, &Table{Name: "short", Kind: MatchExact, KeyFields: []FieldID{k}, KeyWidths: []int{4},
			Entries:     []Entry{{Key: []uint32{1}, Data: []int32{1, 2}}, {Key: []uint32{2}, Data: entryData}},
			DefaultData: def,
			Action:      []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}, {Kind: OpAddData, Dst: out, A: out, DataIdx: 1}}})
		return p
	}
	if err := build([]int32{3, 4}, []int32{5, 6}).Validate(); err != nil {
		t.Fatalf("full-arity table rejected: %v", err)
	}
	for _, tc := range []struct {
		p    *Program
		want string
	}{
		{build([]int32{3}, nil), `table "short" entry 1 has 1 action-data values, its action reads 2`},
		{build([]int32{3, 4}, []int32{}), `table "short" default has 0 action-data values, its action reads 2`},
	} {
		err := tc.p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Validate = %v, want it to report %q", err, tc.want)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("CompileProgram panic = %v, want %q", r, tc.want)
				}
			}()
			CompileProgram(tc.p)
		}()
	}
}
