package pisa

import (
	"strings"
	"testing"
)

func TestLayoutAddLookup(t *testing.T) {
	var l Layout
	a, err := l.Add("len", 16)
	if err != nil {
		t.Fatal(err)
	}
	b := l.MustAdd("ipd", 16)
	if a == b {
		t.Fatal("distinct fields share ID")
	}
	if _, err := l.Add("len", 8); err == nil {
		t.Fatal("want duplicate error")
	}
	if _, err := l.Add("bad", 0); err == nil {
		t.Fatal("want width error")
	}
	if _, err := l.Add("bad", 40); err == nil {
		t.Fatal("want width error")
	}
	if id, ok := l.Lookup("ipd"); !ok || id != b {
		t.Fatal("Lookup failed")
	}
	if l.Name(a) != "len" || l.Width(a) != 16 {
		t.Fatal("Name/Width")
	}
	if l.TotalBits() != 32 || l.NumFields() != 2 {
		t.Fatal("TotalBits/NumFields")
	}
}

func TestPHVSetGetReset(t *testing.T) {
	var l Layout
	f := l.MustAdd("x", 8)
	phv := l.NewPHV()
	phv.Set(f, 42)
	if phv.Get(f) != 42 {
		t.Fatal("Set/Get")
	}
	phv.Reset()
	if phv.Get(f) != 0 {
		t.Fatal("Reset")
	}
}

func TestExactTableHitMissDefault(t *testing.T) {
	var l Layout
	k := l.MustAdd("key", 8)
	out := l.MustAdd("out", 16)
	tbl := &Table{
		Name: "t", Kind: MatchExact,
		KeyFields: []FieldID{k}, KeyWidths: []int{8},
		Entries: []Entry{
			{Key: []uint32{5}, Data: []int32{100}},
			{Key: []uint32{9}, Data: []int32{200}},
		},
		Action:        []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}},
		DataWidthBits: 16,
	}
	phv := l.NewPHV()
	phv.Set(k, 9)
	if !tbl.apply(phv, nil) || phv.Get(out) != 200 {
		t.Fatalf("hit: out = %d", phv.Get(out))
	}
	phv.Reset()
	phv.Set(k, 7)
	if tbl.apply(phv, nil) {
		t.Fatal("miss without default should not run action")
	}
	tbl.DefaultData = []int32{-1}
	if !tbl.apply(phv, nil) || phv.Get(out) != -1 {
		t.Fatal("default data not applied")
	}
}

func TestExactTableMasksKeyToWidth(t *testing.T) {
	var l Layout
	k := l.MustAdd("key", 32)
	out := l.MustAdd("out", 8)
	tbl := &Table{
		Name: "t", Kind: MatchExact,
		KeyFields: []FieldID{k}, KeyWidths: []int{4},
		Entries:       []Entry{{Key: []uint32{0xA}, Data: []int32{1}}},
		Action:        []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}},
		DataWidthBits: 8,
	}
	phv := l.NewPHV()
	phv.Set(k, 0xFA) // low 4 bits = 0xA
	if !tbl.apply(phv, nil) || phv.Get(out) != 1 {
		t.Fatal("key not masked to declared width")
	}
}

func TestTernaryTableFirstMatch(t *testing.T) {
	var l Layout
	k := l.MustAdd("key", 8)
	out := l.MustAdd("out", 8)
	tbl := &Table{
		Name: "t", Kind: MatchTernary,
		KeyFields: []FieldID{k}, KeyWidths: []int{8},
		Entries: []Entry{
			{Key: []uint32{0x00}, Mask: []uint32{0xC0}, Data: []int32{1}}, // 00xxxxxx → [0,63]
			{Key: []uint32{0x00}, Mask: []uint32{0x00}, Data: []int32{2}}, // catch-all
		},
		Action:        []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}},
		DataWidthBits: 8,
	}
	phv := l.NewPHV()
	phv.Set(k, 42)
	tbl.apply(phv, nil)
	if phv.Get(out) != 1 {
		t.Fatalf("out = %d, want 1 (first match)", phv.Get(out))
	}
	phv.Set(k, 200)
	tbl.apply(phv, nil)
	if phv.Get(out) != 2 {
		t.Fatalf("out = %d, want 2 (catch-all)", phv.Get(out))
	}
}

func TestGate(t *testing.T) {
	var l Layout
	en := l.MustAdd("enable", 1)
	out := l.MustAdd("out", 8)
	tbl := &Table{
		Name: "t", Kind: MatchNone,
		DefaultData: []int32{7},
		Action:      []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}},
		Gate:        &Gate{Field: en, Op: GateEQ, Value: 1},
	}
	phv := l.NewPHV()
	if tbl.apply(phv, nil) {
		t.Fatal("gate should block")
	}
	phv.Set(en, 1)
	if !tbl.apply(phv, nil) || phv.Get(out) != 7 {
		t.Fatal("gate should pass")
	}
	for _, s := range []string{"!=", ">=", "<="} {
		op, err := ParseGateOp(s)
		if err != nil {
			t.Fatal(err)
		}
		if op.String() != s {
			t.Fatalf("GateOp round-trip: %q -> %q", s, op.String())
		}
		g := &Gate{Field: en, Op: op, Value: 1}
		g.pass(phv) // must not panic
	}
	if _, err := ParseGateOp("<"); err == nil {
		t.Fatal("ParseGateOp accepted unknown op")
	}
}

func TestALUOps(t *testing.T) {
	var l Layout
	a := l.MustAdd("a", 32)
	b := l.MustAdd("b", 32)
	d := l.MustAdd("d", 32)
	phv := l.NewPHV()
	run := func(op Op) int32 {
		runOps([]Op{op}, phv, []int32{55, 66}, nil)
		return phv.Get(d)
	}
	phv.Set(a, 12)
	phv.Set(b, 5)
	if run(Op{Kind: OpSet, Dst: d, Imm: 3}) != 3 {
		t.Fatal("OpSet")
	}
	if run(Op{Kind: OpMove, Dst: d, A: a}) != 12 {
		t.Fatal("OpMove")
	}
	if run(Op{Kind: OpAdd, Dst: d, A: a, B: b}) != 17 {
		t.Fatal("OpAdd")
	}
	if run(Op{Kind: OpSatAdd, Dst: d, A: a, B: b}) != 17 {
		t.Fatal("OpSatAdd")
	}
	if run(Op{Kind: OpSub, Dst: d, A: a, B: b}) != 7 {
		t.Fatal("OpSub")
	}
	if run(Op{Kind: OpMin, Dst: d, A: a, B: b}) != 5 {
		t.Fatal("OpMin")
	}
	if run(Op{Kind: OpMax, Dst: d, A: a, B: b}) != 12 {
		t.Fatal("OpMax")
	}
	if run(Op{Kind: OpShl, Dst: d, A: a, Imm: 2}) != 48 {
		t.Fatal("OpShl")
	}
	if run(Op{Kind: OpShr, Dst: d, A: a, Imm: 2}) != 3 {
		t.Fatal("OpShr")
	}
	if run(Op{Kind: OpAnd, Dst: d, A: a, B: b}) != 4 {
		t.Fatal("OpAnd")
	}
	if run(Op{Kind: OpOr, Dst: d, A: a, B: b}) != 13 {
		t.Fatal("OpOr")
	}
	if run(Op{Kind: OpXor, Dst: d, A: a, B: b}) != 9 {
		t.Fatal("OpXor")
	}
	if run(Op{Kind: OpAndImm, Dst: d, A: a, Imm: 8}) != 8 {
		t.Fatal("OpAndImm")
	}
	if run(Op{Kind: OpAddImm, Dst: d, A: a, Imm: -2}) != 10 {
		t.Fatal("OpAddImm")
	}
	if run(Op{Kind: OpSetData, Dst: d, DataIdx: 1}) != 66 {
		t.Fatal("OpSetData")
	}
	if run(Op{Kind: OpAddData, Dst: d, A: a, DataIdx: 0}) != 67 {
		t.Fatal("OpAddData")
	}
	phv.Set(d, -9)
	if run(Op{Kind: OpSelGE, Dst: d, A: a, B: b, Imm: 99}) != 99 {
		t.Fatal("OpSelGE taken")
	}
	phv.Set(d, -9)
	phv.Set(a, 1)
	if run(Op{Kind: OpSelGE, Dst: d, A: a, B: b, Imm: 99}) != -9 {
		t.Fatal("OpSelGE not taken")
	}
	phv.Set(a, 5)
	if run(Op{Kind: OpSelEQI, Dst: d, A: a, B: b, Imm: 5}) != 5 {
		t.Fatal("OpSelEQI taken")
	}
}

func TestRegisterWidthsAndTruncation(t *testing.T) {
	if _, err := NewRegister("r", 4, 8); err == nil {
		t.Fatal("4-bit registers must be rejected (paper footnote)")
	}
	if _, err := NewRegister("r", 8, 0); err == nil {
		t.Fatal("want size error")
	}
	r, err := NewRegister("r", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	r.Set(0, 200) // truncates to int8: 200 = 0xC8 → -56
	if r.Get(0) != -56 {
		t.Fatalf("8-bit truncation: %d", r.Get(0))
	}
	r16, _ := NewRegister("r16", 16, 2)
	r16.Set(1, 70000) // 70000 mod 2^16 = 4464
	if r16.Get(1) != 4464 {
		t.Fatalf("16-bit truncation: %d", r16.Get(1))
	}
	// OOB semantics.
	if r.Get(-1) != 0 || r.Get(99) != 0 {
		t.Fatal("OOB read should be 0")
	}
	r.Set(-1, 5) // must not panic
	if r.SRAMBits() != 32 {
		t.Fatalf("SRAMBits = %d, want 32", r.SRAMBits())
	}
	r.Fill(3)
	if r.Get(2) != 3 {
		t.Fatal("Fill")
	}
	r.Reset()
	if r.Get(2) != 0 {
		t.Fatal("Reset")
	}
}

func TestRegisterOps(t *testing.T) {
	var l Layout
	idx := l.MustAdd("idx", 16)
	v := l.MustAdd("v", 32)
	d := l.MustAdd("d", 32)
	reg, _ := NewRegister("state", 32, 8)
	regs := []*Register{reg}
	phv := l.NewPHV()
	phv.Set(idx, 3)
	phv.Set(v, 10)
	runOps([]Op{{Kind: OpRegStore, Reg: 0, A: idx, B: v}}, phv, nil, regs)
	if reg.Get(3) != 10 {
		t.Fatal("OpRegStore")
	}
	runOps([]Op{{Kind: OpRegLoad, Reg: 0, Dst: d, A: idx}}, phv, nil, regs)
	if phv.Get(d) != 10 {
		t.Fatal("OpRegLoad")
	}
	phv.Set(v, 25)
	runOps([]Op{{Kind: OpRegMax, Reg: 0, Dst: d, A: idx, B: v}}, phv, nil, regs)
	if reg.Get(3) != 25 || phv.Get(d) != 25 {
		t.Fatal("OpRegMax")
	}
	phv.Set(v, 7)
	runOps([]Op{{Kind: OpRegMin, Reg: 0, Dst: d, A: idx, B: v}}, phv, nil, regs)
	if reg.Get(3) != 7 {
		t.Fatal("OpRegMin")
	}
	runOps([]Op{{Kind: OpRegAdd, Reg: 0, Dst: d, A: idx, B: v}}, phv, nil, regs)
	if reg.Get(3) != 14 || phv.Get(d) != 14 {
		t.Fatal("OpRegAdd")
	}
}

func TestResourcesAccounting(t *testing.T) {
	var l Layout
	k := l.MustAdd("k", 8)
	o := l.MustAdd("o", 8)
	prog := NewProgram("test", &l, Tofino2)
	exact := &Table{Name: "e", Kind: MatchExact, KeyFields: []FieldID{k}, KeyWidths: []int{8},
		Entries:       make([]Entry, 10),
		Action:        []Op{{Kind: OpSetData, Dst: o}},
		DataWidthBits: 16}
	tern := &Table{Name: "t", Kind: MatchTernary, KeyFields: []FieldID{k}, KeyWidths: []int{8},
		Entries:       make([]Entry, 4),
		Action:        []Op{{Kind: OpSetData, Dst: o}},
		DataWidthBits: 32}
	prog.Place(0, exact)
	prog.Place(1, tern)
	reg, _ := NewRegister("r", 16, 100)
	prog.AddRegister(reg)
	res := prog.Resources()
	wantExactSRAM := 10 * (8 + 16)
	wantTernSRAM := 4 * 32
	wantTCAM := 4 * 2 * 8
	wantReg := 16 * 100
	if res.PerStage[0].SRAMBits != wantExactSRAM {
		t.Fatalf("stage0 SRAM = %d, want %d", res.PerStage[0].SRAMBits, wantExactSRAM)
	}
	if res.PerStage[1].SRAMBits != wantTernSRAM || res.PerStage[1].TCAMBits != wantTCAM {
		t.Fatalf("stage1 = %+v", res.PerStage[1])
	}
	if res.SRAMBits != wantExactSRAM+wantTernSRAM+wantReg {
		t.Fatalf("total SRAM = %d", res.SRAMBits)
	}
	if res.RegBits != wantReg {
		t.Fatalf("RegBits = %d", res.RegBits)
	}
	if res.PeakBusBits != 32 {
		t.Fatalf("PeakBusBits = %d, want 32", res.PeakBusBits)
	}
	if res.TCAMFrac(Tofino2) <= 0 || res.SRAMFrac(Tofino2) <= 0 || res.BusFrac(Tofino2) <= 0 {
		t.Fatal("fractions must be positive")
	}
	if !strings.Contains(prog.Summary(), "program") {
		t.Fatal("Summary")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	var l Layout
	k := l.MustAdd("k", 8)
	o := l.MustAdd("o", 8)

	// Too many stages.
	tiny := Capacity{Stages: 1, SRAMBitsPerStage: 1 << 20, TCAMBitsPerStage: 1 << 18, BusBits: 1024, PHVBits: 4096}
	prog := NewProgram("overflow", &l, tiny)
	prog.Place(0, &Table{Name: "a", Kind: MatchNone})
	prog.Place(1, &Table{Name: "b", Kind: MatchNone})
	if err := prog.Validate(); err == nil || !strings.Contains(err.Error(), "stages") {
		t.Fatalf("want stage error, got %v", err)
	}

	// SRAM overflow.
	prog2 := NewProgram("sram", &l, Capacity{Stages: 4, SRAMBitsPerStage: 100, TCAMBitsPerStage: 1 << 18, BusBits: 1024, PHVBits: 4096})
	prog2.Place(0, &Table{Name: "big", Kind: MatchExact, KeyFields: []FieldID{k}, KeyWidths: []int{8},
		Entries: make([]Entry, 50), DataWidthBits: 8})
	if err := prog2.Validate(); err == nil || !strings.Contains(err.Error(), "SRAM") {
		t.Fatalf("want SRAM error, got %v", err)
	}

	// Bus overflow.
	prog3 := NewProgram("bus", &l, Capacity{Stages: 4, SRAMBitsPerStage: 1 << 20, TCAMBitsPerStage: 1 << 18, BusBits: 16, PHVBits: 4096})
	prog3.Place(0, &Table{Name: "wide", Kind: MatchNone, DataWidthBits: 64})
	if err := prog3.Validate(); err == nil || !strings.Contains(err.Error(), "bus") {
		t.Fatalf("want bus error, got %v", err)
	}

	// Write conflict within a stage.
	prog4 := NewProgram("conflict", &l, Tofino2)
	prog4.Place(0, &Table{Name: "w1", Kind: MatchNone, DefaultData: []int32{1},
		Action: []Op{{Kind: OpSetData, Dst: o, DataIdx: 0}}})
	prog4.Place(0, &Table{Name: "w2", Kind: MatchNone, DefaultData: []int32{2},
		Action: []Op{{Kind: OpSetData, Dst: o, DataIdx: 0}}})
	if err := prog4.Validate(); err == nil || !strings.Contains(err.Error(), "both write") {
		t.Fatalf("want write-conflict error, got %v", err)
	}

	// A gateway reads its field at stage entry: a table gated on a field
	// another table of the same stage writes would see the old value on
	// the switch and the new one in the sequential simulator.
	gated := func(stage int) error {
		p := NewProgram("gate-hazard", &l, Tofino2)
		p.Place(0, &Table{Name: "writer", Kind: MatchNone, DefaultData: []int32{}, Action: []Op{{Kind: OpSet, Dst: k, Imm: 1}}})
		p.Place(stage, &Table{Name: "reader", Kind: MatchNone, DefaultData: []int32{}, Gate: &Gate{Field: k, Op: GateEQ, Value: 1},
			Action: []Op{{Kind: OpSet, Dst: o, Imm: 2}}})
		return p.Validate()
	}
	if err := gated(0); err == nil || !strings.Contains(err.Error(), `table "reader" reads k written by "writer" in same stage`) {
		t.Fatalf("want gate read-after-write error, got %v", err)
	}
	if err := gated(1); err != nil {
		t.Fatalf("gate one stage behind the write rejected: %v", err)
	}

	// Valid program passes.
	prog5 := NewProgram("ok", &l, Tofino2)
	prog5.Place(0, &Table{Name: "t", Kind: MatchExact, KeyFields: []FieldID{k}, KeyWidths: []int{8},
		Entries: []Entry{{Key: []uint32{1}, Data: []int32{5}}},
		Action:  []Op{{Kind: OpSetData, Dst: o, DataIdx: 0}}, DataWidthBits: 8})
	if err := prog5.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestEndToEndMiniPipeline(t *testing.T) {
	// Two-stage pipeline: stage 0 classifies k into a bucket via ternary
	// range rules; stage 1 accumulates bucket values via register.
	var l Layout
	k := l.MustAdd("k", 8)
	bucket := l.MustAdd("bucket", 8)
	idx := l.MustAdd("slot", 16)
	acc := l.MustAdd("acc", 32)
	prog := NewProgram("mini", &l, Tofino2)
	prog.Place(0, &Table{
		Name: "range", Kind: MatchTernary,
		KeyFields: []FieldID{k}, KeyWidths: []int{8},
		Entries: []Entry{
			{Key: []uint32{0x00}, Mask: []uint32{0x80}, Data: []int32{0}}, // [0,127]
			{Key: []uint32{0x00}, Mask: []uint32{0x00}, Data: []int32{1}}, // rest
		},
		Action:        []Op{{Kind: OpSetData, Dst: bucket, DataIdx: 0}},
		DataWidthBits: 8,
	})
	reg, _ := NewRegister("cnt", 32, 4)
	ri := prog.AddRegister(reg)
	prog.Place(1, &Table{
		Name: "count", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{
			{Kind: OpMove, Dst: idx, A: bucket},
			{Kind: OpRegAdd, Reg: ri, Dst: acc, A: idx, B: k},
		},
	})
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	phv := l.NewPHV()
	for _, v := range []int32{10, 200, 30} {
		phv.Reset()
		phv.Set(k, v)
		prog.Process(phv)
	}
	if reg.Get(0) != 40 { // 10 + 30
		t.Fatalf("bucket0 = %d, want 40", reg.Get(0))
	}
	if reg.Get(1) != 200 {
		t.Fatalf("bucket1 = %d, want 200", reg.Get(1))
	}
}
