package pisa

import (
	"fmt"

	"github.com/pegasus-idp/pegasus/internal/fixed"
)

// MatchKind selects the matching hardware for a table.
type MatchKind int

// Match kinds. Range matching is realised as ternary after consecutive
// range coding, exactly as on the real hardware (§6.1).
const (
	MatchExact MatchKind = iota
	MatchTernary
	// MatchNone is a keyless "always" table that just runs its default
	// action; used for SumReduce adds, argmax chains and register ops.
	MatchNone
)

func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchTernary:
		return "ternary"
	case MatchNone:
		return "always"
	}
	return fmt.Sprintf("MatchKind(%d)", int(k))
}

// OpKind is one ALU micro-operation kind. Only operations PISA supports
// are available: no multiplication, division or floating point.
type OpKind int

// ALU operations. Operand conventions per op are documented on Op.
const (
	OpSet      OpKind = iota // dst = Imm
	OpMove                   // dst = phv[A]
	OpAdd                    // dst = phv[A] + phv[B] (wrapping)
	OpSatAdd                 // dst = phv[A] +sat phv[B]
	OpSub                    // dst = phv[A] - phv[B]
	OpMin                    // dst = min(phv[A], phv[B])
	OpMax                    // dst = max(phv[A], phv[B])
	OpShl                    // dst = phv[A] << Imm
	OpShr                    // dst = phv[A] >> Imm (arithmetic)
	OpAnd                    // dst = phv[A] & phv[B]
	OpOr                     // dst = phv[A] | phv[B]
	OpXor                    // dst = phv[A] ^ phv[B]
	OpAndImm                 // dst = phv[A] & Imm
	OpAddImm                 // dst = phv[A] + Imm
	OpSetData                // dst = data[DataIdx]
	OpAddData                // dst = phv[A] +sat data[DataIdx]
	OpSelGE                  // if phv[A] >= phv[B] { dst = Imm }
	OpSelEQI                 // if phv[A] == Imm { dst = phv[B] }
	OpRegLoad                // dst = reg[Reg][phv[A]]
	OpRegStore               // reg[Reg][phv[A]] = phv[B]
	OpRegMax                 // reg[Reg][phv[A]] = max(reg, phv[B]); dst = new value
	OpRegMin                 // reg[Reg][phv[A]] = min(reg, phv[B]); dst = new value
	OpRegAdd                 // reg[Reg][phv[A]] += phv[B]; dst = new value
	OpRegExch                // dst = old reg[Reg][phv[A]]; reg[Reg][phv[A]] = phv[B] (last-timestamp tracker)
	// OpRegCntRestart is a windowed counter with predicated restart:
	// reg[Reg][phv[A]] = phv[B] != 0 ? Imm : reg[Reg][phv[A]] + 1, with
	// dst = the new value. Tofino stateful ALUs support exactly this
	// shape (a RegisterAction with a condition selecting between two
	// update arms), and it is what lets idle-timeout flow eviction fold
	// into the extraction prelude's existing counter RMW instead of
	// needing a second register access.
	OpRegCntRestart
)

// opSatAddImm is a plan-internal opcode: dst = phv[A] +sat Imm. It is
// what OpAddData folds into when CompileProgram constant-folds the
// action data of an always-run table (the data slice is fixed, so the
// per-packet bus fetch becomes an immediate). Builders never emit it
// and it never reaches the P4 renderer — it exists only inside compiled
// plans.
const opSatAddImm OpKind = -1

// Op is one micro-operation of an action program.
type Op struct {
	Kind    OpKind
	Dst     FieldID
	A, B    FieldID
	Imm     int32
	DataIdx int
	Reg     int // register index within Program.Registers
}

// regAccess returns the register index the op reads or modifies, or -1
// for stateless ops. Every register op — including the pure load —
// occupies the register's one read-modify-write slot for the packet.
func (op *Op) regAccess() int {
	switch op.Kind {
	case OpRegLoad, OpRegStore, OpRegMax, OpRegMin, OpRegAdd, OpRegExch, OpRegCntRestart:
		return op.Reg
	}
	return -1
}

// writesDst reports whether the op writes its Dst field (OpRegStore is
// the only op without a PHV destination).
func (op *Op) writesDst() bool { return op.Kind != OpRegStore }

// writesField reports whether any op of the action writes f. A gate
// field no gated action writes keeps one value across those tables —
// what makes equality gates on it exclusive (validateRMW) and lets the
// plan evaluate them once (a dispatch unit).
func writesField(ops []Op, f FieldID) bool {
	for i := range ops {
		if ops[i].writesDst() && ops[i].Dst == f {
			return true
		}
	}
	return false
}

// regOps counts the ops of the action that access a register.
func regOps(ops []Op) (n uint64) {
	for i := range ops {
		if ops[i].regAccess() >= 0 {
			n++
		}
	}
	return n
}

// Entry is one table entry. For exact matching Mask must be nil and Key
// compared verbatim; for ternary matching Mask selects the cared bits.
// Data is the entry's action data (fetched over the action data bus).
type Entry struct {
	Key  []uint32
	Mask []uint32
	Data []int32
}

// GateOp is a gateway comparison, parsed once at construction so the
// per-packet check is a typed switch instead of a string compare.
type GateOp uint8

// Gateway comparisons. The zero value is deliberately not a valid op,
// preserving the old fail-fast behaviour: a Gate built without setting
// Op panics on first use instead of silently comparing.
const (
	GateEQ GateOp = iota + 1 // ==
	GateNE                   // !=
	GateGE                   // >=
	GateLE                   // <=
)

// ParseGateOp converts the builder-facing string form ("==", "!=",
// ">=", "<=") into the typed op.
func ParseGateOp(s string) (GateOp, error) {
	switch s {
	case "==":
		return GateEQ, nil
	case "!=":
		return GateNE, nil
	case ">=":
		return GateGE, nil
	case "<=":
		return GateLE, nil
	}
	return 0, fmt.Errorf("pisa: unknown gate op %q", s)
}

// String returns the source form of the comparison, used by the P4
// renderer and builders.
func (op GateOp) String() string {
	switch op {
	case GateEQ:
		return "=="
	case GateNE:
		return "!="
	case GateGE:
		return ">="
	case GateLE:
		return "<="
	}
	return fmt.Sprintf("GateOp(%d)", int(op))
}

// Gate optionally predicates a table on a PHV field (PISA gateway).
type Gate struct {
	Field FieldID
	Op    GateOp
	Value int32
}

func (g *Gate) pass(phv *PHV) bool {
	v := phv.Get(g.Field)
	switch g.Op {
	case GateEQ:
		return v == g.Value
	case GateNE:
		return v != g.Value
	case GateGE:
		return v >= g.Value
	case GateLE:
		return v <= g.Value
	}
	panic(fmt.Sprintf("pisa: unknown gate op %d", g.Op))
}

// Table is one match-action table.
type Table struct {
	Name string
	Kind MatchKind
	// KeyFields are the PHV fields concatenated into the lookup key.
	KeyFields []FieldID
	// KeyWidths gives the match width of each key field (may be narrower
	// than the container).
	KeyWidths []int
	Entries   []Entry
	// Action is the action program run on hit (and on miss when
	// DefaultData is non-nil, with that data).
	Action []Op
	// DefaultData, when non-nil, runs Action with this data on miss (or
	// always, for MatchNone tables).
	DefaultData []int32
	// Gate, when non-nil, predicates the whole table.
	Gate *Gate
	// DataWidthBits is the action-data width fetched per hit; it is
	// charged against the stage's action data bus.
	DataWidthBits int

	// masks caches the per-field width masks (prepare); lookup falls
	// back to computing them inline for tables that never went through
	// Program.Place, so construction-by-literal keeps working.
	masks []uint32
}

// prepare precomputes the per-field width masks. Program.Place calls it
// for every placed table; it is idempotent.
func (t *Table) prepare() {
	if t.masks != nil || len(t.KeyWidths) == 0 {
		return
	}
	masks := make([]uint32, len(t.KeyWidths))
	for i, w := range t.KeyWidths {
		masks[i] = widthMask(w)
	}
	t.masks = masks
}

// loadKey fills key (caller scratch, len(t.KeyFields)) with the masked
// PHV values of the table's key fields.
func (t *Table) loadKey(phv *PHV, key []uint32) {
	if t.masks != nil {
		for i, f := range t.KeyFields {
			key[i] = uint32(phv.Get(f)) & t.masks[i]
		}
		return
	}
	for i, f := range t.KeyFields {
		key[i] = uint32(phv.Get(f)) & widthMask(t.KeyWidths[i])
	}
}

// lookup returns the action data for phv, or nil when the table misses
// and has no default. The key is assembled in the PHV's scratch buffer,
// so steady-state lookups perform no heap allocation.
func (t *Table) lookup(phv *PHV) ([]int32, bool) {
	switch t.Kind {
	case MatchNone:
		return t.DefaultData, t.DefaultData != nil
	case MatchExact:
		key := phv.keyBuf(len(t.KeyFields))
		t.loadKey(phv, key)
		for ei := range t.Entries {
			e := &t.Entries[ei]
			hit := true
			for i := range key {
				if e.Key[i] != key[i] {
					hit = false
					break
				}
			}
			if hit {
				return e.Data, true
			}
		}
	case MatchTernary:
		key := phv.keyBuf(len(t.KeyFields))
		t.loadKey(phv, key)
		for ei := range t.Entries {
			e := &t.Entries[ei]
			hit := true
			for i := range key {
				if key[i]&e.Mask[i] != e.Key[i] {
					hit = false
					break
				}
			}
			if hit {
				return e.Data, true
			}
		}
	}
	return t.DefaultData, t.DefaultData != nil
}

// dataArity returns the number of action-data values the table's action
// reads: its largest DataIdx plus one.
func (t *Table) dataArity() int {
	n := 0
	for i := range t.Action {
		if k := t.Action[i].Kind; (k == OpSetData || k == OpAddData) && t.Action[i].DataIdx >= n {
			n = t.Action[i].DataIdx + 1
		}
	}
	return n
}

// checkData reports the first entry, or the default, whose action data
// is shorter than the action's arity: running the action on it would
// index past the data.
func (t *Table) checkData() error {
	n := t.dataArity()
	for ei := range t.Entries {
		if len(t.Entries[ei].Data) < n {
			return fmt.Errorf("table %q entry %d has %d action-data values, its action reads %d", t.Name, ei, len(t.Entries[ei].Data), n)
		}
	}
	if t.DefaultData != nil && len(t.DefaultData) < n {
		return fmt.Errorf("table %q default has %d action-data values, its action reads %d", t.Name, len(t.DefaultData), n)
	}
	return nil
}

func widthMask(w int) uint32 {
	if w >= 32 {
		return ^uint32(0)
	}
	return uint32(1)<<w - 1
}

// apply executes the table on phv, returning whether its action ran.
func (t *Table) apply(phv *PHV, regs []*Register) bool {
	if t.Gate != nil && !t.Gate.pass(phv) {
		return false
	}
	data, ok := t.lookup(phv)
	if !ok {
		return false
	}
	runOps(t.Action, phv, data, regs)
	return true
}

func runOps(ops []Op, phv *PHV, data []int32, regs []*Register) {
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpSet:
			phv.Set(op.Dst, op.Imm)
		case OpMove:
			phv.Set(op.Dst, phv.Get(op.A))
		case OpAdd:
			phv.Set(op.Dst, phv.Get(op.A)+phv.Get(op.B))
		case OpSatAdd:
			phv.Set(op.Dst, fixed.SatAdd32(phv.Get(op.A), phv.Get(op.B)))
		case OpSub:
			phv.Set(op.Dst, phv.Get(op.A)-phv.Get(op.B))
		case OpMin:
			a, b := phv.Get(op.A), phv.Get(op.B)
			if b < a {
				a = b
			}
			phv.Set(op.Dst, a)
		case OpMax:
			a, b := phv.Get(op.A), phv.Get(op.B)
			if b > a {
				a = b
			}
			phv.Set(op.Dst, a)
		case OpShl:
			phv.Set(op.Dst, phv.Get(op.A)<<uint(op.Imm))
		case OpShr:
			phv.Set(op.Dst, phv.Get(op.A)>>uint(op.Imm))
		case OpAnd:
			phv.Set(op.Dst, phv.Get(op.A)&phv.Get(op.B))
		case OpOr:
			phv.Set(op.Dst, phv.Get(op.A)|phv.Get(op.B))
		case OpXor:
			phv.Set(op.Dst, phv.Get(op.A)^phv.Get(op.B))
		case OpAndImm:
			phv.Set(op.Dst, phv.Get(op.A)&op.Imm)
		case OpAddImm:
			phv.Set(op.Dst, phv.Get(op.A)+op.Imm)
		case OpSetData:
			phv.Set(op.Dst, data[op.DataIdx])
		case OpAddData:
			phv.Set(op.Dst, fixed.SatAdd32(phv.Get(op.A), data[op.DataIdx]))
		case opSatAddImm:
			phv.Set(op.Dst, fixed.SatAdd32(phv.Get(op.A), op.Imm))
		case OpSelGE:
			if phv.Get(op.A) >= phv.Get(op.B) {
				phv.Set(op.Dst, op.Imm)
			}
		case OpSelEQI:
			if phv.Get(op.A) == op.Imm {
				phv.Set(op.Dst, phv.Get(op.B))
			}
		case OpRegLoad:
			phv.RegRMWs++
			phv.Set(op.Dst, regs[op.Reg].Get(int(phv.Get(op.A))))
		case OpRegStore:
			phv.RegRMWs++
			regs[op.Reg].Set(int(phv.Get(op.A)), phv.Get(op.B))
		case OpRegMax:
			phv.RegRMWs++
			r := regs[op.Reg]
			idx := int(phv.Get(op.A))
			v := r.Get(idx)
			if phv.Get(op.B) > v {
				v = phv.Get(op.B)
			}
			r.Set(idx, v)
			phv.Set(op.Dst, v)
		case OpRegMin:
			phv.RegRMWs++
			r := regs[op.Reg]
			idx := int(phv.Get(op.A))
			v := r.Get(idx)
			if phv.Get(op.B) < v {
				v = phv.Get(op.B)
			}
			r.Set(idx, v)
			phv.Set(op.Dst, v)
		case OpRegAdd:
			phv.RegRMWs++
			r := regs[op.Reg]
			idx := int(phv.Get(op.A))
			v := r.Get(idx) + phv.Get(op.B)
			r.Set(idx, v)
			phv.Set(op.Dst, v)
		case OpRegExch:
			phv.RegRMWs++
			r := regs[op.Reg]
			idx := int(phv.Get(op.A))
			old := r.Get(idx)
			r.Set(idx, phv.Get(op.B))
			phv.Set(op.Dst, old)
		case OpRegCntRestart:
			phv.RegRMWs++
			r := regs[op.Reg]
			idx := int(phv.Get(op.A))
			v := op.Imm
			if phv.Get(op.B) == 0 {
				v = r.Get(idx) + 1
			}
			r.Set(idx, v)
			phv.Set(op.Dst, v)
		default:
			panic(fmt.Sprintf("pisa: unknown op kind %d", op.Kind))
		}
	}
}

// KeyBits returns the total match key width of the table.
func (t *Table) KeyBits() int {
	n := 0
	for _, w := range t.KeyWidths {
		n += w
	}
	return n
}

// SRAMBits returns the SRAM the table occupies: exact tables store key +
// action data per entry; ternary tables keep keys in TCAM but their
// action data still lives in SRAM.
func (t *Table) SRAMBits() int {
	switch t.Kind {
	case MatchExact:
		return len(t.Entries) * (t.KeyBits() + t.DataWidthBits)
	case MatchTernary:
		return len(t.Entries) * t.DataWidthBits
	}
	return 0
}

// TCAMBits returns the TCAM the table occupies (value+mask per entry).
func (t *Table) TCAMBits() int {
	if t.Kind != MatchTernary {
		return 0
	}
	return len(t.Entries) * 2 * t.KeyBits()
}
