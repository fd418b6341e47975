package pisa

import (
	"fmt"
	"math/bits"
	"sort"
)

// CompiledProgram is a program lowered into a fixed execution plan. The
// interpreter (Program.Process) re-derives everything per packet: key
// slices are assembled per table, entries are scanned linearly and gate
// strings were historically re-parsed. Compilation specialises each
// table once, by match kind:
//
//   - MatchNone tables inline into a straight-line op stream; runs of
//     ungated always-tables merge into a single unit.
//   - Single-field exact tables over a narrow key become a dense
//     direct-index array over the masked key domain (O(1), no probe).
//   - Multi-field exact tables whose key packs into 64 bits become an
//     open-addressed hash table on the packed key.
//   - Single-field ternary tables whose masks are all prefix masks —
//     what consecutive range coding produces — become interval lookups
//     with first-match priority folded into the intervals: a dense
//     O(1) array over narrow key domains, a sorted-interval binary
//     search over wide ones.
//   - Multi-field ternary tables with per-field prefix masks (the
//     two-level combo tables) become per-dimension rule bitsets: each
//     dimension resolves its key to a bitset of the rules it satisfies
//     and the intersection's lowest set bit is the first matching rule
//     — O(dims · rules/64) instead of O(dims · rules).
//   - Everything else falls back to a generic scan with precomputed
//     width masks.
//
// After specialisation, each unit is sealed into a straight-line
// closure (the executor-plan idiom): the gate comparison, the lookup
// and the action applier are bound into one func with every loop
// constant (key field, mask, slot arrays) captured — Process is then
// just a walk over the closure list, with no per-packet kind dispatch.
// Always-run units additionally constant-fold their action data:
// OpSetData becomes an immediate OpSet and OpAddData a saturating
// add-immediate, so the merged op stream carries no data bus at all.
//
// The plan references the source program's entries, action programs and
// registers; it adds no mutable state of its own, so one plan may be
// shared by any number of goroutines as long as each supplies its own
// PHV. Process performs zero heap allocations.
//
// A plan also knows where its stateless tail begins (statelessFrom):
// the trailing units that touch no register and do not write a given
// fire field are pure functions of the PHV, which is what lets the
// packet engine run them only on the packets that fire a window (see
// Engine.ConfigurePackets for the rule and its soundness argument).
type CompiledProgram struct {
	name  string
	units []execUnit
	regs  []*Register
	procs []func(*PHV)
}

type execKind uint8

const (
	execAlways      execKind = iota // run ops unconditionally (merged MatchNone run)
	execDirect                      // dense array over the masked key domain
	execHash                        // open-addressed hash on the packed key
	execInterval                    // binary search over sorted key intervals
	execBitmap                      // per-dimension rule-bitset intersection
	execScanExact                   // generic exact linear scan
	execScanTernary                 // generic ternary linear scan
)

// execUnit is one specialised table (or merged run of always-tables).
type execUnit struct {
	kind execKind

	hasGate   bool
	gateOp    GateOp
	gateField FieldID
	gateVal   int32

	keyFields []FieldID
	keyMasks  []uint32

	action  []Op
	defData []int32
	hasDef  bool

	// data holds the hit action-data slices; direct/hash/interval units
	// store slot indices into it.
	data [][]int32

	dense []int32 // execDirect: masked key -> slot+1 (0 = miss)

	hkeys  []uint64 // execHash: packed keys, parallel to hslot
	hslot  []int32  // execHash: slot, -1 = empty
	shifts []uint   // execHash: per-field pack shift

	lows  []uint32 // execInterval: ascending interval starts, lows[0]=0
	islot []int32  // execInterval: slot per interval, -1 = miss

	dims    []bitmapDim // execBitmap: per-key-field rule bitsets
	bsWords int         // execBitmap: bitset words per row

	entries []Entry // scan fallbacks
}

// bitmapDim is one key field of an execBitmap unit: the mapping from a
// masked key value to the bitset row of rules that dimension satisfies.
// Narrow dimensions index rows by key value directly (lows nil); wide
// dimensions binary-search lows for the elementary interval, whose
// index is the row.
type bitmapDim struct {
	rows []uint64 // rule bitsets, bsWords words per row
	lows []uint32 // ascending interval starts; nil for dense dimensions
}

// directMaxBits bounds the key width direct-indexed exact tables
// materialise: 16 bits is a 256 KiB slot array at most, far below the
// SRAM the same table would occupy on the switch.
const directMaxBits = 16

// denseRangeBits bounds the key width a ternary dimension materialises
// densely (per-value slot or bitset-row arrays); wider dimensions fall
// back to interval binary search.
const denseRangeBits = 12

// maxBitmapDims bounds the key fields of a bitmap unit: the lookup
// keeps one row slice per dimension on the stack.
const maxBitmapDims = 8

// CompileProgram lowers p into its execution plan. The plan aliases
// p's tables, entries and registers: mutating the program after
// compilation (adding entries, re-placing tables) invalidates the plan.
func CompileProgram(p *Program) *CompiledProgram {
	cp := &CompiledProgram{name: p.Name, regs: p.Registers}
	for _, st := range p.Stages {
		for _, t := range st.Tables {
			cp.addTable(t)
		}
	}
	cp.seal()
	return cp
}

// seal folds constants and lowers every specialised unit into its
// straight-line closure. Run once, after all units are added and
// merged.
func (cp *CompiledProgram) seal() {
	cp.procs = make([]func(*PHV), len(cp.units))
	for i := range cp.units {
		u := &cp.units[i]
		if u.kind == execAlways {
			foldAlwaysData(u)
		}
		cp.procs[i] = gateWrap(u, cp.lowerUnit(u))
	}
}

// noField is the FieldID no layout allocates: statelessFrom's "this
// pipe has no fire field" argument.
const noField FieldID = -1

// statelessFrom returns the index of the first unit of the plan's
// longest stateless suffix: the trailing units none of whose ops
// accesses a register (Op.regAccess() >= 0) or writes fire. A merged
// always-unit is stateful if any of its ops is. len(units) means the
// last unit is stateful (empty suffix), 0 that the whole plan is
// stateless.
func (cp *CompiledProgram) statelessFrom(fire FieldID) int {
	for i := len(cp.units) - 1; i >= 0; i-- {
		for k := range cp.units[i].action {
			op := &cp.units[i].action[k]
			if op.regAccess() >= 0 || (op.writesDst() && op.Dst == fire) {
				return i + 1
			}
		}
	}
	return 0
}

func (cp *CompiledProgram) addTable(t *Table) {
	t.prepare()
	u := execUnit{
		keyFields: t.KeyFields,
		keyMasks:  t.masks,
		action:    t.Action,
		defData:   t.DefaultData,
		hasDef:    t.DefaultData != nil,
	}
	if t.Gate != nil {
		switch t.Gate.Op {
		case GateEQ, GateNE, GateGE, GateLE:
		default:
			// The interpreter panics on the first gated packet; fail at
			// plan construction instead of silently never gating.
			panic(fmt.Sprintf("pisa: table %q gate has invalid op %d", t.Name, t.Gate.Op))
		}
		u.hasGate = true
		u.gateOp = t.Gate.Op
		u.gateField = t.Gate.Field
		u.gateVal = t.Gate.Value
	}
	switch t.Kind {
	case MatchNone:
		if !u.hasDef {
			return // never fires: dead table
		}
		u.kind = execAlways
		// Merge into the previous unit when both are ungated always
		// runs: one op stream, action-data indices rebased onto the
		// concatenated data vector.
		if !u.hasGate && len(cp.units) > 0 {
			prev := &cp.units[len(cp.units)-1]
			if prev.kind == execAlways && !prev.hasGate {
				base := len(prev.defData)
				if base > 0 || len(u.defData) > 0 {
					merged := append(append([]int32{}, prev.defData...), u.defData...)
					ops := append(append([]Op{}, prev.action...), u.action...)
					for i := len(prev.action); i < len(ops); i++ {
						if k := ops[i].Kind; k == OpSetData || k == OpAddData {
							ops[i].DataIdx += base
						}
					}
					prev.action, prev.defData = ops, merged
				} else {
					prev.action = append(append([]Op{}, prev.action...), u.action...)
				}
				return
			}
		}
	case MatchExact:
		cp.specializeExact(t, &u)
	case MatchTernary:
		cp.specializeTernary(t, &u)
	}
	cp.units = append(cp.units, u)
}

// specializeExact picks direct indexing, hashing or a scan for an exact
// table. Entries whose key has bits outside the match width can never
// hit (the lookup key is width-masked) and are dropped; duplicate keys
// keep the first entry, preserving interpreter priority.
func (cp *CompiledProgram) specializeExact(t *Table, u *execUnit) {
	if len(t.Entries) == 0 {
		u.kind = execScanExact // always a miss; scan of zero entries
		return
	}
	if len(t.KeyFields) == 1 && t.KeyWidths[0] <= directMaxBits {
		u.kind = execDirect
		wm := u.keyMasks[0]
		u.dense = make([]int32, int(wm)+1)
		for ei := range t.Entries {
			e := &t.Entries[ei]
			k := e.Key[0]
			if k > wm || u.dense[k] != 0 {
				continue
			}
			u.data = append(u.data, e.Data)
			u.dense[k] = int32(len(u.data))
		}
		return
	}
	totalBits := 0
	for _, w := range t.KeyWidths {
		totalBits += w
	}
	if totalBits > 64 {
		u.kind = execScanExact
		u.entries = t.Entries
		return
	}
	u.kind = execHash
	u.shifts = make([]uint, len(t.KeyWidths))
	shift := uint(0)
	for i, w := range t.KeyWidths {
		u.shifts[i] = shift
		shift += uint(w)
	}
	size := 4
	for size < 2*len(t.Entries) {
		size *= 2
	}
	u.hkeys = make([]uint64, size)
	u.hslot = make([]int32, size)
	for i := range u.hslot {
		u.hslot[i] = -1
	}
	mask := uint64(size - 1)
insert:
	for ei := range t.Entries {
		e := &t.Entries[ei]
		var pk uint64
		for i, k := range e.Key {
			if k&^u.keyMasks[i] != 0 {
				continue insert // unreachable entry
			}
			pk |= uint64(k) << u.shifts[i]
		}
		for h := mix64(pk) & mask; ; h = (h + 1) & mask {
			if u.hslot[h] < 0 {
				u.data = append(u.data, e.Data)
				u.hkeys[h] = pk
				u.hslot[h] = int32(len(u.data) - 1)
				break
			}
			if u.hkeys[h] == pk {
				continue insert // duplicate key: first entry wins
			}
		}
	}
}

// span is one reachable ternary rule's key interval in one dimension.
type span struct {
	lo, hi uint64 // inclusive
}

// specializeTernary converts prefix-mask tables — the shape consecutive
// range coding emits — into interval structures, folding
// first-match-wins priority into the construction. Single-field tables
// become a dense per-value slot array (narrow keys) or a sorted-
// interval binary search (wide keys); multi-field tables become
// per-dimension rule bitsets whose intersection's lowest set bit is
// the winning rule. Anything else keeps the generic masked scan.
func (cp *CompiledProgram) specializeTernary(t *Table, u *execUnit) {
	if len(t.KeyFields) > maxBitmapDims || !prefixEntries(t.Entries, u.keyMasks) {
		u.kind = execScanTernary
		u.entries = t.Entries
		return
	}
	// Reachable rules, in priority order, with their per-dimension
	// intervals. A rule whose value has bits outside its (width-
	// clipped) mask can never hit, because lookup keys are width-masked.
	nd := len(t.KeyFields)
	var rules [][]span
	for ei := range t.Entries {
		e := &t.Entries[ei]
		rule := make([]span, nd)
		ok := true
		for d := 0; d < nd; d++ {
			wm := uint64(u.keyMasks[d])
			m := uint64(e.Mask[d]) & wm
			if uint64(e.Key[d])&^m != 0 {
				ok = false
				break
			}
			rule[d] = span{lo: uint64(e.Key[d]), hi: uint64(e.Key[d]) | (wm &^ m)}
		}
		if !ok {
			continue
		}
		u.data = append(u.data, e.Data)
		rules = append(rules, rule)
	}
	if nd == 1 {
		cp.buildInterval(t, u, rules)
		return
	}
	cp.buildBitmap(t, u, rules)
}

// elementaryLows returns the sorted, deduplicated starts of the
// elementary intervals induced by dimension d of the rule set: 0,
// every rule start, and every position just past a rule end, clipped
// to the key domain wm. No rule boundary falls strictly inside an
// elementary interval, so rule coverage is constant across each.
func elementaryLows(rules [][]span, d int, wm uint64) []uint32 {
	bounds := []uint64{0}
	for _, r := range rules {
		bounds = append(bounds, r[d].lo)
		if r[d].hi < wm {
			bounds = append(bounds, r[d].hi+1)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	var lows []uint32
	for _, b := range bounds {
		if n := len(lows); n > 0 && uint64(lows[n-1]) == b {
			continue
		}
		lows = append(lows, uint32(b))
	}
	return lows
}

// intervalRow returns the index of the greatest interval start ≤ k;
// lows is ascending with lows[0] == 0, so the result is always valid.
// The search is a branch-free lower-bound loop: the key is a packet
// length or inter-arrival bucket no branch predictor can guess, so the
// comparison becomes a sign mask (all ones when lows[probe] ≤ k) that
// selects the step, and the only branch left is the loop's own, which
// depends on len(lows) alone.
func intervalRow(lows []uint32, k uint32) int {
	base := 0
	for n := len(lows); n > 1; {
		half := n >> 1
		le := (int64(lows[base+half]) - int64(k) - 1) >> 63
		base += half & int(le)
		n -= half
	}
	return base
}

// buildInterval lowers a single-field rule set into elementary
// intervals; narrow domains expand into an execDirect dense array.
func (cp *CompiledProgram) buildInterval(t *Table, u *execUnit, rules [][]span) {
	wm := uint64(u.keyMasks[0])
	for _, b32 := range elementaryLows(rules, 0, wm) {
		b := uint64(b32)
		// First rule covering b wins, as in the entry scan.
		slot := int32(-1)
		for ri, r := range rules {
			if r[0].lo <= b && b <= r[0].hi {
				slot = int32(ri)
				break
			}
		}
		if n := len(u.islot); n > 0 && u.islot[n-1] == slot {
			continue // merge with the previous interval
		}
		u.lows = append(u.lows, b32)
		u.islot = append(u.islot, slot)
	}
	if t.KeyWidths[0] > denseRangeBits {
		u.kind = execInterval
		return
	}
	// Narrow domain: expand the intervals into a per-value slot array.
	u.kind = execDirect
	u.dense = make([]int32, wm+1)
	for i, lo := range u.lows {
		hi := wm
		if i+1 < len(u.lows) {
			hi = uint64(u.lows[i+1]) - 1
		}
		for v := uint64(lo); v <= hi; v++ {
			u.dense[v] = u.islot[i] + 1 // slot+1; 0 stays "miss"
		}
	}
	u.lows, u.islot = nil, nil
}

// buildBitmap lowers a multi-field rule set into one bitset-indexed
// structure per dimension: row r of dimension d holds a bit for every
// rule whose dth interval contains the keys mapping to that row. The
// lookup intersects one row per dimension; the lowest set bit of the
// intersection is the first (highest-priority) matching rule.
func (cp *CompiledProgram) buildBitmap(t *Table, u *execUnit, rules [][]span) {
	if len(rules) == 0 {
		u.kind = execScanTernary // always a miss; scan of zero entries
		u.data = nil
		return
	}
	u.kind = execBitmap
	u.bsWords = (len(rules) + 63) / 64
	u.dims = make([]bitmapDim, len(t.KeyFields))
	for d := range u.dims {
		dim := &u.dims[d]
		wm := uint64(u.keyMasks[d])
		if t.KeyWidths[d] <= denseRangeBits {
			// One row per key value.
			dim.rows = make([]uint64, (int(wm)+1)*u.bsWords)
			for ri, r := range rules {
				word, bit := ri/64, uint(ri%64)
				for v := r[d].lo; v <= r[d].hi; v++ {
					dim.rows[int(v)*u.bsWords+word] |= 1 << bit
				}
			}
			continue
		}
		// Wide dimension: one row per elementary interval, resolved by
		// binary search at lookup time.
		dim.lows = elementaryLows(rules, d, wm)
		dim.rows = make([]uint64, len(dim.lows)*u.bsWords)
		for ri, r := range rules {
			word, bit := ri/64, uint(ri%64)
			for row, lo := range dim.lows {
				if r[d].lo <= uint64(lo) && uint64(lo) <= r[d].hi {
					dim.rows[row*u.bsWords+word] |= 1 << bit
				}
			}
		}
	}
}

// prefixEntries reports whether every entry mask is a prefix mask
// within its key width — i.e. its wildcard bits are a contiguous low
// run — which makes each entry a box of per-dimension key intervals.
func prefixEntries(entries []Entry, keyMasks []uint32) bool {
	for ei := range entries {
		for d, wm := range keyMasks {
			inv := wm &^ entries[ei].Mask[d]
			if inv&(inv+1) != 0 {
				return false
			}
		}
	}
	return true
}

// mix64 is the splitmix64 finaliser, scrambling packed keys into hash
// slots.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Name returns the source program's name.
func (cp *CompiledProgram) Name() string { return cp.name }

// Process runs one packet's PHV through the plan. It is bit-identical
// to Program.Process on the source program and performs no heap
// allocation; the PHV supplies the scratch buffer for generic scans.
func (cp *CompiledProgram) Process(phv *PHV) {
	cp.processRange(phv, 0, len(cp.procs))
}

// processRange runs units [lo, hi) of the plan on phv, in order.
func (cp *CompiledProgram) processRange(phv *PHV, lo, hi int) {
	for _, f := range cp.procs[lo:hi] {
		f(phv)
	}
}

// foldAlwaysData rewrites an always-run unit's data-bus ops into
// immediates: the unit fires with exactly defData on every packet, so
// OpSetData i is OpSet defData[i] and OpAddData i a saturating
// add-immediate. After folding the op stream references no data slice.
func foldAlwaysData(u *execUnit) {
	folded := false
	for i := range u.action {
		if k := u.action[i].Kind; k == OpSetData || k == OpAddData {
			folded = true
			break
		}
	}
	if !folded {
		return
	}
	ops := append([]Op(nil), u.action...)
	for i := range ops {
		switch ops[i].Kind {
		case OpSetData:
			ops[i] = Op{Kind: OpSet, Dst: ops[i].Dst, Imm: u.defData[ops[i].DataIdx]}
		case OpAddData:
			ops[i] = Op{Kind: opSatAddImm, Dst: ops[i].Dst, A: ops[i].A, Imm: u.defData[ops[i].DataIdx]}
		}
	}
	u.action = ops
}

// gateWrap binds a unit's gateway comparison around its body — one
// typed closure per comparison, no per-packet op switch.
func gateWrap(u *execUnit, body func(*PHV)) func(*PHV) {
	if !u.hasGate {
		return body
	}
	f, v := u.gateField, u.gateVal
	switch u.gateOp {
	case GateEQ:
		return func(p *PHV) {
			if p.Vals[f] == v {
				body(p)
			}
		}
	case GateNE:
		return func(p *PHV) {
			if p.Vals[f] != v {
				body(p)
			}
		}
	case GateGE:
		return func(p *PHV) {
			if p.Vals[f] >= v {
				body(p)
			}
		}
	case GateLE:
		return func(p *PHV) {
			if p.Vals[f] <= v {
				body(p)
			}
		}
	}
	panic("pisa: unreachable gate op") // addTable validated it
}

// setPair is one folded OpSetData: destination field and data index.
type setPair struct {
	dst FieldID
	idx int
}

// dataApplier returns the closure applying ops with hit-dependent
// action data. The ubiquitous all-OpSetData shape (feature loads,
// class/output writebacks) specialises into a bare copy loop.
func dataApplier(ops []Op, regs []*Register) func(*PHV, []int32) {
	allSet := len(ops) > 0
	for i := range ops {
		if ops[i].Kind != OpSetData {
			allSet = false
			break
		}
	}
	if allSet {
		pairs := make([]setPair, len(ops))
		for i, op := range ops {
			pairs[i] = setPair{op.Dst, op.DataIdx}
		}
		if len(pairs) == 1 {
			p0 := pairs[0]
			return func(phv *PHV, data []int32) { phv.Vals[p0.dst] = data[p0.idx] }
		}
		return func(phv *PHV, data []int32) {
			for _, pr := range pairs {
				phv.Vals[pr.dst] = data[pr.idx]
			}
		}
	}
	return func(phv *PHV, data []int32) { runOps(ops, phv, data, regs) }
}

// alwaysApplier returns the closure for a (folded) always-run op
// stream: single-op units — the emitted shape for register RMWs and
// scalar fixups — bind straight to a dedicated closure; longer streams
// run through runOps with no data bus.
func alwaysApplier(ops []Op, regs []*Register) func(*PHV) {
	if len(ops) == 1 {
		op := ops[0]
		switch op.Kind {
		case OpSet:
			return func(p *PHV) { p.Vals[op.Dst] = op.Imm }
		case OpMove:
			return func(p *PHV) { p.Vals[op.Dst] = p.Vals[op.A] }
		case OpAddImm:
			return func(p *PHV) { p.Vals[op.Dst] = p.Vals[op.A] + op.Imm }
		case OpAndImm:
			return func(p *PHV) { p.Vals[op.Dst] = p.Vals[op.A] & op.Imm }
		case OpRegAdd:
			r := regs[op.Reg]
			return func(p *PHV) {
				p.RegRMWs++
				v := r.Get(int(p.Vals[op.A])) + p.Vals[op.B]
				r.Set(int(p.Vals[op.A]), v)
				p.Vals[op.Dst] = v
			}
		case OpRegCntRestart:
			r := regs[op.Reg]
			return func(p *PHV) {
				p.RegRMWs++
				idx := int(p.Vals[op.A])
				v := op.Imm
				if p.Vals[op.B] == 0 {
					v = r.Get(idx) + 1
				}
				r.Set(idx, v)
				p.Vals[op.Dst] = v
			}
		}
	}
	return func(p *PHV) { runOps(ops, p, nil, regs) }
}

// lowerUnit lowers one specialised unit into its straight-line closure
// (gate excluded; seal wraps it). Every lookup constant is captured by
// value, so the hot path reads no execUnit fields and performs no kind
// dispatch.
func (cp *CompiledProgram) lowerUnit(u *execUnit) func(*PHV) {
	switch u.kind {
	case execAlways:
		return alwaysApplier(u.action, cp.regs)
	case execDirect:
		apply := dataApplier(u.action, cp.regs)
		miss := missApplier(u, apply)
		kf, km := u.keyFields[0], u.keyMasks[0]
		dense, dat := u.dense, u.data
		return func(p *PHV) {
			if s := dense[uint32(p.Vals[kf])&km]; s != 0 {
				apply(p, dat[s-1])
			} else {
				miss(p)
			}
		}
	case execHash:
		apply := dataApplier(u.action, cp.regs)
		miss := missApplier(u, apply)
		kfs, kms, shifts := u.keyFields, u.keyMasks, u.shifts
		hkeys, hslot, dat := u.hkeys, u.hslot, u.data
		mask := uint64(len(hkeys) - 1)
		return func(p *PHV) {
			var pk uint64
			for i, f := range kfs {
				pk |= uint64(uint32(p.Vals[f])&kms[i]) << shifts[i]
			}
			for h := mix64(pk) & mask; hslot[h] >= 0; h = (h + 1) & mask {
				if hkeys[h] == pk {
					apply(p, dat[hslot[h]])
					return
				}
			}
			miss(p)
		}
	case execInterval:
		apply := dataApplier(u.action, cp.regs)
		miss := missApplier(u, apply)
		kf, km := u.keyFields[0], u.keyMasks[0]
		lows, islot, dat := u.lows, u.islot, u.data
		return func(p *PHV) {
			if s := islot[intervalRow(lows, uint32(p.Vals[kf])&km)]; s >= 0 {
				apply(p, dat[s])
			} else {
				miss(p)
			}
		}
	case execBitmap:
		apply := dataApplier(u.action, cp.regs)
		miss := missApplier(u, apply)
		kfs, kms := u.keyFields, u.keyMasks
		dims, bsWords, dat := u.dims, u.bsWords, u.data
		return func(p *PHV) {
			var rows [maxBitmapDims][]uint64
			nd := len(dims)
			for d := 0; d < nd; d++ {
				dim := &dims[d]
				k := uint32(p.Vals[kfs[d]]) & kms[d]
				row := int(k)
				if dim.lows != nil {
					row = intervalRow(dim.lows, k)
				}
				rows[d] = dim.rows[row*bsWords : (row+1)*bsWords]
			}
			// Lowest set bit of the intersection = first matching rule.
			for w := 0; w < bsWords; w++ {
				x := rows[0][w]
				for d := 1; d < nd; d++ {
					x &= rows[d][w]
				}
				if x != 0 {
					apply(p, dat[w*64+bits.TrailingZeros64(x)])
					return
				}
			}
			miss(p)
		}
	case execScanExact:
		apply := dataApplier(u.action, cp.regs)
		miss := missApplier(u, apply)
		kfs, kms, entries := u.keyFields, u.keyMasks, u.entries
		return func(p *PHV) {
			key := p.keyBuf(len(kfs))
			for i, f := range kfs {
				key[i] = uint32(p.Vals[f]) & kms[i]
			}
		scanE:
			for ei := range entries {
				e := &entries[ei]
				for i := range key {
					if e.Key[i] != key[i] {
						continue scanE
					}
				}
				apply(p, e.Data)
				return
			}
			miss(p)
		}
	case execScanTernary:
		apply := dataApplier(u.action, cp.regs)
		miss := missApplier(u, apply)
		kfs, kms, entries := u.keyFields, u.keyMasks, u.entries
		return func(p *PHV) {
			key := p.keyBuf(len(kfs))
			for i, f := range kfs {
				key[i] = uint32(p.Vals[f]) & kms[i]
			}
		scanT:
			for ei := range entries {
				e := &entries[ei]
				for i := range key {
					if key[i]&e.Mask[i] != e.Key[i] {
						continue scanT
					}
				}
				apply(p, e.Data)
				return
			}
			miss(p)
		}
	}
	panic("pisa: unknown exec kind")
}

// missApplier returns the unit's miss behaviour: run the action with
// the default data, or nothing.
func missApplier(u *execUnit, apply func(*PHV, []int32)) func(*PHV) {
	if !u.hasDef {
		return func(*PHV) {}
	}
	def := u.defData
	return func(p *PHV) { apply(p, def) }
}
