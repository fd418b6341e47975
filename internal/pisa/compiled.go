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
//     When the action only loads action data (all OpSetData) and every
//     key value resolves — a hit, or a miss with DefaultData — the slot
//     indirection goes too: the unit is a value table, tab[key*n+j]
//     being destination j's value, one load per destination. Adjacent
//     ungated single-destination value tables merge into one unit, a
//     load run, executed in table order (a load keyed on its
//     predecessor's destination still sees it).
//   - Multi-field exact tables whose key packs into 64 bits become an
//     open-addressed hash table on the packed key.
//   - Single-field ternary tables whose masks are all prefix masks —
//     what consecutive range coding produces — become interval lookups
//     with first-match priority folded into the intervals: a direct
//     unit as above over narrow key domains, a sorted-interval binary
//     search over wide ones.
//   - Multi-field ternary tables with per-field prefix masks (the
//     two-level combo tables) become per-dimension rule bitsets: each
//     dimension resolves its key to the row of rules it satisfies and
//     the intersection's lowest set bit is the first matching rule.
//     Every row leads with summary words — bit w set iff row word w is
//     non-zero — so the lookup intersects the summaries and probes only
//     the candidate words, in ascending order, instead of every word
//     up to the hit. First-match priority survives: a word absent from
//     the summaries' intersection is zero in some dimension and cannot
//     hold a match, so the first non-zero probed word is the first
//     non-zero word of the full intersection; a candidate whose words
//     share no rule (a false candidate) just falls through to the next.
//   - Everything else falls back to a generic scan with precomputed
//     width masks.
//
// Every lookup resolves to a slot of the unit's action-data slab: one
// []int32 of fixed stride (the action's data arity, which addTable
// checks every entry against), hit slots first and the default data
// last, so a hit is flat[s*stride:(s+1)*stride] — no per-entry slice
// header, no per-entry heap cell — and a miss with a default is just
// another slot.
//
// After specialisation, each unit is sealed into a straight-line
// closure (the executor-plan idiom): the gate comparison, the lookup
// and the action are bound into one func with every loop constant (key
// field, mask, slot arrays) captured — Process is then just a walk
// over the closure list, with no per-packet kind dispatch. Always-run
// units additionally constant-fold their action data: OpSetData
// becomes an immediate OpSet and OpAddData a saturating add-immediate,
// so the merged op stream carries no data bus at all.
//
// The plan references the source program's action programs and
// registers and owns its lookup arrays; it adds no mutable state of its
// own, so one plan may be shared by any number of goroutines as long as
// each supplies its own PHV. Process performs zero heap allocations.
//
// A plan also knows where its stateless tail begins (statelessFrom):
// the trailing units that touch no register and do not write a given
// fire field are pure functions of the PHV, which is what lets the
// packet engine run them only on the packets that fire a window (see
// Engine.ConfigurePackets for the rule and its soundness argument).
// The cut indexes units, and a merged unit is stateful as a whole if
// any op of it is, so it can never fall inside a load run (whose loads
// access no register to begin with).
type CompiledProgram struct {
	name   string
	tables int // source tables lowered, dead ones included
	units  []execUnit
	regs   []*Register
	procs  []func(*PHV)
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

// execUnit is one specialised table, merged run of always-tables or
// load run.
type execUnit struct {
	kind execKind

	hasGate   bool
	gateOp    GateOp
	gateField FieldID
	gateVal   int32

	keyFields []FieldID
	keyMasks  []uint32

	action  []Op
	defData []int32 // execAlways: the (merged) data vector, folded by seal

	// flat is the action-data slab: stride values per slot, hit slots in
	// the order the lowering numbered them, then the default data. miss
	// is the slot a failed lookup resolves to, -1 when a miss leaves the
	// PHV untouched.
	flat   []int32
	stride int
	slots  int32
	miss   int32

	dense []int32 // execDirect: masked key -> slot, miss folded in
	tab   []int32 // execDirect value table: tab[key*len(action)+j]
	loads []load  // execDirect load run

	hkeys  []uint64 // execHash: packed keys, parallel to hslot
	hslot  []int32  // execHash: slot, -1 = empty
	shifts []uint   // execHash: per-field pack shift

	lows  []uint32 // execInterval: ascending interval starts, lows[0]=0
	islot []int32  // execInterval: slot per interval, miss folded in

	dims     []bitmapDim // execBitmap: per-key-field row index
	rows     []uint64    // execBitmap: every dimension's rows
	bsWords  int         // execBitmap: rule-bitset words per row
	sumWords int         // execBitmap: summary words leading each row

	entries []Entry // scan fallbacks: keys and masks; slot = entry index
}

// load is one step of a load run: dst = tab[phv[key] & mask].
type load struct {
	key  FieldID
	mask uint32
	dst  FieldID
	tab  []int32
}

// bitmapDim is one key field of an execBitmap unit: the mapping from a
// masked key value to that dimension's row of the unit's rows array,
// which holds a bit for every rule the dimension satisfies. Narrow
// dimensions index rows by key value directly (lows nil); wide
// dimensions binary-search lows for the elementary interval, whose
// index is the row. Row r starts at base + r*(sumWords+bsWords).
type bitmapDim struct {
	base int
	lows []uint32 // ascending interval starts; nil for dense dimensions
}

// off returns where the row of masked key k starts in the rows array,
// rw being the words per row.
func (dim *bitmapDim) off(k uint32, rw int) int {
	row := int(k)
	if dim.lows != nil {
		row = intervalRow(dim.lows, k)
	}
	return dim.base + row*rw
}

// directMaxBits bounds the key width direct-indexed exact tables
// materialise: 16 bits is a 256 KiB slot array at most, far below the
// SRAM the same table would occupy on the switch.
const directMaxBits = 16

// denseRangeBits bounds the key width a ternary dimension materialises
// densely (per-value slot or bitset-row arrays); wider dimensions fall
// back to interval binary search.
const denseRangeBits = 12

// valueTableCells bounds keys × destinations of a value table: the same
// 256 KiB a direct unit's slot array may take.
const valueTableCells = 1 << directMaxBits

// maxBitmapDims bounds the key fields of a bitmap unit: the lookup
// keeps one row offset per dimension on the stack.
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
// unit is stateful if any of its ops is. len(units) means the
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
	// The interpreter panics on the first packet that trips either of
	// these; fail at plan construction instead. The arity check is also
	// what lets every slot of the unit's slab share one stride.
	if err := t.checkData(); err != nil {
		panic("pisa: " + err.Error())
	}
	cp.tables++
	u := execUnit{
		keyFields: t.KeyFields,
		keyMasks:  t.masks,
		action:    t.Action,
		stride:    t.dataArity(),
		miss:      -1,
	}
	if t.Gate != nil {
		switch t.Gate.Op {
		case GateEQ, GateNE, GateGE, GateLE:
		default:
			panic(fmt.Sprintf("pisa: table %q gate has invalid op %d", t.Name, t.Gate.Op))
		}
		u.hasGate = true
		u.gateOp = t.Gate.Op
		u.gateField = t.Gate.Field
		u.gateVal = t.Gate.Value
	}
	var prev *execUnit
	if n := len(cp.units); n > 0 && !u.hasGate && !cp.units[n-1].hasGate {
		prev = &cp.units[n-1] // merge candidate: both ungated
	}
	switch t.Kind {
	case MatchNone:
		if t.DefaultData == nil {
			return // never fires: dead table
		}
		u.kind, u.defData = execAlways, t.DefaultData
		// Merge into the previous unit when both are ungated always
		// runs: one op stream, action-data indices rebased onto the
		// concatenated data vector.
		if prev != nil && prev.kind == execAlways {
			base := len(prev.defData)
			ops := append(append([]Op{}, prev.action...), u.action...)
			for i := len(prev.action); i < len(ops); i++ {
				if k := ops[i].Kind; k == OpSetData || k == OpAddData {
					ops[i].DataIdx += base
				}
			}
			prev.action, prev.defData = ops, append(append([]int32{}, prev.defData...), u.defData...)
			return
		}
	case MatchExact:
		cp.specializeExact(t, &u)
	case MatchTernary:
		cp.specializeTernary(t, &u)
	}
	if t.Kind != MatchNone && t.DefaultData != nil {
		u.miss = u.slot(t.DefaultData)
		for _, tbl := range [][]int32{u.dense, u.islot} {
			for i, s := range tbl {
				if s < 0 {
					tbl[i] = u.miss
				}
			}
		}
	}
	if u.valueTable() && !u.hasGate && len(u.action) == 1 {
		// An ungated single-destination value table is a load; adjacent
		// ones run as one unit, in table order.
		ld := load{key: u.keyFields[0], mask: u.keyMasks[0], dst: u.action[0].Dst, tab: u.tab}
		if prev != nil && prev.loads != nil {
			prev.loads = append(prev.loads, ld)
			prev.action = append(prev.action[:len(prev.action):len(prev.action)], u.action...)
			return
		}
		u.loads, u.tab = []load{ld}, nil
	}
	cp.units = append(cp.units, u)
}

// slot appends one slot of action data to the unit's slab and returns
// its index. Values past the action's arity are never read and dropped.
func (u *execUnit) slot(data []int32) int32 {
	u.flat = append(u.flat, data[:u.stride]...)
	u.slots++
	return u.slots - 1
}

// valueTable converts a direct unit whose action only loads action data
// and whose every key value resolves to a slot into a value table: the
// slot indirection is resolved at compile time, tab[key*n+j] being the
// value of the action's jth destination. A key that misses without a
// default must leave the PHV untouched, so such a table stays on slots.
func (u *execUnit) valueTable() bool {
	n := len(u.action)
	if u.kind != execDirect || n == 0 || len(u.dense)*n > valueTableCells {
		return false
	}
	for i := range u.action {
		if u.action[i].Kind != OpSetData {
			return false
		}
	}
	for _, s := range u.dense {
		if s < 0 {
			return false
		}
	}
	u.tab = make([]int32, len(u.dense)*n)
	for k, s := range u.dense {
		for j := range u.action {
			u.tab[k*n+j] = u.flat[int(s)*u.stride+u.action[j].DataIdx]
		}
	}
	u.dense, u.flat = nil, nil
	return true
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
		for k := range u.dense {
			u.dense[k] = -1
		}
		for ei := range t.Entries {
			e := &t.Entries[ei]
			if k := e.Key[0]; k <= wm && u.dense[k] < 0 {
				u.dense[k] = u.slot(e.Data)
			}
		}
		return
	}
	totalBits := 0
	for _, w := range t.KeyWidths {
		totalBits += w
	}
	if totalBits > 64 {
		u.scan(execScanExact, t.Entries)
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
				u.hkeys[h] = pk
				u.hslot[h] = u.slot(e.Data)
				break
			}
			if u.hkeys[h] == pk {
				continue insert // duplicate key: first entry wins
			}
		}
	}
}

// scan makes u a generic scan over entries, slot = entry index.
func (u *execUnit) scan(kind execKind, entries []Entry) {
	u.kind, u.entries = kind, entries
	for ei := range entries {
		u.slot(entries[ei].Data)
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
		u.scan(execScanTernary, t.Entries)
		return
	}
	// Reachable rules, in priority order (rule index = slot), with their
	// per-dimension intervals. A rule whose value has bits outside its
	// (width-clipped) mask can never hit: lookup keys are width-masked.
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
		u.slot(e.Data)
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
			u.dense[v] = u.islot[i]
		}
	}
	u.lows, u.islot = nil, nil
}

// buildBitmap lowers a multi-field rule set into one row-indexed rule
// bitset per dimension: row r of dimension d holds a bit for every
// rule whose dth interval contains the keys mapping to that row, behind
// sumWords summary words whose bit w is set iff the row's word w is
// non-zero. The lookup intersects one row per dimension; the lowest set
// bit of the intersection is the first (highest-priority) matching rule.
func (cp *CompiledProgram) buildBitmap(t *Table, u *execUnit, rules [][]span) {
	if len(rules) == 0 {
		u.kind = execScanTernary // always a miss; scan of zero entries
		return
	}
	u.kind = execBitmap
	u.bsWords = (len(rules) + 63) / 64
	u.sumWords = (u.bsWords + 63) / 64
	rw := u.sumWords + u.bsWords
	u.dims = make([]bitmapDim, len(t.KeyFields))
	for d := range u.dims {
		dim := &u.dims[d]
		dim.base = len(u.rows)
		wm := uint64(u.keyMasks[d])
		nrows := int(wm) + 1 // narrow dimension: one row per key value
		if t.KeyWidths[d] > denseRangeBits {
			// Wide dimension: one row per elementary interval, resolved
			// by binary search at lookup time.
			dim.lows = elementaryLows(rules, d, wm)
			nrows = len(dim.lows)
		}
		u.rows = append(u.rows, make([]uint64, nrows*rw)...)
		for ri, rule := range rules {
			// No rule boundary falls inside a row, so the rule covers
			// exactly the rows from its interval's first key to its last.
			lo, hi := int(rule[d].lo), int(rule[d].hi)
			if dim.lows != nil {
				lo, hi = intervalRow(dim.lows, uint32(lo)), intervalRow(dim.lows, uint32(hi))
			}
			word, bit := dim.base+u.sumWords+ri/64, uint64(1)<<uint(ri%64)
			for row := lo; row <= hi; row++ {
				u.rows[word+row*rw] |= bit
			}
		}
		for row := 0; row < nrows; row++ {
			r := u.rows[dim.base+row*rw:][:rw]
			for w, x := range r[u.sumWords:] {
				if x != 0 {
					r[w/64] |= 1 << uint(w%64)
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

// hit applies a unit's action with the action data of one slab slot.
// The ubiquitous all-OpSetData shape (feature loads, class/output
// writebacks) specialises into a bare copy loop (sets non-nil).
type hit struct {
	sets   []setPair
	ops    []Op
	regs   []*Register
	flat   []int32
	stride int
}

func (cp *CompiledProgram) hitOf(u *execUnit) *hit {
	h := &hit{ops: u.action, regs: cp.regs, flat: u.flat, stride: u.stride}
	for i := range u.action {
		if u.action[i].Kind != OpSetData {
			return h
		}
	}
	for _, op := range u.action {
		h.sets = append(h.sets, setPair{op.Dst, op.DataIdx})
	}
	return h
}

// apply runs the action on slot s; a negative slot is a miss without
// default data and leaves the PHV untouched.
func (h *hit) apply(p *PHV, s int) {
	if s < 0 {
		return
	}
	row := h.flat[s*h.stride : (s+1)*h.stride]
	if h.sets == nil {
		runOps(h.ops, p, row, h.regs)
		return
	}
	for _, pr := range h.sets {
		p.Vals[pr.dst] = row[pr.idx]
	}
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
	if u.kind == execAlways {
		return alwaysApplier(u.action, cp.regs)
	}
	h, miss := cp.hitOf(u), int(u.miss)
	kfs, kms := u.keyFields, u.keyMasks
	switch u.kind {
	case execDirect:
		if loads := u.loads; loads != nil {
			return func(p *PHV) {
				v := p.Vals
				for i := range loads {
					l := &loads[i]
					v[l.dst] = l.tab[uint32(v[l.key])&l.mask]
				}
			}
		}
		kf, km := kfs[0], kms[0]
		if tab, sets := u.tab, h.sets; tab != nil {
			return func(p *PHV) {
				base := int(uint32(p.Vals[kf])&km) * len(sets)
				for j, pr := range sets {
					p.Vals[pr.dst] = tab[base+j]
				}
			}
		}
		dense := u.dense
		return func(p *PHV) { h.apply(p, int(dense[uint32(p.Vals[kf])&km])) }
	case execHash:
		shifts, hkeys, hslot := u.shifts, u.hkeys, u.hslot
		mask := uint64(len(hkeys) - 1)
		return func(p *PHV) {
			var pk uint64
			for i, f := range kfs {
				pk |= uint64(uint32(p.Vals[f])&kms[i]) << shifts[i]
			}
			s := miss
			for i := mix64(pk) & mask; hslot[i] >= 0; i = (i + 1) & mask {
				if hkeys[i] == pk {
					s = int(hslot[i])
					break
				}
			}
			h.apply(p, s)
		}
	case execInterval:
		kf, km, lows, islot := kfs[0], kms[0], u.lows, u.islot
		return func(p *PHV) { h.apply(p, int(islot[intervalRow(lows, uint32(p.Vals[kf])&km)])) }
	case execBitmap:
		dims, rows, nsum, rw := u.dims, u.rows, u.sumWords, u.sumWords+u.bsWords
		if len(dims) == 4 {
			// The same search with the four row offsets in registers.
			return func(p *PHV) {
				v := p.Vals
				o0 := dims[0].off(uint32(v[kfs[0]])&kms[0], rw)
				o1 := dims[1].off(uint32(v[kfs[1]])&kms[1], rw)
				o2 := dims[2].off(uint32(v[kfs[2]])&kms[2], rw)
				o3 := dims[3].off(uint32(v[kfs[3]])&kms[3], rw)
				for sw := 0; sw < nsum; sw++ {
					for x := rows[o0+sw] & rows[o1+sw] & rows[o2+sw] & rows[o3+sw]; x != 0; x &= x - 1 {
						w := sw*64 + bits.TrailingZeros64(x)
						if y := rows[o0+nsum+w] & rows[o1+nsum+w] & rows[o2+nsum+w] & rows[o3+nsum+w]; y != 0 {
							h.apply(p, w*64+bits.TrailingZeros64(y))
							return
						}
					}
				}
				h.apply(p, miss)
			}
		}
		return func(p *PHV) {
			var off [maxBitmapDims]int
			for d := range dims {
				off[d] = dims[d].off(uint32(p.Vals[kfs[d]])&kms[d], rw)
			}
			and := func(w int) uint64 {
				x := rows[off[0]+w]
				for d := 1; d < len(dims); d++ {
					x &= rows[off[d]+w]
				}
				return x
			}
			// Candidate words in ascending order; the lowest set bit of
			// the first non-zero intersection is the first matching rule.
			for sw := 0; sw < nsum; sw++ {
				for x := and(sw); x != 0; x &= x - 1 {
					w := sw*64 + bits.TrailingZeros64(x)
					if y := and(nsum + w); y != 0 {
						h.apply(p, w*64+bits.TrailingZeros64(y))
						return
					}
				}
			}
			h.apply(p, miss)
		}
	case execScanExact, execScanTernary:
		entries, ternary := u.entries, u.kind == execScanTernary
		return func(p *PHV) {
			key := p.keyBuf(len(kfs))
			for i, f := range kfs {
				key[i] = uint32(p.Vals[f]) & kms[i]
			}
		scan:
			for ei := range entries {
				e := &entries[ei]
				for i, k := range key {
					if ternary {
						k &= e.Mask[i]
					}
					if k != e.Key[i] {
						continue scan
					}
				}
				h.apply(p, ei)
				return
			}
			h.apply(p, miss)
		}
	}
	panic("pisa: unknown exec kind")
}
