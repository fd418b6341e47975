package pisa

import (
	"fmt"
	"math/bits"
	"slices"
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
//     with first-match priority folded into the intervals and
//     neighbours of equal action data merged: a direct unit as above
//     over narrow key domains; over wide ones sorted interval starts
//     behind a cell index (cellIndex: two compares, no search),
//     resolved to values as well when the action only loads data.
//   - Multi-field ternary tables with per-field prefix masks (the
//     two-level combo tables) become per-dimension bitsets with one
//     bit per cover group — a run of consecutive rules of equal action
//     data that is exactly the cross product of its per-field prefix
//     covers, which is what range coding makes of a clustering-tree
//     leaf, or else a single rule. Each dimension resolves its key to
//     the row of groups it satisfies (a wide one through a cell index)
//     and the intersection's lowest set bit is the first matching group.
//   - Everything else falls back to a generic scan with precomputed
//     width masks.
//   - Adjacent units gated == on one field that none of them writes — a
//     gate family: a window machine's per-position banks and fire unit,
//     the stats machine's per-direction trackers — merge, whatever each
//     lowered to, into one dispatch unit: the field is read once and
//     indexes a case table of their bodies (execUnit.adopt).
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
// so the merged op stream carries no data bus at all. An op stream
// that owns a register op is sealed (stream): its register ops are
// resolved once and only its stateless runs still go through runOps.
//
// Measured and found wanting (numbers in ROADMAP item 5): popcount-
// compacted bitmap rows, a compact pre-resolved switch for pure-ALU
// streams (why only register-bearing ones are sealed), unit-major lane
// blocks of 8–64 PHVs, slot-major interleaving of the register arena,
// a 16-ary count search in place of the cell index.
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
// access no register to begin with) or a gate family (whose stateless
// members then run with it on every packet, unobservably).
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
	execInterval                    // cell-indexed search over sorted key intervals
	execBitmap                      // per-dimension group-bitset intersection
	execScanExact                   // generic exact linear scan
	execScanTernary                 // generic ternary linear scan
	execDispatch                    // gate family: case table over the gate field's value
)

// execUnit is one specialised table, merged run of always-tables, load
// run or gate family.
type execUnit struct {
	kind execKind

	gate *Gate // the table's gateway (nil: ungated); a dispatch unit's names the family's field

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
	tab   []int32 // value table: tab[row*len(action)+j], row the masked key (execDirect) or its interval
	loads []load  // execDirect load run

	hkeys  []uint64 // execHash: packed keys, parallel to hslot
	hslot  []int32  // execHash: slot, -1 = empty
	shifts []uint   // execHash: per-field pack shift

	ix    cellIndex // execInterval: the interval starts, searched in O(1)
	islot []int32   // execInterval: slot per interval, miss folded in; value units index tab by interval

	// execDispatch: the family's members in table order, each keeping its
	// own gate; action is their concatenation.
	cases []execUnit

	dims    []bitmapDim // execBitmap: per-key-field row index
	rows    []uint64    // execBitmap: every dimension's rows
	bsWords int         // execBitmap: group-bitset words per row
	rules   int         // execBitmap: reachable rules lowered into ...
	groups  int         // ... this many cover groups, the hit slots

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
// which holds a bit for every group the dimension satisfies. Narrow
// dimensions index rows by key value directly (no index); wide
// dimensions search ix for the elementary interval, whose index is the
// row. Row r starts at base + r*bsWords.
type bitmapDim struct {
	base int
	ix   *cellIndex // the elementary interval starts; nil for dense dimensions
}

// off returns where the row of masked key k starts in the rows array,
// rw being the words per row.
// It sits exactly at the inliner's budget: keep it this small (the
// bitmap closures call it sixteen times per CNN-M window).
func (dim *bitmapDim) off(k uint32, rw int) int {
	if dim.ix != nil {
		return dim.base + dim.ix.row(k)*rw
	}
	return dim.base + int(k)*rw
}

// directMaxBits bounds the key width direct-indexed exact tables
// materialise: 16 bits is a 256 KiB slot array at most, far below the
// SRAM the same table would occupy on the switch.
const directMaxBits = 16

// denseRangeBits bounds the key width a ternary dimension materialises
// densely (per-value slot or bitset-row arrays); wider dimensions
// resolve their interval through a cell index.
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
		cp.procs[i] = gateWrap(&cp.units[i], cp.lowerUnit(&cp.units[i]))
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
		if a := cp.units[i].action; regOps(a) > 0 || writesField(a, fire) {
			return i + 1
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
		u.gate = t.Gate
	}
	var prev *execUnit
	if n := len(cp.units); n > 0 && u.gate == nil && cp.units[n-1].gate == nil {
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
	if u.valueTable() && u.kind == execDirect && u.gate == nil && len(u.action) == 1 {
		// An ungated single-destination direct value table is a load;
		// adjacent ones run as one unit, in table order.
		ld := load{key: u.keyFields[0], mask: u.keyMasks[0], dst: u.action[0].Dst, tab: u.tab}
		if prev != nil && prev.loads != nil {
			prev.loads = append(prev.loads, ld)
			prev.action = append(prev.action[:len(prev.action):len(prev.action)], u.action...)
			return
		}
		u.loads, u.tab = []load{ld}, nil
	}
	if n := len(cp.units); n > 0 && cp.units[n-1].adopt(&u) {
		return
	}
	cp.units = append(cp.units, u)
}

// dispatchSpan bounds a dispatch unit's case table: the gate constants
// of one family lie within this many consecutive values.
const dispatchSpan = 256

// adopt merges m into the gate family that u is or, still a lone
// gated unit, becomes with it: adjacent units gated == on one field
// that none of their ops writes. The field keeps one value from the
// first gate to the last, so reading it once and running that value's
// members in table order is what the gates decide one by one (the
// stable-field rule of validateRMW). A member writing the field, any
// other comparison, or a constant too far from the family's ends it.
func (u *execUnit) adopt(m *execUnit) bool {
	for _, x := range []*execUnit{m, u} {
		if x.gate == nil || x.gate.Op != GateEQ || x.gate.Field != m.gate.Field || writesField(x.action, x.gate.Field) {
			return false
		}
	}
	fam := u.cases
	if u.kind != execDispatch {
		fam = []execUnit{*u}
	}
	fam = append(fam, *m)
	if lo, hi := caseRange(fam); int64(hi)-int64(lo) >= dispatchSpan {
		return false
	}
	*u = execUnit{kind: execDispatch, gate: &Gate{Field: m.gate.Field, Op: GateEQ}, cases: fam,
		action: append(u.action[:len(u.action):len(u.action)], m.action...)}
	return true
}

// caseRange returns the least and greatest gate constant of a family.
func caseRange(fam []execUnit) (lo, hi int32) {
	lo, hi = fam[0].gate.Value, fam[0].gate.Value
	for i := range fam {
		lo, hi = min(lo, fam[i].gate.Value), max(hi, fam[i].gate.Value)
	}
	return lo, hi
}

// slot appends one slot of action data to the unit's slab and returns
// its index. Values past the action's arity are never read and dropped.
func (u *execUnit) slot(data []int32) int32 {
	u.flat = append(u.flat, data[:u.stride]...)
	u.slots++
	return u.slots - 1
}

// valueTable converts a direct or interval unit whose action only loads
// action data and whose every row (key value, interval) resolves to a
// slot into a value table: the slot indirection is resolved at compile
// time, tab[row*n+j] being the value of the action's jth destination. A
// key that misses without a default must leave the PHV untouched, so
// such a table stays on slots.
func (u *execUnit) valueTable() bool {
	n, slots := len(u.action), u.dense
	if u.kind == execInterval {
		slots = u.islot
	}
	if len(slots) == 0 || n == 0 || len(slots)*n > valueTableCells {
		return false
	}
	if setsOf(u.action) == nil || slices.Min(slots) < 0 {
		return false
	}
	u.tab = make([]int32, len(slots)*n)
	for k, s := range slots {
		for j := range u.action {
			u.tab[k*n+j] = u.flat[int(s)*u.stride+u.action[j].DataIdx]
		}
	}
	u.dense, u.islot, u.flat = nil, nil, nil
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
// become a dense per-value slot array (narrow keys) or cell-indexed
// sorted intervals (wide keys); multi-field tables become
// per-dimension group bitsets whose intersection's lowest set bit is
// the winning cover group. Anything else keeps the generic masked scan.
func (cp *CompiledProgram) specializeTernary(t *Table, u *execUnit) {
	if len(t.KeyFields) > maxBitmapDims || !prefixEntries(t.Entries, u.keyMasks) {
		u.scan(execScanTernary, t.Entries)
		return
	}
	// Reachable rules in priority order, rules[d][i] being rule i's
	// interval in dimension d. A rule whose value has bits outside its
	// (width-clipped) mask can never hit: lookup keys are width-masked.
	rules, data := make([][]span, len(t.KeyFields)), make([][]int32, 0, len(t.Entries))
	for d := range rules {
		rules[d] = make([]span, 0, len(t.Entries))
	}
reach:
	for ei := range t.Entries {
		e := &t.Entries[ei]
		for d, wm := range u.keyMasks {
			if e.Key[d]&^(e.Mask[d]&wm) != 0 {
				continue reach
			}
		}
		for d, wm := range u.keyMasks {
			rules[d] = append(rules[d], span{lo: uint64(e.Key[d]), hi: uint64(e.Key[d] | wm&^e.Mask[d])})
		}
		data = append(data, e.Data[:u.stride])
	}
	if len(rules) == 1 {
		for _, row := range data {
			u.slot(row) // slot = rule index
		}
		cp.buildInterval(t, u, rules[0])
		return
	}
	// Cover groups, group[i] being rule i's slot: a maximal run of
	// consecutive rules of equal data that is a cross product shares one,
	// any other run takes one per rule. No rule of other data lies inside a
	// run, so priority between groups is the table's own order.
	group := make([]int, len(data))
	for a, b := 0, 0; a < len(data); a = b {
		for b = a + 1; b < len(data) && slices.Equal(data[b], data[a]); b++ {
		}
		product := b-a == 1 || crossProduct(rules, a, b)
		for i := a; i < b; i++ {
			if i == a || !product {
				u.slot(data[i])
			}
			group[i] = int(u.slots) - 1
		}
	}
	cp.buildBitmap(t, u, rules, group)
}

// crossProduct reports whether the boxes of rules [a, b) are pairwise
// distinct and exactly the cross product of the distinct spans they use
// in each dimension. A box is numbered by its spans' ranks, mixed radix:
// with the radix product kept to at most b-a, the numbers are pairwise
// distinct exactly then.
func crossProduct(rules [][]span, a, b int) bool {
	box, packed, radix := make([]int, b-a), make([]uint64, b-a), 1
	for _, spans := range rules {
		for i, sp := range spans[a:b] {
			packed[i] = sp.lo<<32 | sp.hi
		}
		slices.Sort(packed)
		distinct := slices.Compact(packed)
		for i, sp := range spans[a:b] {
			rank, _ := slices.BinarySearch(distinct, sp.lo<<32|sp.hi)
			box[i] += rank * radix
		}
		if radix *= len(distinct); radix > b-a {
			return false
		}
	}
	slices.Sort(box)
	return len(slices.Compact(box)) == b-a
}

// elementaryLows returns the sorted, deduplicated starts of the
// elementary intervals induced by one dimension of the rule set: 0,
// every rule start, and every position just past a rule end, clipped
// to the key domain wm. No rule boundary falls strictly inside an
// elementary interval, so rule coverage is constant across each.
func elementaryLows(rules []span, wm uint64) []uint64 {
	bounds := []uint64{0}
	for _, r := range rules {
		bounds = append(bounds, r.lo)
		if r.hi < wm {
			bounds = append(bounds, r.hi+1)
		}
	}
	slices.Sort(bounds)
	return slices.Compact(bounds)
}

// le is the sign mask of low ≤ k (starts are 64-bit so that a pad of
// 1<<32 lies above every key).
func le(low uint64, k uint32) int { return int((int64(low) - int64(k) - 1) >> 63) }

// intervalRow returns the index of the greatest interval start ≤ k;
// lows is ascending with lows[0] ≤ k, so the result is always valid.
// The search is a branch-free lower-bound loop: the key is a packet
// length or inter-arrival bucket no branch predictor can guess, so the
// comparison becomes a sign mask that selects the step, and the only
// branch left is the loop's own, which depends on len(lows) alone.
// Lookups go through cellIndex.row; this sizes row ranges at build
// time and finishes the cells of a span index.
func intervalRow(lows []uint64, k uint32) int {
	base := 0
	for n := len(lows); n > 1; {
		half := n >> 1
		base += half & le(lows[base+half], k)
		n -= half
	}
	return base
}

// cellIndex resolves a key to its interval — the greatest start ≤ k —
// without a search. Keys fall into semilog cells, (bit length, next m
// key bits): every key below 2^(m+1) is its own cell, every octave
// above splits into 2^m. tab holds each cell's first interval, and m is
// the smallest width at which no cell holds more than two further
// starts, so two compare-adds finish: one structure serves a linear
// scale (len/6: m = 7) and a logarithmic one (IPD: m = 4). Where no
// m ≤ cellMaxBits does (span), m gives about a cell per interval and
// intervalRow finishes over the cell's own starts.
type cellIndex struct {
	lows []uint64 // ascending interval starts, lows[0] = 0, then two pads of 1<<32
	tab  []int32  // cell -> first interval, plus one closing cell
	m    uint
	span bool
}

const cellMaxBits = 10

// cellOf returns the cell of key k at width m.
func cellOf(k uint32, m uint) int {
	s := uint(bits.Len32(k >> (m + 1)))
	return int(s<<m) + int(k>>(s&31))
}

// cellLow returns the least key of cell c at width m.
func cellLow(c int, m uint) uint64 {
	s := uint(max(c>>m-1, 0))
	return uint64(c-int(s<<m)) << s
}

func (ix *cellIndex) row(k uint32) int {
	c := cellOf(k, ix.m)
	i := int(ix.tab[c])
	if ix.span {
		return i + intervalRow(ix.lows[i:ix.tab[c+1]+1], k)
	}
	return i - le(ix.lows[i+1], k) - le(ix.lows[i+2], k)
}

// newCellIndex indexes lows (ascending, lows[0] = 0) for keys ≤ km.
func newCellIndex(lows []uint64, km uint32) cellIndex {
	n := len(lows)
	ix := cellIndex{lows: append(lows[:n:n], 1<<32, 1<<32)}
	// fill builds tab at width ix.m and reports whether two compares finish.
	fill := func() bool {
		two, i := true, 0
		ix.tab = make([]int32, cellOf(km, ix.m)+2)
		for c := range ix.tab {
			for i+1 < n && lows[i+1] <= cellLow(c, ix.m) {
				i++
			}
			ix.tab[c] = int32(i)
			two = two && (i+3 >= n || lows[i+3] >= cellLow(c+1, ix.m))
		}
		return two
	}
	for ix.m = 0; ix.m <= cellMaxBits; ix.m++ {
		if fill() {
			return ix
		}
	}
	for ix.m = 0; ix.m < cellMaxBits && cellOf(km, ix.m) < n; ix.m++ {
	}
	ix.span = !fill()
	return ix
}

// buildInterval lowers a single-field rule set into elementary
// intervals, merging neighbours of equal action data (prefix expansion
// spends several rules per value) but never a miss that leaves the PHV
// untouched with an interval that runs the action; narrow domains
// expand into an execDirect dense array.
func (cp *CompiledProgram) buildInterval(t *Table, u *execUnit, rules []span) {
	wm := uint64(u.keyMasks[0])
	row := func(s int32) []int32 {
		if s < 0 {
			return t.DefaultData[:u.stride]
		}
		return u.flat[int(s)*u.stride : int(s+1)*u.stride]
	}
	var lows []uint64
	for _, b := range elementaryLows(rules, wm) {
		// First rule covering b wins, as in the entry scan.
		slot := int32(-1)
		for ri, r := range rules {
			if r.lo <= b && b <= r.hi {
				slot = int32(ri)
				break
			}
		}
		if n := len(u.islot); n > 0 {
			if prev := u.islot[n-1]; prev == slot || (t.DefaultData != nil || prev >= 0 && slot >= 0) && slices.Equal(row(prev), row(slot)) {
				continue // merge with the previous interval
			}
		}
		lows = append(lows, b)
		u.islot = append(u.islot, slot)
	}
	if t.KeyWidths[0] > denseRangeBits {
		u.kind, u.ix = execInterval, newCellIndex(lows, u.keyMasks[0])
		return
	}
	// Narrow domain: expand the intervals into a per-value slot array.
	u.kind = execDirect
	u.dense = make([]int32, wm+1)
	for i, lo := range lows {
		hi := wm
		if i+1 < len(lows) {
			hi = lows[i+1] - 1
		}
		for v := lo; v <= hi; v++ {
			u.dense[v] = u.islot[i]
		}
	}
	u.islot = nil
}

// buildBitmap lowers a multi-field rule set into one row-indexed group
// bitset per dimension: row r of dimension d holds a bit for every
// group one of whose rules' dth interval contains the keys mapping to
// that row — the union of the group's spans, which with the other
// dimensions' unions is exactly the cross product the group stands for.
// The lookup intersects one row per dimension; the lowest set bit of the
// intersection is the first (highest-priority) matching group.
func (cp *CompiledProgram) buildBitmap(t *Table, u *execUnit, rules [][]span, group []int) {
	if len(group) == 0 {
		u.kind = execScanTernary // always a miss; scan of zero entries
		return
	}
	u.kind, u.rules, u.groups = execBitmap, len(group), int(u.slots)
	u.bsWords = (u.groups + 63) / 64
	rw := u.bsWords
	u.dims = make([]bitmapDim, len(rules))
	for d := range u.dims {
		dim := &u.dims[d]
		dim.base = len(u.rows)
		wm := uint64(u.keyMasks[d])
		nrows := int(wm) + 1 // narrow dimension: one row per key value
		var lows []uint64
		if t.KeyWidths[d] > denseRangeBits {
			// Wide dimension: one row per elementary interval, resolved
			// through the cell index at lookup time.
			lows = elementaryLows(rules[d], wm)
			ix := newCellIndex(lows, u.keyMasks[d])
			dim.ix, nrows = &ix, len(lows)
		}
		u.rows = append(u.rows, make([]uint64, nrows*rw)...)
		for ri, rule := range rules[d] {
			// No rule boundary falls inside a row, so the rule covers
			// exactly the rows from its interval's first key to its last.
			lo, hi := int(rule.lo), int(rule.hi)
			if lows != nil {
				lo, hi = intervalRow(lows, uint32(lo)), intervalRow(lows, uint32(hi))
			}
			word, bit := dim.base+group[ri]/64, uint64(1)<<uint(group[ri]%64)
			for row := lo; row <= hi; row++ {
				u.rows[word+row*rw] |= bit
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
// add-immediate. The folded copy references no data slice.
func foldAlwaysData(u *execUnit) {
	ops := slices.Clone(u.action)
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
	if u.gate == nil || u.kind == execDispatch {
		return body // a family's gates are its case table
	}
	f, v := u.gate.Field, u.gate.Value
	switch u.gate.Op {
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

// stream is a unit's op stream as the plan executes it. A stream that
// owns a register op is sealed: cut into runs of stateless ops, which
// keep runOps (a second compact switch measured slower on them), and
// register ops resolved once — *Register for regs[op.Reg], one bounds
// check, truncation as a shift pair — the RMW count added once per
// execution, as every op of a stream runs unconditionally.
type stream struct {
	ops    []Op
	sealed []sealedOp
	rmws   uint64
}

// sealedOp is a register op with its register (Op.Reg resolved), or a
// run of stateless ops (reg nil).
type sealedOp struct {
	Op
	reg *Register
	alu []Op
}

func newStream(ops []Op, regs []*Register) stream {
	st := stream{ops: ops, rmws: regOps(ops)}
	for i, j := 0, 0; st.rmws > 0 && i < len(ops); i = j + 1 {
		for j = i; j < len(ops) && ops[j].regAccess() < 0; j++ {
		}
		if j > i {
			st.sealed = append(st.sealed, sealedOp{alu: ops[i:j]})
		}
		if j < len(ops) {
			st.sealed = append(st.sealed, sealedOp{Op: ops[j], reg: regs[ops[j].Reg]})
		}
	}
	return st
}

// runSealed executes a sealed stream on p with the given action data,
// bit for bit as runOps would: a register op reads 0 from and drops its
// write to an out-of-range cell, and hands the PHV its untruncated
// result. Callers bind runOps directly when sealed is nil.
func (st *stream) runSealed(p *PHV, data []int32) {
	p.RegRMWs += st.rmws
	for i := range st.sealed {
		op := &st.sealed[i]
		r := op.reg
		if r == nil {
			runOps(op.alu, p, data, nil)
			continue
		}
		c, old, v := r.cell(p.Vals[op.A]), int32(0), p.Vals[op.B]
		if c >= 0 {
			old = r.vals[c]
		}
		switch op.Kind {
		case OpRegLoad:
			p.Vals[op.Dst] = old
			continue
		case OpRegStore, OpRegExch: // the cell takes B as it is
		case OpRegMax:
			v = max(old, v)
		case OpRegMin:
			v = min(old, v)
		case OpRegAdd:
			v += old
		case OpRegCntRestart:
			if v = op.Imm; p.Vals[op.B] == 0 {
				v = old + 1
			}
		}
		if c >= 0 {
			w := uint(32 - r.Width)
			r.vals[c] = v << w >> w
		}
		if op.Kind == OpRegExch {
			v = old
		}
		if op.writesDst() {
			p.Vals[op.Dst] = v
		}
	}
}

// hit applies a unit's action with the action data of one slab slot.
// The ubiquitous all-OpSetData shape (feature loads, class/output
// writebacks) specialises into a bare copy loop (sets non-nil).
type hit struct {
	sets []setPair
	stream
	flat   []int32
	stride int
}

func (cp *CompiledProgram) hitOf(u *execUnit) *hit {
	return &hit{sets: setsOf(u.action), stream: newStream(u.action, cp.regs), flat: u.flat, stride: u.stride}
}

// setsOf folds an action of OpSetData only into its copy pairs; nil
// for any other action.
func setsOf(action []Op) (sets []setPair) {
	for _, op := range action {
		if op.Kind != OpSetData {
			return nil
		}
		sets = append(sets, setPair{op.Dst, op.DataIdx})
	}
	return sets
}

// apply runs the action on slot s; a negative slot is a miss without
// default data and leaves the PHV untouched.
func (h *hit) apply(p *PHV, s int) {
	if s < 0 {
		return
	}
	row := h.flat[s*h.stride : (s+1)*h.stride]
	if h.sets == nil {
		if h.sealed == nil {
			runOps(h.ops, p, row, nil)
		} else {
			h.runSealed(p, row)
		}
		return
	}
	for _, pr := range h.sets {
		p.Vals[pr.dst] = row[pr.idx]
	}
}

// load copies row r of a value table into the action's destinations.
func (h *hit) load(p *PHV, tab []int32, r int) {
	base := r * len(h.sets)
	for j, pr := range h.sets {
		p.Vals[pr.dst] = tab[base+j]
	}
}

// alwaysApplier returns the closure for a (folded) always-run op
// stream: single stateless ops — the emitted shape for scalar fixups —
// bind straight to a dedicated closure; everything else runs as a
// stream with no data bus.
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
		}
	}
	st := newStream(ops, regs)
	if st.sealed == nil {
		return func(p *PHV) { runOps(ops, p, nil, nil) }
	}
	return func(p *PHV) { st.runSealed(p, nil) }
}

// lowerUnit lowers one specialised unit into its straight-line closure
// (gate excluded; seal wraps it). Every lookup constant is captured by
// value, so the hot path reads no execUnit fields and performs no kind
// dispatch.
func (cp *CompiledProgram) lowerUnit(u *execUnit) func(*PHV) {
	switch u.kind {
	case execAlways:
		foldAlwaysData(u)
		return alwaysApplier(u.action, cp.regs)
	case execDispatch:
		lo, hi := caseRange(u.cases)
		bodies, f := make([][]func(*PHV), hi-lo+1), u.gate.Field
		for i := range u.cases {
			c := u.cases[i].gate.Value - lo
			bodies[c] = append(bodies[c], cp.lowerUnit(&u.cases[i]))
		}
		return func(p *PHV) {
			if i := uint32(p.Vals[f] - lo); i < uint32(len(bodies)) {
				for _, body := range bodies[i] {
					body(p)
				}
			}
		}
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
		if tab := u.tab; tab != nil {
			return func(p *PHV) { h.load(p, tab, int(uint32(p.Vals[kf])&km)) }
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
		kf, km, ix, islot := kfs[0], kms[0], u.ix, u.islot
		if tab := u.tab; tab != nil {
			return func(p *PHV) { h.load(p, tab, ix.row(uint32(p.Vals[kf])&km)) }
		}
		return func(p *PHV) { h.apply(p, int(islot[ix.row(uint32(p.Vals[kf])&km)])) }
	case execBitmap:
		dims, rows, rw := u.dims, u.rows, u.bsWords
		if len(dims) == 4 {
			// The same search with the four row offsets in registers.
			return func(p *PHV) {
				v := p.Vals
				o0 := dims[0].off(uint32(v[kfs[0]])&kms[0], rw)
				o1 := dims[1].off(uint32(v[kfs[1]])&kms[1], rw)
				o2 := dims[2].off(uint32(v[kfs[2]])&kms[2], rw)
				o3 := dims[3].off(uint32(v[kfs[3]])&kms[3], rw)
				for w := 0; w < rw; w++ {
					if y := rows[o0+w] & rows[o1+w] & rows[o2+w] & rows[o3+w]; y != 0 {
						h.apply(p, w*64+bits.TrailingZeros64(y))
						return
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
			// The lowest set bit of the first non-zero intersection is the
			// first matching group.
			for w := 0; w < rw; w++ {
				y := rows[off[0]+w]
				for d := 1; d < len(dims); d++ {
					y &= rows[off[d]+w]
				}
				if y != 0 {
					h.apply(p, w*64+bits.TrailingZeros64(y))
					return
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
