package pisa

import (
	"fmt"
	"strings"
)

// PlanShape is what CompileProgram lowered a program — or an engine's
// whole chain of them — to: how many units of each lowering the source
// tables became, and the memory their lookup arrays take. It is the
// plan's side of the resource report: Program.Summary says what the
// tables cost on the switch, PlanShape what their replay costs here.
type PlanShape struct {
	Tables int // source tables lowered, dead ones included
	Units  int // plan units: what Process walks, what PlanSplit counts

	Always      int   // merged always-runs
	Dispatch    []int // bodies per dispatch unit (a gate family is one unit, whatever its members lowered to)
	LoadRuns    []int // loads per load run, in plan order
	ValueTables int   // direct units resolved to values, gated or multi-destination
	SlotDirect  int   // direct units that resolve a slab slot
	Hash        int
	Interval    []int // intervals per interval unit, equal-data neighbours merged
	Bitmaps     []int // words per row of each bitmap unit, one bit per cover group
	Rules       int   // reachable rules the bitmap units were given ...
	Groups      int   // ... and the cover groups they kept: equal where grouping is defeated
	Scans       int   // generic scan fallbacks

	// Cells lists the cells of every cell index — one per searched array
	// of interval starts: interval units and wide bitmap dimensions,
	// family members included. Searched counts those no cell width keeps
	// to two starts per cell, which finish by a search of the cell's span.
	Cells    []int
	Searched int

	Bytes int // lookup arrays the plan owns: slabs, value tables, slot, hash, interval, bitmap, cell and case tables
}

// Shape reports the plan's units by lowering and the bytes of lookup
// arrays it owns.
func (cp *CompiledProgram) Shape() PlanShape {
	s := PlanShape{Tables: cp.tables, Units: len(cp.units)}
	for i := range cp.units {
		u := &cp.units[i]
		s.arrays(u)
		switch {
		case u.kind == execAlways:
			s.Always++
		case u.kind == execDispatch:
			s.Dispatch = append(s.Dispatch, len(u.cases))
		case u.loads != nil:
			s.LoadRuns = append(s.LoadRuns, len(u.loads))
		case u.kind == execInterval:
			s.Interval = append(s.Interval, len(u.ix.lows)-2) // less the two pads
		case u.tab != nil:
			s.ValueTables++
		case u.kind == execDirect:
			s.SlotDirect++
		case u.kind == execHash:
			s.Hash++
		case u.kind == execBitmap:
			s.Bitmaps = append(s.Bitmaps, u.bsWords)
			s.Rules, s.Groups = s.Rules+u.rules, s.Groups+u.groups
		default:
			s.Scans++
		}
	}
	return s
}

// arrays accounts the lookup arrays of u — and, for a gate family, of
// its members and case table — and its cell indexes.
func (s *PlanShape) arrays(u *execUnit) {
	words := len(u.flat) + len(u.dense) + len(u.tab) + len(u.hslot) + len(u.islot) + 2*len(u.hkeys) + 2*len(u.rows)
	for _, l := range u.loads {
		words += len(l.tab)
	}
	cells := func(ix *cellIndex) {
		if ix == nil || ix.tab == nil {
			return
		}
		words += 2*len(ix.lows) + len(ix.tab)
		s.Cells = append(s.Cells, len(ix.tab)-1)
		if ix.span {
			s.Searched++
		}
	}
	cells(&u.ix)
	for d := range u.dims {
		cells(u.dims[d].ix)
	}
	if u.kind == execDispatch {
		lo, hi := caseRange(u.cases)
		words += 6*int(hi-lo+1) + 2*len(u.cases) // a slice header per case, a closure pointer per body
		for i := range u.cases {
			s.arrays(&u.cases[i])
		}
	}
	s.Bytes += 4 * words
}

// add accumulates another pipe's shape into s.
func (s *PlanShape) add(o PlanShape) {
	s.Tables += o.Tables
	s.Units += o.Units
	s.Always += o.Always
	s.Dispatch = append(s.Dispatch, o.Dispatch...)
	s.LoadRuns = append(s.LoadRuns, o.LoadRuns...)
	s.ValueTables += o.ValueTables
	s.SlotDirect += o.SlotDirect
	s.Hash += o.Hash
	s.Interval = append(s.Interval, o.Interval...)
	s.Cells = append(s.Cells, o.Cells...)
	s.Searched += o.Searched
	s.Bitmaps = append(s.Bitmaps, o.Bitmaps...)
	s.Rules, s.Groups = s.Rules+o.Rules, s.Groups+o.Groups
	s.Scans += o.Scans
	s.Bytes += o.Bytes
}

// String renders the shape on one line, e.g. "38 tables -> 14 units,
// 47.7 KiB: 1 dispatch (8), 1 load run (16), 4 slot-direct, 2 interval
// (256+206, cell-indexed), 4 bitmap (2+2+2+2 words/row, 5059 rules ->
// 462 groups), 2 always, 2 cell index (1280+464 cells)". An interpreted
// engine has tables and no units.
func (s PlanShape) String() string {
	if s.Units == 0 {
		return fmt.Sprintf("%d tables, interpreted (no plan)", s.Tables)
	}
	var parts []string
	list := func(name, unit string, ns []int) {
		if len(ns) > 0 {
			parts = append(parts, fmt.Sprintf("%d %s (%s%s)", len(ns), name, strings.Trim(strings.ReplaceAll(fmt.Sprint(ns), " ", "+"), "[]"), unit))
		}
	}
	cells := " cells"
	if s.Searched > 0 {
		cells = fmt.Sprintf(" cells, %d searched within the cell", s.Searched)
	}
	count := func(name string, n int) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, name))
		}
	}
	list("dispatch", "", s.Dispatch)
	list("load run", "", s.LoadRuns)
	count("value-table", s.ValueTables)
	count("slot-direct", s.SlotDirect)
	count("hash", s.Hash)
	list("interval", ", cell-indexed", s.Interval)
	list("bitmap", fmt.Sprintf(" words/row, %d rules -> %d groups", s.Rules, s.Groups), s.Bitmaps)
	count("scan", s.Scans)
	count("always", s.Always)
	list("cell index", cells, s.Cells)
	return fmt.Sprintf("%d tables -> %d units, %.1f KiB: %s", s.Tables, s.Units, float64(s.Bytes)/1024, strings.Join(parts, ", "))
}
