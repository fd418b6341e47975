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
	LoadRuns    []int // loads per load run, in plan order
	ValueTables int   // direct units resolved to values, gated or multi-destination
	SlotDirect  int   // direct units that resolve a slab slot
	Hash        int
	Interval    int
	Bitmaps     []int // words per row of each bitmap unit, summary words included
	Scans       int   // generic scan fallbacks

	Bytes int // lookup arrays the plan owns: slabs, value tables, slot, hash, interval and bitmap arrays
}

// Shape reports the plan's units by lowering and the bytes of lookup
// arrays it owns.
func (cp *CompiledProgram) Shape() PlanShape {
	s := PlanShape{Tables: cp.tables, Units: len(cp.units)}
	for i := range cp.units {
		u := &cp.units[i]
		words := len(u.flat) + len(u.dense) + len(u.tab) + len(u.hslot) + len(u.lows) + len(u.islot) + 2*len(u.hkeys) + 2*len(u.rows)
		for _, l := range u.loads {
			words += len(l.tab)
		}
		for _, d := range u.dims {
			words += len(d.lows)
		}
		s.Bytes += 4 * words
		switch {
		case u.kind == execAlways:
			s.Always++
		case u.loads != nil:
			s.LoadRuns = append(s.LoadRuns, len(u.loads))
		case u.tab != nil:
			s.ValueTables++
		case u.kind == execDirect:
			s.SlotDirect++
		case u.kind == execHash:
			s.Hash++
		case u.kind == execInterval:
			s.Interval++
		case u.kind == execBitmap:
			s.Bitmaps = append(s.Bitmaps, u.sumWords+u.bsWords)
		default:
			s.Scans++
		}
	}
	return s
}

// add accumulates another pipe's shape into s.
func (s *PlanShape) add(o PlanShape) {
	s.Tables += o.Tables
	s.Units += o.Units
	s.Always += o.Always
	s.LoadRuns = append(s.LoadRuns, o.LoadRuns...)
	s.ValueTables += o.ValueTables
	s.SlotDirect += o.SlotDirect
	s.Hash += o.Hash
	s.Interval += o.Interval
	s.Bitmaps = append(s.Bitmaps, o.Bitmaps...)
	s.Scans += o.Scans
	s.Bytes += o.Bytes
}

// String renders the shape on one line, e.g. "27 tables -> 10 units,
// 149.4 KiB: 1 load run (16), 4 slot-direct, 4 bitmap (20+22+27+16
// words/row), 1 always". An interpreted engine has tables and no units.
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
	count := func(name string, n int) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, name))
		}
	}
	list("load run", "", s.LoadRuns)
	count("value-table", s.ValueTables)
	count("slot-direct", s.SlotDirect)
	count("hash", s.Hash)
	count("interval", s.Interval)
	list("bitmap", " words/row", s.Bitmaps)
	count("scan", s.Scans)
	count("always", s.Always)
	return fmt.Sprintf("%d tables -> %d units, %.1f KiB: %s", s.Tables, s.Units, float64(s.Bytes)/1024, strings.Join(parts, ", "))
}
