package pisa

import (
	"fmt"
	"sort"
	"strings"
)

// Stage is one physical MAT stage holding the tables placed into it.
type Stage struct {
	Tables []*Table
}

// Program is a compiled pipeline: a PHV layout, stages of tables, and
// stateful registers.
type Program struct {
	Name      string
	Layout    *Layout
	Stages    []*Stage
	Registers []*Register
	Cap       Capacity

	// regArena backs every register after CompactRegisters: one
	// contiguous slab, shard-partitioned so each engine worker's cells
	// are a contiguous bank.
	regArena  []int32
	regShards int
}

// NewProgram creates an empty program against the given capacity.
func NewProgram(name string, layout *Layout, cap Capacity) *Program {
	return &Program{Name: name, Layout: layout, Cap: cap}
}

// AddRegister appends a stateful register and returns its index.
func (p *Program) AddRegister(r *Register) int {
	p.Registers = append(p.Registers, r)
	return len(p.Registers) - 1
}

// Place appends table t to stage idx, growing the pipeline as needed.
// Placement also precomputes the table's per-field width masks so the
// per-packet lookup path never recomputes them.
func (p *Program) Place(stage int, t *Table) {
	for len(p.Stages) <= stage {
		p.Stages = append(p.Stages, &Stage{})
	}
	t.prepare()
	p.Stages[stage].Tables = append(p.Stages[stage].Tables, t)
}

// Process runs one packet's PHV through every stage in order.
func (p *Program) Process(phv *PHV) {
	for _, st := range p.Stages {
		for _, t := range st.Tables {
			t.apply(phv, p.Registers)
		}
	}
}

// StageUsage is the resource consumption of one stage.
type StageUsage struct {
	SRAMBits int
	TCAMBits int
	BusBits  int
	Tables   int
}

// Resources summarises a program's hardware consumption.
type Resources struct {
	Stages      int
	PHVBits     int
	PerStage    []StageUsage
	SRAMBits    int // total, incl. registers
	TCAMBits    int
	RegBits     int // stateful SRAM subtotal
	PeakBusBits int
}

// SRAMFrac returns total SRAM use as a fraction of pipeline capacity.
func (r *Resources) SRAMFrac(c Capacity) float64 {
	return float64(r.SRAMBits) / float64(c.SRAMBitsPerStage*c.Stages)
}

// TCAMFrac returns total TCAM use as a fraction of pipeline capacity.
func (r *Resources) TCAMFrac(c Capacity) float64 {
	return float64(r.TCAMBits) / float64(c.TCAMBitsPerStage*c.Stages)
}

// BusFrac returns the peak per-stage action-data-bus use as a fraction
// of the bus width — the binding constraint on data transfer.
func (r *Resources) BusFrac(c Capacity) float64 {
	return float64(r.PeakBusBits) / float64(c.BusBits)
}

// Resources computes the program's consumption. Registers are charged to
// stage 0's SRAM column conceptually but reported separately in RegBits
// (and included in SRAMBits, as register arrays occupy stage SRAM).
func (p *Program) Resources() Resources {
	res := Resources{Stages: len(p.Stages), PHVBits: p.Layout.TotalBits()}
	for _, st := range p.Stages {
		u := StageUsage{Tables: len(st.Tables)}
		for _, t := range st.Tables {
			u.SRAMBits += t.SRAMBits()
			u.TCAMBits += t.TCAMBits()
			u.BusBits += t.DataWidthBits
		}
		res.PerStage = append(res.PerStage, u)
		res.SRAMBits += u.SRAMBits
		res.TCAMBits += u.TCAMBits
		if u.BusBits > res.PeakBusBits {
			res.PeakBusBits = u.BusBits
		}
	}
	for _, r := range p.Registers {
		res.RegBits += r.SRAMBits()
		res.SRAMBits += r.SRAMBits()
	}
	return res
}

// ResetState restores every stateful register to its initial value —
// used between replay runs so a program can be re-executed from a clean
// flow table. Compiled plans alias the same registers, so resetting the
// program resets them too.
func (p *Program) ResetState() {
	for _, r := range p.Registers {
		r.Reset()
	}
}

// CompactRegisters repacks every register of the program into one
// contiguous arena, banked shard-major for the given shard count (see
// Register.rebase): the flow-state an engine worker touches becomes one
// dense range of one slab instead of scattered strides across
// per-register allocations. Logical contents are preserved, so it is
// safe to call between batches; engine construction calls it with the
// session's shard count. Idempotent for an unchanged shard count.
func (p *Program) CompactRegisters(shards int) {
	if len(p.Registers) == 0 {
		return
	}
	if p.regArena != nil && p.regShards == shards {
		return
	}
	total := 0
	for _, r := range p.Registers {
		total += r.Size
	}
	arena := make([]int32, total)
	off := 0
	for _, r := range p.Registers {
		r.rebase(arena[off:off+r.Size:off+r.Size], shards)
		off += r.Size
	}
	p.regArena = arena
	p.regShards = shards
}

// Validate checks the program against its capacity: stage count, per-
// stage SRAM/TCAM, bus width, PHV size, intra-stage write hazards
// (two tables in one stage writing the same field, or one reading a
// field another writes, as operand, match key or gateway — PISA stages
// execute in parallel), the
// one-read-modify-write-per-register-per-packet rule, and action-data
// arity (every entry and default carries as many values as its table's
// action reads).
func (p *Program) Validate() error {
	var errs []string
	errs = append(errs, p.validateRMW()...)
	if len(p.Stages) > p.Cap.Stages {
		errs = append(errs, fmt.Sprintf("uses %d stages, capacity %d", len(p.Stages), p.Cap.Stages))
	}
	if phv := p.Layout.TotalBits(); phv > p.Cap.PHVBits {
		errs = append(errs, fmt.Sprintf("PHV %d bits exceeds %d", phv, p.Cap.PHVBits))
	}
	// Register SRAM is spread evenly across the pipeline stages, as the
	// hardware allocator does with large stateful arrays.
	regBits := 0
	for _, r := range p.Registers {
		regBits += r.SRAMBits()
	}
	regPerStage := 0
	if p.Cap.Stages > 0 {
		regPerStage = regBits / p.Cap.Stages
	}
	for i, st := range p.Stages {
		var sram, tcam, bus int
		writes := map[FieldID]string{}
		reads := map[FieldID]string{}
		for _, t := range st.Tables {
			if err := t.checkData(); err != nil {
				errs = append(errs, err.Error())
			}
			sram += t.SRAMBits()
			tcam += t.TCAMBits()
			bus += t.DataWidthBits
			for _, op := range t.Action {
				switch op.Kind {
				case OpSet, OpSetData:
					// pure writes
				default:
					reads[op.A] = t.Name
					reads[op.B] = t.Name
				}
				if !op.writesDst() {
					continue
				}
				if prev, dup := writes[op.Dst]; dup && prev != t.Name {
					errs = append(errs, fmt.Sprintf("stage %d: tables %q and %q both write %s",
						i, prev, t.Name, p.Layout.Name(op.Dst)))
				}
				writes[op.Dst] = t.Name
			}
			for _, f := range t.KeyFields {
				reads[f] = t.Name
			}
			// The gateway evaluates at stage entry, before any action of
			// the stage has written: it is a reader like the key fields.
			if t.Gate != nil {
				reads[t.Gate.Field] = t.Name
			}
		}
		for f, wt := range writes {
			if rt, ok := reads[f]; ok && rt != wt {
				errs = append(errs, fmt.Sprintf("stage %d: table %q reads %s written by %q in same stage",
					i, rt, p.Layout.Name(f), wt))
			}
		}
		sram += regPerStage
		if sram > p.Cap.SRAMBitsPerStage {
			errs = append(errs, fmt.Sprintf("stage %d SRAM %d bits exceeds %d", i, sram, p.Cap.SRAMBitsPerStage))
		}
		if tcam > p.Cap.TCAMBitsPerStage {
			errs = append(errs, fmt.Sprintf("stage %d TCAM %d bits exceeds %d", i, tcam, p.Cap.TCAMBitsPerStage))
		}
		if bus > p.Cap.BusBits {
			errs = append(errs, fmt.Sprintf("stage %d action data bus %d bits exceeds %d", i, bus, p.Cap.BusBits))
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("pisa: program %q invalid:\n  %s", p.Name, strings.Join(errs, "\n  "))
	}
	return nil
}

// regUser is one table's claim on a register's per-packet RMW slot.
type regUser struct {
	table string
	gate  *Gate
	stage int
}

// validateRMW enforces the hardware's one-read-modify-write-per-
// register-per-packet rule statically. Every register op (including
// pure loads) occupies the register's single stateful-ALU access for
// the packet, so:
//
//   - within one table's action, a register may appear in at most one
//     op (the simulator would happily run two, the hardware cannot);
//   - across tables, a register may be shared only when every accessing
//     table is predicated by gateways the validator can prove mutually
//     exclusive: equality gates on one common field with pairwise
//     distinct values (the shape the extraction compiler emits — window
//     positions and packet directions), where the gate field is not
//     rewritten once the first sharing table's stage is reached (a
//     rewrite between the gated stages could satisfy both gates for
//     one packet).
func (p *Program) validateRMW() []string {
	var errs []string
	users := map[int][]regUser{}
	for si, st := range p.Stages {
		for _, t := range st.Tables {
			seen := map[int]bool{}
			for i := range t.Action {
				r := t.Action[i].regAccess()
				if r < 0 {
					continue
				}
				if r >= len(p.Registers) {
					errs = append(errs, fmt.Sprintf("table %q references register %d, program has %d", t.Name, r, len(p.Registers)))
					continue
				}
				if seen[r] {
					errs = append(errs, fmt.Sprintf("table %q accesses register %q twice in one action (one RMW per register per packet)",
						t.Name, p.Registers[r].Name))
					continue
				}
				seen[r] = true
				users[r] = append(users[r], regUser{table: t.Name, gate: t.Gate, stage: si})
			}
		}
	}
	for r, us := range users {
		if len(us) < 2 {
			continue
		}
		exclusive := true
		field := FieldID(-1)
		vals := map[int32]bool{}
		minStage, maxStage := len(p.Stages), 0
		for _, u := range us {
			if u.gate == nil || u.gate.Op != GateEQ {
				exclusive = false
				break
			}
			if field < 0 {
				field = u.gate.Field
			} else if u.gate.Field != field {
				exclusive = false
				break
			}
			if vals[u.gate.Value] {
				exclusive = false
				break
			}
			vals[u.gate.Value] = true
			if u.stage < minStage {
				minStage = u.stage
			}
			if u.stage > maxStage {
				maxStage = u.stage
			}
		}
		// The equality gates are only provably exclusive if the gate
		// field keeps one value across the sharing span: a write in
		// [first sharing stage, last sharing stage) could satisfy a
		// second gate for the same packet. Writes before the span
		// rewrite the value every gate sees, writes at or after the
		// last sharing stage can no longer enable another access
		// (gateways evaluate at stage entry).
		if exclusive {
			for si := minStage; si < maxStage && exclusive; si++ {
				for _, t := range p.Stages[si].Tables {
					if writesField(t.Action, field) {
						exclusive = false
						break
					}
				}
			}
		}
		if !exclusive {
			names := make([]string, len(us))
			for i, u := range us {
				names[i] = u.table
			}
			sort.Strings(names)
			errs = append(errs, fmt.Sprintf("register %q accessed by tables %s without mutually exclusive equality gates (one RMW per register per packet)",
				p.Registers[r].Name, strings.Join(names, ", ")))
		}
	}
	return errs
}

// Summary returns a human-readable resource report.
func (p *Program) Summary() string {
	r := p.Resources()
	var b strings.Builder
	fmt.Fprintf(&b, "program %q: %d stages, PHV %d/%d bits\n", p.Name, r.Stages, r.PHVBits, p.Cap.PHVBits)
	fmt.Fprintf(&b, "  SRAM %.2f%%  TCAM %.2f%%  bus(peak) %.2f%%  stateful %d bits\n",
		100*r.SRAMFrac(p.Cap), 100*r.TCAMFrac(p.Cap), 100*r.BusFrac(p.Cap), r.RegBits)
	for i, u := range r.PerStage {
		if u.Tables == 0 {
			continue
		}
		fmt.Fprintf(&b, "  stage %2d: %d tables, SRAM %d, TCAM %d, bus %d\n", i, u.Tables, u.SRAMBits, u.TCAMBits, u.BusBits)
	}
	return b.String()
}
