package core

import (
	"fmt"
	"math"
	"strings"

	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// Emitted is a compiled switch deployment: one or more PISA programs
// (one per pipeline — single-pipe targets emit exactly one; multi-pipe
// targets chain several through bridged PHV fields) plus the handles
// the replay harness needs to feed packets through it.
type Emitted struct {
	// Target names the backend that produced the emission.
	Target string
	// Prog is the first (ingress) pipe.
	Prog *pisa.Program
	// More holds the additional chained pipes of a multi-pipeline
	// emission, in execution order; empty for single-pipe targets.
	More []*pisa.Program
	// Bridges connects consecutive pipes: Bridges[i] carries PHV values
	// from pipe i into pipe i+1 (len(Bridges) == len(More)).
	Bridges []pisa.Bridge
	// InFields are the PHV fields carrying the model input vector, in
	// Prog's layout.
	InFields []pisa.FieldID
	// OutFields carry the final group's outputs, in the last pipe's
	// layout.
	OutFields []pisa.FieldID
	// ClassField carries the argmax result in the last pipe's layout
	// (valid when Argmax was set).
	ClassField pisa.FieldID
	// Stages used, summed across pipes, for reporting.
	Stages int
	// Source is the rendered program text for printing backends (the
	// P4Printer target); empty otherwise.
	Source string
	// Extract describes the per-packet feature-extraction machine when
	// the emission was produced with EmitOptions.Extract: the engine's
	// raw-packet handles (all in Prog's layout — extraction always runs
	// in pipe 0) plus the prelude fields custom window phases build on.
	// Nil for window-replay emissions.
	Extract *Extraction
	// Shared, when set, binds this emission to a physically shared
	// extraction machine: the emission itself is a pure-combinational
	// window classifier (no extraction prelude, no registers) and its
	// InFields consume the machine's fired feature window: a pisa.Fanout
	// runs the emission inside the machine's shard tasks. Emissions
	// carrying the same handle subscribe to the same physical program;
	// the Deployment ledger charges the machine once.
	Shared *SharedExtraction
}

// Programs returns every pipe in execution order.
func (em *Emitted) Programs() []*pisa.Program {
	return append([]*pisa.Program{em.Prog}, em.More...)
}

// Final returns the last pipe — the one holding OutFields/ClassField.
func (em *Emitted) Final() *pisa.Program {
	if len(em.More) > 0 {
		return em.More[len(em.More)-1]
	}
	return em.Prog
}

// Capacity returns the total deployed hardware budget: the per-pipe
// capacity with the stage count summed over all pipes (a two-pipe
// Tofino emission occupies 40 stages of switch silicon).
func (em *Emitted) Capacity() pisa.Capacity {
	c := em.Prog.Cap
	for _, p := range em.More {
		c.Stages += p.Cap.Stages
	}
	return c
}

// Resources aggregates hardware consumption across every pipe. PHVBits
// reports the widest pipe (each pipe owns its own header vector);
// everything else sums or concatenates.
func (em *Emitted) Resources() pisa.Resources {
	res := em.Prog.Resources()
	for _, p := range em.More {
		r := p.Resources()
		res.Stages += r.Stages
		res.SRAMBits += r.SRAMBits
		res.TCAMBits += r.TCAMBits
		res.RegBits += r.RegBits
		res.PerStage = append(res.PerStage, r.PerStage...)
		if r.PHVBits > res.PHVBits {
			res.PHVBits = r.PHVBits
		}
		if r.PeakBusBits > res.PeakBusBits {
			res.PeakBusBits = r.PeakBusBits
		}
	}
	return res
}

// Summary renders the per-pipe resource reports.
func (em *Emitted) Summary() string {
	var b strings.Builder
	if len(em.More) > 0 {
		fmt.Fprintf(&b, "target %q: %d pipes, %d stages total\n", em.Target, 1+len(em.More), em.Stages)
	}
	for _, p := range em.Programs() {
		b.WriteString(p.Summary())
	}
	return b.String()
}

// Validate checks every pipe against its capacity.
func (em *Emitted) Validate() error {
	for _, p := range em.Programs() {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// NewEngine returns a batched execution engine over the emitted
// program chain: packets are sharded by flow hash onto a persistent
// pool of workers (≤ 0 selects GOMAXPROCS) and each shard replays its
// packets in order, so per-flow state stays consistent while
// independent flows run concurrently. Each pipe is compiled into a
// zero-allocation execution plan (pisa.CompileProgram); multi-pipeline
// emissions process each packet through every pipe, copying the
// bridged fields between consecutive pipes. Classifications are
// bit-identical to sequential RunSwitch. Call Close when done to stop
// the worker pool.
func (em *Emitted) NewEngine(workers int) *pisa.Engine {
	return em.NewEngineMode(workers, pisa.ExecCompiled)
}

// NewEngineMode is NewEngine with an explicit execution mode:
// pisa.ExecCompiled replays compiled plans (the default),
// pisa.ExecInterpret replays the reference table interpreter — kept
// for differential testing and benchmark baselines.
func (em *Emitted) NewEngineMode(workers int, mode pisa.ExecMode) *pisa.Engine {
	return pisa.NewChainEngineMode(em.Programs(), em.Bridges, em.InFields, em.OutFields, em.ClassField, workers, mode)
}

// NewEngineOn registers an engine for this emission as a session on a
// shared pisa.Scheduler — the multi-model serving path: several
// emissions served concurrently from one fixed worker budget with
// weighted fair draining and per-model stats. name labels the session
// in Scheduler.Stats; weight scales its fair share. Close the engine to
// release the session (the scheduler stays up for its other models).
func (em *Emitted) NewEngineOn(s *pisa.Scheduler, name string, weight int, mode pisa.ExecMode) *pisa.Engine {
	return s.NewChainEngine(name, em.Programs(), em.Bridges, em.InFields, em.OutFields, em.ClassField, weight, mode)
}

// NewPacketEngineOn is NewEngineOn for raw-packet replay over an
// extraction emission (see NewPacketEngine).
func (em *Emitted) NewPacketEngineOn(s *pisa.Scheduler, name string, weight int, mode pisa.ExecMode) *pisa.Engine {
	if em.Extract == nil {
		panic("core: NewPacketEngineOn on an emission without an extraction machine")
	}
	eng := em.NewEngineOn(s, name, weight, mode)
	eng.ConfigurePackets(em.Extract.Meta)
	return eng
}

// NewPacketEngine returns an engine configured for raw-packet replay
// over an extraction emission: RunPackets/RunPacketsCtx feed packets
// into the extraction machine's PHV handles, every packet updates the
// per-flow registers, and an inference result is collected whenever a
// feature window completes. Panics if the emission has no extraction
// machine (emit with EmitOptions.Extract set).
func (em *Emitted) NewPacketEngine(workers int, mode pisa.ExecMode) *pisa.Engine {
	if em.Extract == nil {
		panic("core: NewPacketEngine on an emission without an extraction machine")
	}
	eng := em.NewEngineMode(workers, mode)
	eng.ConfigurePackets(em.Extract.Meta)
	return eng
}

// RunSwitch pushes one input vector through the emitted pipeline chain
// and returns (class, outputs) — used by integration tests to prove the
// switch pipeline is bit-identical to Compiled.Infer.
func (em *Emitted) RunSwitch(x []int32) (int, []int32) {
	phv := em.Prog.Layout.NewPHV()
	for i, f := range em.InFields {
		phv.Set(f, x[i])
	}
	em.Prog.Process(phv)
	for k, next := range em.More {
		nphv := next.Layout.NewPHV()
		br := &em.Bridges[k]
		for b, from := range br.From {
			nphv.Set(br.To[b], phv.Get(from))
		}
		next.Process(nphv)
		phv = nphv
	}
	outs := make([]int32, len(em.OutFields))
	for i, f := range em.OutFields {
		outs[i] = phv.Get(f)
	}
	return int(phv.Get(em.ClassField)), outs
}

// BatchJobs packs integer input vectors into engine jobs. Hashes are
// assigned round-robin over the batch — appropriate for stateless
// programs where every packet is an independent flow; callers replaying
// real flows should build jobs with the five-tuple hash instead.
func BatchJobs(xs [][]int32) []pisa.Job {
	jobs := make([]pisa.Job, len(xs))
	for i, x := range xs {
		jobs[i] = pisa.Job{Hash: uint32(i), In: x}
	}
	return jobs
}

// BatchJobsFromFloats packs float feature vectors into engine jobs,
// rounding to integers with the same round-to-even policy the host
// inference paths use (Compiled.InferFloats, EvalPegasus) so replay
// harnesses classify exactly the inputs the host side does.
func BatchJobsFromFloats(xs [][]float64) []pisa.Job {
	ints := make([][]int32, len(xs))
	for i, x := range xs {
		v := make([]int32, len(x))
		for j, f := range x {
			v[j] = int32(math.RoundToEven(f))
		}
		ints[i] = v
	}
	return BatchJobs(ints)
}

// ---- shared emission scaffolding ----
//
// Both the feed-forward emitter and the RNN emitter build the same
// skeleton by hand: a fresh layout+program with optional flow-state
// registers, an argmax compare-select chain, and a validated Emitted.
// These helpers are that skeleton, shared across targets.

// newEmitProgram allocates a fresh layout and program against cap,
// attaching the per-flow state registers when withFlowState is set (a
// multi-pipe target allocates them only on its first pipe).
func newEmitProgram(name string, cap pisa.Capacity, opts EmitOptions, withFlowState bool) (*pisa.Layout, *pisa.Program, error) {
	layout := &pisa.Layout{}
	prog := pisa.NewProgram(name, layout, cap)
	if withFlowState && opts.FlowStateBits > 0 && opts.Flows > 0 {
		if err := addFlowState(prog, opts.FlowStateBits, opts.Flows); err != nil {
			return nil, nil, err
		}
	}
	return layout, prog, nil
}

// emitArgmax appends the class-selection stage over src: a compare-
// select chain where the later index wins ties, matching the host
// Classify implementations. bestW is the accumulator width of the
// "best" scratch field. It allocates the best/class fields, places the
// table at stage, records ClassField on em and returns the next stage.
func emitArgmax(prog *pisa.Program, layout *pisa.Layout, em *Emitted, src []pisa.FieldID, bestW, stage int) int {
	best := layout.MustAdd("best", bestW)
	em.ClassField = layout.MustAdd("class", 8)
	ops := []pisa.Op{
		{Kind: pisa.OpMove, Dst: best, A: src[0]},
		{Kind: pisa.OpSet, Dst: em.ClassField, Imm: 0},
	}
	for j := 1; j < len(src); j++ {
		ops = append(ops,
			pisa.Op{Kind: pisa.OpSelGE, Dst: em.ClassField, A: src[j], B: best, Imm: int32(j)},
			pisa.Op{Kind: pisa.OpMax, Dst: best, A: best, B: src[j]},
		)
	}
	prog.Place(stage, &pisa.Table{Name: "argmax", Kind: pisa.MatchNone,
		DefaultData: []int32{}, Action: ops})
	return stage + 1
}

func addFlowState(prog *pisa.Program, bitsPerFlow, flows int) error {
	// PISA registers are 8/16/32-bit; allocate 8-bit chunks (the paper's
	// footnote: 4-bit state is padded to 8-bit registers).
	chunks := (bitsPerFlow + 7) / 8
	for i := 0; i < chunks; i++ {
		r, err := pisa.NewRegister(fmt.Sprintf("flow_state%d", i), 8, flows)
		if err != nil {
			return err
		}
		prog.AddRegister(r)
	}
	return nil
}
