package core

import (
	"fmt"

	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// This file makes extraction PHYSICALLY shared. The Deployment ledger
// has always charged identical extraction specs once (accounted
// sharing), but every co-resident model still executed its own private
// prelude: N models meant N copies of the per-flow register RMWs on
// every packet. A SharedExtraction is one standalone extraction
// PROGRAM — prelude, trackers and window-fire with the materialised
// feature window as its declared outputs — that co-resident emissions
// bind to instead: the machine executes each packet's register RMWs
// exactly once, and its shard tasks run every subscriber's stateless
// chain over the windows they fire (see pisa.Fanout).

// SharedExtraction is one physical feature-extraction machine: the
// standalone emission that owns the per-flow registers, plus the
// resolved spec co-resident emissions bind against. Emissions carrying
// the same handle in Emitted.Shared are subscribers of the same
// physical program; the Deployment ledger charges the machine once and
// marks the subscribers as physically sharing.
type SharedExtraction struct {
	// Spec is the machine's configuration with Window/Flows resolved to
	// their effective values.
	Spec ExtractSpec
	// Em is the standalone extraction emission: Prog holds the prelude
	// stages and per-flow registers, OutFields the materialised feature
	// window (written on firing packets), ClassField the fire flag.
	// Serve it with Em.NewPacketEngineOn and wrap the engine in a
	// pisa.Fanout to attach subscribers: their plans run inside this
	// engine's shard tasks.
	Em *Emitted
}

// EmitSharedExtraction builds the standalone extraction program for
// spec against cap: a fresh single-pipe emission containing ONLY the
// extraction state machine, whose output fields carry the feature
// window a fused emission would have assembled into its model
// in-fields. The window fields use the fused widths (8×16-bit for
// stats, 2·Window×8-bit for seq) so the machine is bit-identical to
// the prelude every private-prelude emission runs — subscribers consume
// the fired window values exactly as their own pipe-0 readout would
// have produced them. flows sizes the per-flow register arrays (0
// defaults to 1024, rounded to a power of two).
//
// Only the stats and seq machines can be shared: the payload machines
// bank directly into model-specific in-fields and are inseparable from
// their classifier.
func EmitSharedExtraction(name string, cap pisa.Capacity, spec ExtractSpec, flows int) (*SharedExtraction, error) {
	var nFields, width int
	switch spec.Kind {
	case ExtractStats:
		nFields, width = 8, 16
	case ExtractSeq:
		nFields, width = 2*spec.window(), 8
	default:
		return nil, fmt.Errorf("core: %s extraction cannot be physically shared (payload windows bank into model-specific in-fields)", spec.Kind)
	}
	layout := &pisa.Layout{}
	prog := pisa.NewProgram(name, layout, cap)
	em := &Emitted{Target: "shared-extraction"}
	for j := 0; j < nFields; j++ {
		f, err := layout.Add(fmt.Sprintf("win%d", j), width)
		if err != nil {
			return nil, err
		}
		em.InFields = append(em.InFields, f)
	}
	stages, err := emitExtraction(prog, layout, em, spec, flows)
	if err != nil {
		return nil, err
	}
	em.Prog = prog
	em.Stages = stages
	// The window fields are the machine's OUTPUTS: every fire hands them
	// to the subscribers. The fire flag doubles as the class field so
	// the packet engine's fire collection works unchanged.
	em.OutFields = em.InFields
	em.ClassField = em.Extract.Meta.Fire
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return &SharedExtraction{Spec: em.Extract.Spec, Em: em}, nil
}

// String renders the spec compactly for machine listings.
func (s ExtractSpec) String() string {
	out := fmt.Sprintf("%s w%d f%d", s.Kind, s.window(), s.Flows)
	if s.IdleTimeout > 0 {
		out += fmt.Sprintf(" idle%d", s.IdleTimeout)
	}
	return out
}
