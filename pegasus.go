// Package pegasus is the public API of the Pegasus reproduction: a
// framework that compiles deep-learning traffic classifiers into
// dataplane primitives (Partition, Map, SumReduce) and deploys them on a
// simulated PISA switch at line rate.
//
// The typical workflow mirrors the paper:
//
//	ds := pegasus.PeerRush(pegasus.DataConfig{Seed: 1})
//	train, _, test := ds.Split(7)
//	model := pegasus.NewCNNM(ds.NumClasses(), rand.New(rand.NewSource(1)))
//	model.Train(train, pegasus.TrainOpts{Epochs: 60})
//	model.Compile(train)                  // fuzzy tables, fusion, quantisation
//	report, _ := model.EvalPegasus(test, ds.NumClasses())
//	emitted, _ := model.Emit(1 << 20)     // PISA program + resource accounting
//
//	// batched flow-sharded replay through the simulated switch
//	engine := emitted.NewEngine(8)
//	defer engine.Close()
//	results := engine.RunBatch(pegasus.BatchJobs(batch))
//
// # Execution modes
//
// Emitted programs execute in one of two modes. The interpreter
// (Program.Process, RunSwitch, ExecInterpret) evaluates every table
// directly against its entry list — the reference semantics. The
// compiled plan (CompileProgram, ExecCompiled — the engine's default)
// lowers the program once into a zero-allocation execution schedule
// specialised per table: always-tables inline into straight-line op
// streams, exact tables become dense direct-index arrays or hashed
// lookups on a packed key, and range-coded ternary tables become
// interval lookups and per-dimension cover-group bitset intersections.
// Compiled execution is bit-identical to the interpreter (differential
// fuzz tests enforce it across every model family and the multi-pipe
// chain) and is what throughput-bearing replay should use; the
// interpreter remains the baseline for debugging table semantics and
// validating new emitters. Select per engine with
// Emitted.NewEngineMode(workers, mode).
//
// The engine itself is a persistent pool: workers start once and are
// fed one shard task per batch (RunBatch). Close stops the pool.
//
// # Per-packet execution
//
// RunBatch replays pre-extracted feature windows. The
// per-packet path instead consumes raw traces: EmitPackets compiles
// the model's Table-6 feature-extraction state machine in front of the
// inference program — flow hash → register slot, one register
// read-modify-write per packet (max/min trackers, timestamp exchange,
// windowed sequence banking), bucket range tables bit-identical to the
// host extractors, and a window-boundary fire trigger — and
// Emitted.NewPacketEngine drives it from a netsim.Merge trace
// (PacketJobs marshals the packets):
//
//	emitted, _ := model.EmitPackets(1 << 20)
//	engine := emitted.NewPacketEngine(8, pegasus.ExecCompiled)
//	defer engine.Close()
//	fires := engine.RunPackets(pegasus.PacketJobs(emitted, pegasus.Merge(test)))
//
// Every packet updates the flow's registers; a result is produced only
// for packets that complete a feature window, bit-identical to
// host-side extraction followed by RunSwitch. Program.Validate
// enforces the hardware's one-RMW-per-register-per-packet rule on the
// emitted machines.
//
// # Multi-model serving
//
// Several emitted programs can be served concurrently from one fixed
// worker budget: a Scheduler owns the pool, and each emission registers
// a session on it (Emitted.NewEngineOn / NewPacketEngineOn). Per-model
// shard queues are drained with weighted fair scheduling, so one
// model's large trace cannot starve its co-resident models, and
// Scheduler.Stats reports per-model throughput and pool occupancy. A
// Deployment validates the co-resident emissions against one combined
// capacity (models sharing an extraction spec are charged one
// extraction machine); the §7.4 scenario — an unknown-attack
// AutoEncoder whose on-switch reconstruction-error gate screens every
// window before a classifier labels it — ships as GatedPipeline, both
// programs subscribers of one shared extraction machine:
//
//	gated, _ := pegasus.NewGatedPipeline(ae, cnnb, threshold)
//	_ = gated.Emit(1<<16, pegasus.Tofino2.Pipes(2)) // combined budget check
//	sched := pegasus.NewScheduler(8)
//	defer sched.Close()
//	results, _ := gated.Run(pegasus.Merge(test), sched, pegasus.ExecCompiled)
//
// Raw merged traces go in; the machine pays each packet's register
// RMWs once and its shard tasks run the gate and the classifier on
// every window it fires. Each window comes back with the gate verdict,
// the integer MAE score and — for windows the gate passed — the
// classifier's label, bit-identical to host-side window extraction
// followed by running the two emitted programs sequentially.
//
// # Serving control plane
//
// Above the raw Scheduler sits a serving control plane (NewServer): a
// Server owns one scheduler plus the deployment ledger of everything
// registered on it, and turns multi-model serving into an operated
// system. Register admission-checks each candidate emission against
// the REMAINING combined capacity — a rejection reports the exhausted
// dimension and every resident model's contribution, before any
// scheduler state changes. A served model can be live-swapped to a new
// generation (Model.Swap): the new version warms off-path while the
// old keeps serving, in-flight batches drain without dropping a
// result, per-flow registers either migrate or re-initialise, and
// co-resident models never stop. Declared SLOs (target busy-time
// share, max queue wait) drive a feedback loop (Server.TuneOnce /
// StartTuner) that retunes session weights from observed occupancy,
// and Server.Snapshot — also served as JSON by Server.ServeHTTP — is
// the metrics endpoint:
//
//	srv := pegasus.NewServer(pegasus.ServerOptions{
//	    Name: "edge", Cap: pegasus.Tofino2.Pipes(2), Budget: 8})
//	defer srv.Close()
//	m, err := srv.Register("cnn-b", emitted, 1, pegasus.SLO{TargetShare: 0.5})
//	// ... m.Run(jobs) from any number of goroutines ...
//	report, err := m.Swap(emittedV2, pegasus.SwapOptions{MigrateState: true})
//	go http.ListenAndServe(":9090", srv) // JSON metrics endpoint
//
// # Overload protection and failure resilience
//
// The serving plane degrades predictably instead of collapsing. Every
// session can carry a ShedPolicy (max queue depth, max recent wait,
// deadline headroom): work that would violate it is rejected NEWEST
// first with a structured *ErrOverloaded carrying the observed depth
// and wait, before it touches any register — shed work has no
// side effects. Context-aware submission (ServedModel.RunCtx /
// SubmitCtx) additionally sheds batches whose context deadline cannot
// be met by the queue's recent wait. A scheduler watchdog detects
// stalled workers and re-routes their queues to work stealers, and a
// panicking compiled plan fails only its own batch and poisons only
// its own session (*ErrPoisoned) — co-resident models keep serving.
//
// Swaps can be canaried: SwapOptions.Canary mirrors a fraction of live
// traffic to the warmed next version while the incumbent stays
// authoritative for every result, compares classifications, queue
// waits and fire rates over a decision window, and either promotes or
// auto-rolls-back. A rollback discards the shadow, so the incumbent is
// bit-identical to never having swapped. The §7.4 gated pipeline is
// served with graceful degradation (Server.RegisterGated +
// DegradePolicy): under sustained classifier overload the gate verdict
// is served alone (Class -1) until the classifier recovers.
//
//	m.SetShedPolicy(pegasus.ShedPolicy{MaxQueue: 64, MaxWait: time.Millisecond})
//	rep, err := m.Swap(next, pegasus.SwapOptions{
//	    Canary: &pegasus.CanaryOptions{Fraction: 0.25, MaxDisagree: 0.01}})
//	if rep.RolledBack { log.Println("rolled back:", rep.RollbackReason) }
//
// The fault-injection harness behind the resilience tests is
// exported too (FaultArm/FaultReset and the Fault* points): tests and
// drills can stall a worker, slow or panic a session's plan, fail a
// swap warm-up, or poison a canary's observed classes.
//
// Compilation runs through a staged pass manager (Pipeline): named,
// instrumented passes (lower, fuse, drop-nonlinear, build-tables,
// refine, emit) over one CompileOptions struct, with per-pass wall-time
// and resource diagnostics (model.Diagnostics()).
//
// # Targets and backends
//
// Emission is pluggable: a Target (name + capacity profile + emit
// hooks) turns a compiled artefact into one or more PISA programs plus
// the I/O field maps the replay harness needs. Built-in backends,
// selectable by name through the registry (LookupTarget/TargetNames) or
// the CLIs' -target flag:
//
//   - "tofino" — the default single-pipeline Tofino 2 of the paper.
//   - "tofino-multipipe" — splits a program that overflows one pipe's
//     stage budget at a group boundary across chained ingress/egress
//     pipes, bridging the inter-pipe vector through PHV fields; the
//     Engine replays the chain bit-identically to host inference.
//   - "smartnic" — a SmartNIC-style capacity profile (long pipeline,
//     small per-stage memory, near-zero TCAM).
//   - "p4" — renders the emission as readable P4-16 source in
//     Emitted.Source for inspection and diffing.
//
// Select a backend per compilation via CompileOptions.Emit.Target:
//
//	model.Opts.Emit.Target = pegasus.TofinoMultiPipe()
//	emitted, _ := model.Emit(1 << 20) // may span several bridged pipes
//
// A new fixed-budget dataplane is a one-struct addition:
//
//	pegasus.RegisterTarget(&pegasus.SinglePipeTarget{
//	    Label: "fpga", Cap: pegasus.Capacity{Stages: 64 /* ... */}})
//
// Everything below re-exports the internal building blocks a downstream
// user needs: dataset synthesis, the model zoo of §6.3, the baselines of
// §7, the primitive compiler, the pass manager, the emission targets,
// the switch simulator and the batched execution engine.
package pegasus

import (
	"io"
	"math/rand"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/datasets"
	"github.com/pegasus-idp/pegasus/internal/experiments"
	"github.com/pegasus-idp/pegasus/internal/faultinject"
	"github.com/pegasus-idp/pegasus/internal/metrics"
	"github.com/pegasus-idp/pegasus/internal/models"
	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/pisa"
	"github.com/pegasus-idp/pegasus/internal/serve"
	"github.com/pegasus-idp/pegasus/internal/trafficgen"
)

// Re-exported traffic types.
type (
	// Flow is a labelled packet flow.
	Flow = netsim.Flow
	// Packet is one packet of a flow.
	Packet = netsim.Packet
	// FiveTuple identifies a flow.
	FiveTuple = netsim.FiveTuple
	// Dataset is a labelled set of flows.
	Dataset = datasets.Dataset
	// DataConfig controls synthetic dataset generation.
	DataConfig = datasets.Config
	// AttackKind selects a §7.4 attack family.
	AttackKind = datasets.AttackKind
)

// Dataset generators (synthetic stand-ins for the paper's datasets).
var (
	PeerRush = datasets.PeerRush
	CICIOT   = datasets.CICIOT
	ISCXVPN  = datasets.ISCXVPN
)

// Attack traffic constructors.
var (
	AttackFlows = datasets.AttackFlows
	MixAttack   = datasets.MixAttack
)

// Attack families.
const (
	Htbot  = datasets.Htbot
	Flood  = datasets.Flood
	Cridex = datasets.Cridex
	Virut  = datasets.Virut
	Neris  = datasets.Neris
	Geodo  = datasets.Geodo
)

// Model zoo types.
type (
	// Feedforward is the generic Pegasus-compilable classifier (MLP-B,
	// CNN-B, CNN-M).
	Feedforward = models.Feedforward
	// RNNB is the windowed recurrent classifier.
	RNNB = models.RNNB
	// CNNL is the large raw-payload CNN with per-packet fuzzy indices.
	CNNL = models.CNNL
	// AutoEncoder is the unsupervised anomaly detector.
	AutoEncoder = models.AutoEncoder
	// TrainOpts scales model training.
	TrainOpts = models.TrainOpts
	// Report carries precision/recall/macro-F1.
	Report = metrics.Report
)

// Model constructors (§6.3).
var (
	NewMLPB        = models.NewMLPB
	NewCNNB        = models.NewCNNB
	NewCNNM        = models.NewCNNM
	NewRNNB        = models.NewRNNB
	NewAutoEncoder = models.NewAutoEncoder
)

// NewCNNL builds the large CNN variant. useIPD and idxBits select the
// Figure 7 per-flow storage variants (28/44/72 bits).
func NewCNNL(nClasses int, useIPD bool, idxBits int, rng *rand.Rand) *CNNL {
	return models.NewCNNL(nClasses, useIPD, idxBits, rng)
}

// Compiler types for users building custom models from primitives.
type (
	// Program is a primitive program (Partition/Map/SumReduce steps).
	Program = core.Program
	// Compiled holds a model's mapping tables and runs fixed-point
	// inference bit-identical to the switch.
	Compiled = core.Compiled
	// Emitted is a compiled PISA deployment (one or more bridged
	// pipeline programs) with its I/O fields.
	Emitted = core.Emitted
	// CompileConfig tunes tree depth and quantisation.
	CompileConfig = core.CompileConfig
	// EmitOptions controls PISA emission (target backend, argmax stage,
	// flow state).
	EmitOptions = core.EmitOptions
	// LowerConfig tunes partition widths.
	LowerConfig = core.LowerConfig
	// SwitchProgram is a raw PISA pipeline.
	SwitchProgram = pisa.Program
	// Capacity describes switch hardware limits.
	Capacity = pisa.Capacity
)

// Emission-target types: the pluggable backend seam.
type (
	// Target is an emission backend (name, capacity, emit hooks).
	Target = core.Target
	// SinglePipeTarget emits onto one pipeline of a given capacity.
	SinglePipeTarget = core.SinglePipe
	// MultiPipeTarget splits overflowing programs across chained pipes.
	MultiPipeTarget = core.MultiPipe
	// P4PrinterTarget renders emissions as P4-16 source.
	P4PrinterTarget = core.P4Printer
	// PipeBridge carries PHV values between chained pipeline programs.
	PipeBridge = pisa.Bridge
)

// Emission-target constructors and registry.
var (
	// TofinoSingle is the default single-pipeline Tofino 2 backend.
	TofinoSingle = core.TofinoSingle
	// TofinoMultiPipe chains ingress/egress Tofino 2 pipes.
	TofinoMultiPipe = core.TofinoMultiPipe
	// SmartNICTarget emits against the SmartNIC capacity profile.
	SmartNICTarget = core.SmartNICTarget
	// NewP4Printer wraps a target with a P4-16 source renderer.
	NewP4Printer = core.NewP4Printer
	// RegisterTarget adds a backend to the registry.
	RegisterTarget = core.RegisterTarget
	// LookupTarget resolves a backend by name.
	LookupTarget = core.LookupTarget
	// TargetNames lists the registered backends.
	TargetNames = core.TargetNames
	// DefaultTarget is the backend used when none is selected.
	DefaultTarget = core.DefaultTarget
	// P4Source renders one PISA program as P4-16 source.
	P4Source = pisa.P4Source
)

// Pass-manager types: the staged compilation pipeline every model
// family runs through, and its per-pass diagnostics.
type (
	// Pipeline is the staged pass manager (lower → fuse → build-tables
	// → refine/emit) with per-pass instrumentation.
	Pipeline = core.Pipeline
	// CompileOptions is the unified pipeline configuration, subsuming
	// LowerConfig/CompileConfig/RefineConfig/EmitOptions.
	CompileOptions = core.CompileOptions
	// Pass is one named pipeline stage.
	Pass = core.Pass
	// PassState is the mutable state threaded through passes.
	PassState = core.PassState
	// PassDiag is one pass's recorded diagnostics (wall time, step/
	// group/table counts, stage and SRAM/TCAM deltas).
	PassDiag = core.PassDiag
)

// Batched switch-execution engine types: concurrent replay of an
// emitted program over batches of windows or raw packets, sharded by
// flow hash so per-flow state stays consistent.
type (
	// Engine is the flow-sharded execution session of one emitted
	// program (chains the pipes of multi-pipeline emissions; RunBatch
	// for window jobs, RunPackets for raw packets, SubmitBatchCtx and
	// RunPacketsCtx behind admission control; Close releases the
	// session and, for solo engines, stops the pool).
	Engine = pisa.Engine
	// Scheduler is the shared fixed-budget worker pool serving any
	// number of registered engines with weighted fair draining —
	// multi-model serving (Emitted.NewEngineOn registers sessions).
	Scheduler = pisa.Scheduler
	// EngineStats is one session's per-model serving counters.
	EngineStats = pisa.EngineStats
	// Deployment is a multi-model switch deployment validated against
	// one combined capacity (shared extraction charged once).
	Deployment = core.Deployment
	// GateSpec configures the §7.4 reconstruction-error gate appended
	// to an anomaly emission (EmitOptions.Gate).
	GateSpec = core.GateSpec
	// GatedPipeline is the §7.4 AutoEncoder-gated classifier: raw
	// traces in, gated classifications out, two programs on one budget.
	GatedPipeline = models.GatedPipeline
	// GatedResult is one window verdict of a gated deployment.
	GatedResult = models.GatedResult
	// EngineJob is one packet (input values + shard hash) of a batch.
	EngineJob = pisa.Job
	// EngineResult is one packet's classification and outputs.
	EngineResult = pisa.Result
	// ExecMode selects interpreted tables or compiled execution plans.
	ExecMode = pisa.ExecMode
	// CompiledProgram is a switch program lowered into a
	// zero-allocation execution plan, bit-identical to the interpreter.
	CompiledProgram = pisa.CompiledProgram
	// PacketIn is one raw packet of a per-packet trace replay.
	PacketIn = pisa.PacketIn
	// PacketResult is one fired window inference of a packet replay.
	PacketResult = pisa.PacketResult
	// ExtractSpec configures the per-packet extraction machine an
	// emission compiles in front of the inference program.
	ExtractSpec = core.ExtractSpec
	// ExtractKind selects the extraction state machine (stats,
	// sequence, payload).
	ExtractKind = core.ExtractKind
)

// Engine execution modes.
const (
	// ExecCompiled replays compiled zero-allocation plans (default).
	ExecCompiled = pisa.ExecCompiled
	// ExecInterpret replays the reference table interpreter.
	ExecInterpret = pisa.ExecInterpret
)

// Extraction state machines (ExtractSpec.Kind).
const (
	// ExtractStats tracks the Table-6 per-flow statistics trackers.
	ExtractStats = core.ExtractStats
	// ExtractSeq banks the per-flow packet-size/IAT sequence window.
	ExtractSeq = core.ExtractSeq
	// ExtractPayload banks the per-flow payload-byte window.
	ExtractPayload = core.ExtractPayload
	// ExtractPayloadIPD banks payload bytes plus inter-packet delays.
	ExtractPayloadIPD = core.ExtractPayloadIPD
)

// CompileProgram lowers a PISA program into its execution plan.
var CompileProgram = pisa.CompileProgram

// Multi-model serving entry points.
var (
	// NewScheduler starts a shared worker pool of the given budget
	// (≤ 0 selects GOMAXPROCS) for concurrent multi-model serving.
	NewScheduler = pisa.NewScheduler
	// NewDeployment assembles and validates a multi-model deployment
	// against a combined capacity (e.g. Tofino2.Pipes(2)).
	NewDeployment = core.NewDeployment
	// NewGatedPipeline pairs a compiled AutoEncoder with a sequence
	// classifier into the §7.4 gated deployment.
	NewGatedPipeline = models.NewGatedPipeline
	// CalibrateGate places the unknown-attack threshold at a quantile
	// of benign Pegasus MAE scores.
	CalibrateGate = models.CalibrateGate
)

// Physically shared extraction: one standalone flow-state machine pays
// the per-packet register RMWs exactly once and fans fired windows out
// to register-free subscriber models, bit-identical to private
// preludes.
type (
	// SharedExtraction is an emitted standalone extraction machine that
	// co-resident models subscribe to (Feedforward.EmitShared,
	// RNNB.EmitShared, and AutoEncoder.EmitGatedShared — the gate
	// GatedPipeline.Emit deploys).
	SharedExtraction = core.SharedExtraction
	// ExtractionFanout owns a shared machine's engine session, whose
	// shard tasks run every subscribed engine's plans over the windows
	// they fire (Subscribe/Detach/SwapSubscriber manage the set).
	ExtractionFanout = pisa.Fanout
	// DeployedMachine is one physical extraction machine in a
	// Deployment's report: its spec, resources and subscriber models.
	DeployedMachine = core.Machine
	// SharedMachineMetrics is one physical machine's row in a
	// ServingSnapshot (packets, fires, register RMWs, subscribers).
	SharedMachineMetrics = serve.MachineMetrics
)

var (
	// EmitSharedExtraction emits a flow-state extraction machine as a
	// standalone program for physical sharing.
	EmitSharedExtraction = core.EmitSharedExtraction
	// SharedWindowSpec is the canonical window-8 ExtractSpec the model
	// zoo uses for a shared machine of the given kind.
	SharedWindowSpec = models.SharedWindowSpec
	// NewFanout wraps a shared extraction machine's packet engine for
	// fan-out to register-free subscriber engines.
	NewFanout = pisa.NewFanout
)

// Serving control-plane types: the operated layer over the shared
// scheduler — admission control against the remaining deployment
// budget, versioned zero-drop live swaps, SLO-driven weight tuning and
// the JSON metrics endpoint.
type (
	// Server is the serving control plane over one scheduler: an
	// admission-checked deployment ledger of live models. It implements
	// http.Handler, serving Snapshot as JSON.
	Server = serve.Server
	// ServerOptions configures NewServer (deployment name, combined
	// capacity, worker budget, execution mode).
	ServerOptions = serve.Options
	// ServedModel is one admitted model: submissions, stats, SLO and
	// live version swaps.
	ServedModel = serve.Model
	// SLO declares a model's serving objectives (target busy-time
	// share, max mean queue wait) for the weight auto-tuner.
	SLO = serve.SLO
	// SwapOptions tunes a live version swap (flow-state migration, warm
	// hook).
	SwapOptions = serve.SwapOptions
	// SwapReport measures one completed swap (warm, drain, cutover,
	// downtime, migrated registers).
	SwapReport = serve.SwapReport
	// AdmissionError is a structured rejection: the exhausted dimension
	// and each resident model's contribution, via the wrapped report.
	AdmissionError = serve.AdmissionError
	// TuneDecision records one weight adjustment by the SLO tuner.
	TuneDecision = serve.TuneDecision
	// ServingSnapshot is the metrics endpoint's document: server
	// counters plus per-model serving metrics.
	ServingSnapshot = serve.Snapshot
	// ServedModelMetrics is one model's row in a ServingSnapshot.
	ServedModelMetrics = serve.ModelMetrics
	// ServingTicket is an in-flight submission (Wait for the results).
	ServingTicket = serve.Ticket
)

// NewServer starts a serving control plane: its own shared-budget
// scheduler plus an admission-checked deployment ledger.
var NewServer = serve.NewServer

// Overload-protection and failure-resilience types.
type (
	// ShedPolicy bounds a session's queue (max depth, max recent wait,
	// deadline headroom); violating work is rejected newest-first.
	ShedPolicy = pisa.ShedPolicy
	// ErrOverloaded is the structured shed rejection: the reason
	// ("queue", "wait" or "deadline") plus the observed queue depth and
	// recent wait at the moment of rejection.
	ErrOverloaded = pisa.ErrOverloaded
	// ErrPoisoned reports a session disabled by a panicking plan; only
	// that session is lost, co-resident models keep serving.
	ErrPoisoned = pisa.ErrPoisoned
	// DrainError reports a Close/Unregister/Swap drain that timed out,
	// naming the sessions still holding work.
	DrainError = serve.DrainError
	// CanaryOptions tunes a mirrored canary swap (traffic fraction,
	// sample floor, decision window, rollback thresholds).
	CanaryOptions = serve.CanaryOptions
	// CanaryMetrics is a live canary's row in the metrics snapshot.
	CanaryMetrics = serve.CanaryMetrics
	// DegradePolicy tunes a gated pipeline's graceful degradation
	// (classifier shed policy plus enter/exit streak hysteresis).
	DegradePolicy = serve.DegradePolicy
	// GatedServedModel is a gated pipeline served with graceful
	// degradation (Server.RegisterGated).
	GatedServedModel = serve.GatedModel
	// GatedServedVerdict is one window's verdict from a
	// GatedServedModel (Class -1 when the classifier was bypassed).
	GatedServedVerdict = serve.GatedVerdict
)

// Fault-injection harness: deterministic failure drills for tests. Arm
// a point (optionally keyed to one session label), with an optional
// delay payload and shot budget; Reset disarms everything.
var (
	// FaultArm arms an injection point (key "" matches any session;
	// shots ≤ 0 means unlimited).
	FaultArm = faultinject.Arm
	// FaultDisarm disarms one injection point.
	FaultDisarm = faultinject.Disarm
	// FaultReset disarms every injection point.
	FaultReset = faultinject.Reset
)

// Fault-injection points.
const (
	// FaultWorkerStall wedges a scheduler worker (watchdog drill).
	FaultWorkerStall = faultinject.WorkerStall
	// FaultSlowSession adds fixed latency to a session's plan execution.
	FaultSlowSession = faultinject.SlowSession
	// FaultPanicSession makes a session's compiled plan panic.
	FaultPanicSession = faultinject.PanicSession
	// FaultSwapWarmFail fails a swap during off-path warm-up.
	FaultSwapWarmFail = faultinject.SwapWarmFail
	// FaultPoisonCanary flips a canary shadow's observed classes.
	FaultPoisonCanary = faultinject.PoisonCanary
)

// Structured deployment-validation types (also the payload of
// AdmissionError reports).
type (
	// BudgetError reports a deployment over budget: one BudgetExcess
	// per exhausted dimension plus any per-member validation failures.
	BudgetError = core.BudgetError
	// BudgetExcess is one exhausted resource dimension with every
	// model's contribution.
	BudgetExcess = core.BudgetExcess
	// ResourceContribution is one model's share of an exhausted
	// dimension.
	ResourceContribution = core.Contribution
	// ResourceDim names a deployment resource dimension.
	ResourceDim = core.ResourceDim
)

// Deployment resource dimensions reported by BudgetExcess.
const (
	// DimStages is pipeline stages.
	DimStages = core.DimStages
	// DimSRAM is SRAM bits.
	DimSRAM = core.DimSRAM
	// DimTCAM is TCAM bits.
	DimTCAM = core.DimTCAM
)

// Compiler entry points.
var (
	// NewPipeline builds the standard staged compilation pipeline.
	NewPipeline = core.NewPipeline
	// NewRNNPipeline builds the chained-index RNN pipeline.
	NewRNNPipeline = core.NewRNNPipeline
	// BatchJobs packs integer input vectors into engine jobs.
	BatchJobs = core.BatchJobs
	// BatchJobsFromFloats rounds float features into engine jobs with
	// the host inference paths' round-to-even policy.
	BatchJobsFromFloats = core.BatchJobsFromFloats
	// PacketJobs marshals a merged raw-packet trace (Merge) into
	// per-packet engine jobs for an extraction emission (EmitPackets).
	PacketJobs = models.PacketJobs
	// Merge interleaves flows into one time-ordered packet stream.
	Merge = netsim.Merge
	// Lower translates a trained network into primitives (§5).
	Lower = core.Lower
	// Fuse applies Basic Primitive Fusion (§4.3).
	Fuse = core.Fuse
	// DropNonlinear applies Advanced Primitive Fusion ❷.
	DropNonlinear = core.DropNonlinear
	// BuildTables learns fuzzy trees and mapping tables (§4.2, §4.4).
	BuildTables = core.BuildTables
	// Emit lowers compiled tables onto a PISA pipeline.
	Emit = core.Emit
)

// Traffic-generator types: sustained synthetic load for steady-state
// throughput measurement. The committed replay traces are short;
// re-replaying them measures batch-overhead amortisation, not sustained
// throughput. The generator instead holds a churning steady-state flow
// population (finished flows are replaced by fresh arrivals drawn from
// a heavy-tailed size distribution) and emits endless, deterministic,
// allocation-free streams of jobs or raw packets:
//
//	gen := pegasus.NewTrafficJobGen(pegasus.TrafficConfig{Seed: 1}, templates)
//	batch := make([]pegasus.EngineJob, 8192)
//	for deadline.After(time.Now()) {
//	    gen.Fill(batch)          // reuses one arena; no allocation
//	    engine.RunBatch(batch)
//	}
type (
	// TrafficConfig shapes a generator's flow population and packet
	// process (seed, live-flow count, flow-size and gap distributions).
	TrafficConfig = trafficgen.Config
	// TrafficSample is one configurable distribution (fixed, uniform,
	// exponential, bounded Pareto).
	TrafficSample = trafficgen.Sample
	// TrafficDist selects a TrafficSample's shape.
	TrafficDist = trafficgen.Dist
	// TrafficJobGen emits sustained feature-window jobs over template
	// input vectors with churning flow hashes.
	TrafficJobGen = trafficgen.JobGen
	// TrafficPacketGen emits sustained raw packets in a per-packet
	// extraction layout (stats, sequence, payload).
	TrafficPacketGen = trafficgen.PacketGen
	// TrafficLayout selects a TrafficPacketGen's field layout.
	TrafficLayout = trafficgen.Layout
)

// Traffic-generator constructors.
var (
	// NewTrafficJobGen builds a job generator over template inputs.
	NewTrafficJobGen = trafficgen.NewJobGen
	// NewTrafficPacketGen builds a raw-packet generator for a layout.
	NewTrafficPacketGen = trafficgen.NewPacketGen
)

// Traffic-generator distribution shapes and packet layouts.
const (
	// DistFixed always draws the mean.
	DistFixed = trafficgen.DistFixed
	// DistUniform draws uniformly on [0, 2·mean].
	DistUniform = trafficgen.DistUniform
	// DistExp draws exponentially (Poisson arrivals).
	DistExp = trafficgen.DistExp
	// DistPareto draws a bounded Pareto (heavy-tailed flow sizes).
	DistPareto = trafficgen.DistPareto
	// LayoutStats emits [direction, length, timestamp] packets.
	LayoutStats = trafficgen.LayoutStats
	// LayoutSeq emits [length, timestamp] packets.
	LayoutSeq = trafficgen.LayoutSeq
	// LayoutPayload emits payload-byte packets.
	LayoutPayload = trafficgen.LayoutPayload
	// LayoutPayloadIPD emits payload bytes plus a timestamp.
	LayoutPayloadIPD = trafficgen.LayoutPayloadIPD
)

// Tofino2 is the capacity model of the paper's testbed switch.
var Tofino2 = pisa.Tofino2

// SmartNIC is the SmartNIC-style capacity profile (long pipeline, small
// per-stage memory, near-zero TCAM).
var SmartNIC = pisa.SmartNIC

// Evaluate computes macro precision/recall/F1 from label slices.
var Evaluate = metrics.Evaluate

// AUCFromScores computes ROC-AUC for anomaly scores.
var AUCFromScores = metrics.AUCFromScores

// RunExperiment regenerates one of the paper's tables/figures ("all",
// "table2", "table5", "table6", "fig7", "fig8", "fig9acc", "fig9thr"),
// writing the report to w. Any other name is an error that lists
// these. The system's own throughput and latency are measured by the
// benchmark in bench/, not by an experiment.
func RunExperiment(name string, w io.Writer, cfg ExperimentConfig) error {
	return experiments.NewSuite(cfg).Run(name, w)
}

// ExperimentConfig scales RunExperiment: dataset size, training budget
// and seed.
type ExperimentConfig = experiments.Config
