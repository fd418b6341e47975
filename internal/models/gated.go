package models

import (
	"fmt"
	"math"
	"sort"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// roundWindow quantises a float feature window with the host inference
// paths' round-to-even policy.
func roundWindow(x []float64) []int32 {
	v := make([]int32, len(x))
	for j, f := range x {
		v[j] = int32(math.RoundToEven(f))
	}
	return v
}

// GatedPipeline is the §7.4 two-program deployment: an unknown-attack
// AutoEncoder whose reconstruction-error gate screens every feature
// window, co-resident with a classifier that labels the windows the
// gate passes. Both programs are register-free subscribers of ONE
// physically shared seq extraction machine, validated against one
// combined switch budget (core.Deployment) and served from one
// shared-budget pisa.Scheduler: raw netsim.Merge traces go in, gated
// classifications come out, bit-identical to host-side window
// extraction followed by running the two emitted programs sequentially.
type GatedPipeline struct {
	AE  *AutoEncoder
	Cls *Feedforward
	// Threshold is the anomaly cut in the ScorePegasus MAE domain;
	// windows scoring ≥ Threshold are flagged unknown-attack and carry
	// no class.
	Threshold float64

	// SharedExt is the physically shared extraction machine;
	// EmAEShared (the gated detector, [anom, score, window...] out) and
	// EmClsShared (the classifier) are its subscriber emissions, both
	// consuming the machine's fired window; DepShared is their combined
	// ledger. All set by Emit.
	SharedExt   *core.SharedExtraction
	EmAEShared  *core.Emitted
	EmClsShared *core.Emitted
	DepShared   *core.Deployment
}

// GatedResult is one window verdict of the deployment: the stream index
// of the packet that completed the window, the gate's decision and raw
// score, and — for windows the gate passed — the classifier's label
// (Class is -1 for anomalous windows).
type GatedResult struct {
	Pkt       int
	Anomalous bool
	Score     int32
	Class     int
}

// NewGatedPipeline pairs a compiled AutoEncoder with a compiled
// sequence classifier (CNN-B/CNN-M class models: the same Window·2
// bucket window the detector scores, so both can subscribe to one seq
// extraction machine).
func NewGatedPipeline(ae *AutoEncoder, cls *Feedforward, thr float64) (*GatedPipeline, error) {
	if cls.PacketExtract != core.ExtractSeq || cls.InDim != Window*2 {
		return nil, fmt.Errorf("models: gated pipeline needs a seq-window classifier (%s extracts %v over %d inputs)",
			cls.Name, cls.PacketExtract, cls.InDim)
	}
	return &GatedPipeline{AE: ae, Cls: cls, Threshold: thr}, nil
}

// CalibrateGate returns the q-quantile (0..1) of the detector's
// per-flow Pegasus MAE scores over flows — the usual way to place the
// unknown-attack threshold above benign traffic's reconstruction error.
func CalibrateGate(ae *AutoEncoder, flows []netsim.Flow, q float64) (float64, error) {
	scores, _, err := ae.ScorePegasus(flows)
	if err != nil {
		return 0, err
	}
	if len(scores) == 0 {
		return 0, fmt.Errorf("models: no windows to calibrate the gate on")
	}
	sort.Float64s(scores)
	i := int(q * float64(len(scores)))
	if i >= len(scores) {
		i = len(scores) - 1
	}
	if i < 0 {
		i = 0
	}
	return scores[i], nil
}

// Emit compiles the deployment: ONE standalone seq extraction machine
// for flows concurrent flows plus two pure-combinational subscribers
// (the gated detector and the classifier), validated as a combined
// deployment against cap (e.g. pisa.Tofino2.Pipes(2), the
// ingress+egress silicon of one switch). The machine executes the
// per-packet register RMWs once and both programs classify its fired
// windows.
func (g *GatedPipeline) Emit(flows int, cap pisa.Capacity) error {
	shared, err := core.EmitSharedExtraction("px-shared-seq", cap, SharedWindowSpec(core.ExtractSeq), flows)
	if err != nil {
		return fmt.Errorf("models: shared extraction emission: %w", err)
	}
	emAE, err := g.AE.EmitGatedShared(shared, g.Threshold)
	if err != nil {
		return fmt.Errorf("models: shared gated %s emission: %w", g.AE.Name, err)
	}
	emCls, err := g.Cls.EmitShared(shared)
	if err != nil {
		return fmt.Errorf("models: shared %s emission: %w", g.Cls.Name, err)
	}
	dep, err := core.NewDeployment(fmt.Sprintf("%s-gated-%s", g.AE.Name, g.Cls.Name), cap, emAE, emCls)
	if err != nil {
		return err
	}
	g.SharedExt, g.EmAEShared, g.EmClsShared, g.DepShared = shared, emAE, emCls, dep
	return nil
}

// Run replays a raw merged trace through the deployment: the extraction
// machine executes every packet's register RMWs once, and each fired
// window is classified by the gate and the classifier inside the
// machine's shard tasks (pisa.Fanout). Results arrive in stream order.
// The classifier scores every window — physically, every subscriber sees
// every fire — but anomalous windows report Class -1, exactly as if the
// gate had withheld them. A nil sched runs on a private pool sized to
// GOMAXPROCS.
func (g *GatedPipeline) Run(stream []netsim.StreamPacket, sched *pisa.Scheduler, mode pisa.ExecMode) ([]GatedResult, error) {
	if g.SharedExt == nil {
		return nil, fmt.Errorf("models: gated pipeline not emitted")
	}
	if sched == nil {
		sched = pisa.NewScheduler(0)
		defer sched.Close()
	}
	extEng := g.SharedExt.Em.NewPacketEngineOn(sched, "px-shared-seq", 1, mode)
	defer extEng.Close()
	aeEng := g.EmAEShared.NewEngineOn(sched, g.AE.Name, 1, mode)
	defer aeEng.Close()
	clsEng := g.EmClsShared.NewEngineOn(sched, g.Cls.Name, 1, mode)
	defer clsEng.Close()

	fan := pisa.NewFanout(extEng)
	fan.Subscribe(aeEng)
	fan.Subscribe(clsEng)
	extEng.ResetState()
	res := fan.RunPackets(PacketJobs(g.SharedExt.Em, stream))
	for _, e := range []*pisa.Engine{extEng, aeEng, clsEng} {
		if err := e.Poisoned(); err != nil {
			return nil, err
		}
	}
	aeRes, clsRes := res[0], res[1]
	out := make([]GatedResult, len(aeRes))
	for k, ar := range aeRes {
		gr := GatedResult{Pkt: ar.Pkt, Anomalous: ar.Outs[0] != 0, Score: ar.Outs[1], Class: -1}
		if !gr.Anomalous {
			gr.Class = clsRes[k].Class
		}
		out[k] = gr
	}
	return out, nil
}

// HostSequential computes the deployment's reference output: host-side
// window extraction followed by sequentially running the two emitted
// programs (RunSwitch) per window — the bit-exact target Run must
// reproduce from raw packets. The subscriber emissions are stateless per
// window, so RunSwitch calls do not disturb each other.
func (g *GatedPipeline) HostSequential(stream []netsim.StreamPacket) ([]GatedResult, error) {
	if g.SharedExt == nil {
		return nil, fmt.Errorf("models: gated pipeline not emitted")
	}
	counts := map[*netsim.Flow]int{}
	wins := map[*netsim.Flow][]netsim.SeqWindow{}
	var out []GatedResult
	for i, sp := range stream {
		counts[sp.Flow]++
		n := counts[sp.Flow]
		if n%Window != 0 {
			continue
		}
		w, ok := wins[sp.Flow]
		if !ok {
			w = netsim.SeqWindows(sp.Flow, Window)
			wins[sp.Flow] = w
		}
		x := roundWindow(w[n/Window-1].SeqFeatures())
		_, outs := g.EmAEShared.RunSwitch(x)
		gr := GatedResult{Pkt: i, Anomalous: outs[0] != 0, Score: outs[1], Class: -1}
		if !gr.Anomalous {
			cls, _ := g.EmClsShared.RunSwitch(x)
			gr.Class = cls
		}
		out = append(out, gr)
	}
	return out, nil
}
