package models

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/nn"
	"github.com/pegasus-idp/pegasus/internal/tensor"
)

// AutoEncoder is the paper's unsupervised anomaly detector (§6.3,
// §7.4): an Emb layer (reusing representation knowledge from the
// classification task) followed by FC encode/decode blocks, scored by
// the mean absolute reconstruction error of the embedded window. Flows
// whose windows reconstruct poorly are flagged as unknown-attack
// traffic.
type AutoEncoder struct {
	Name string
	Emb  *nn.Embedding
	// Body reconstructs the embedded window: BN→FC→ReLU encode blocks,
	// mirrored decode.
	Body *nn.Sequential

	pipe     *core.Pipeline
	compiled *core.Compiled
	embGroup int // index of the embedding group in the compiled plan
}

// NewAutoEncoder builds the detector. emb may come from a trained
// classifier (the paper transfers the Emb layer); pass nil to use a
// fresh random embedding. The transferred table is row-normalised to a
// common L2 norm: classification training inflates discriminative rows
// and leaves rare-bucket rows tiny, and an unnormalised table would make
// rare (anomalous!) inputs trivially easy to reconstruct in absolute
// MAE terms.
func NewAutoEncoder(emb *nn.Embedding, rng *rand.Rand) *AutoEncoder {
	if emb == nil {
		emb = nn.NewEmbedding(256, 2, Window*2, rng)
	} else {
		norm := nn.NewEmbedding(emb.Vocab, emb.Dim, emb.T, rng)
		for r := 0; r < emb.Vocab; r++ {
			src := emb.Table.W.Row(r)
			dst := norm.Table.W.Row(r)
			l2 := 0.0
			for _, v := range src {
				l2 += v * v
			}
			l2 = math.Sqrt(l2)
			if l2 < 1e-9 {
				l2 = 1
			}
			for j, v := range src {
				dst[j] = v / l2
			}
		}
		emb = norm
	}
	embOut := emb.T * emb.Dim // 32
	// No input BatchNorm: the embedding rows are already normalised, and
	// keeping the Emb group pure lets it compile to exact lookup tables.
	body := nn.NewSequential(
		nn.NewLinear(embOut, 16, rng), nn.NewActivation(nn.ReLU),
		nn.NewLinear(16, 8, rng), nn.NewActivation(nn.ReLU),
		nn.NewLinear(8, embOut, rng),
	)
	return &AutoEncoder{Name: "AutoEncoder", Emb: emb, Body: body}
}

// InputScaleBits reports the sequence input width.
func (m *AutoEncoder) InputScaleBits() int { return Window * 2 * 8 }

// ModelSizeBits includes the embedding and the reconstruction body.
func (m *AutoEncoder) ModelSizeBits() int {
	return (len(m.Emb.Table.W.D) + m.Body.NumParams()) * 32
}

// FlowStateBits matches Table 6's 240 bits/flow (full window of raw
// buckets plus timestamps, like RNN-B).
func (m *AutoEncoder) FlowStateBits() int { return 240 }

// embed produces the embedded window matrix for samples.
func (m *AutoEncoder) embed(xs [][]float64) *tensor.Mat {
	mat := tensor.New(len(xs), Window*2)
	for i, x := range xs {
		copy(mat.Row(i), x)
	}
	return m.Emb.Forward(mat, false)
}

// Train fits the body to reconstruct embedded benign windows (MSE), the
// standard training surrogate for an MAE detector.
func (m *AutoEncoder) Train(flows []netsim.Flow, opts TrainOpts) []float64 {
	opts.defaults()
	xs, _ := ExtractSeq(flows)
	emb := m.embed(xs)
	return nn.Fit(m.Body, emb, emb, nn.MSE{}, nn.NewAdam(opts.LR),
		nn.TrainConfig{Epochs: opts.Epochs, BatchSize: 32, Seed: opts.Seed})
}

// ScoreFull returns per-FLOW full-precision MAE anomaly scores (the
// mean over the flow's windows): the paper detects anomalous flows, and
// flow-level aggregation is what the switch's per-flow registers
// naturally provide.
func (m *AutoEncoder) ScoreFull(flows []netsim.Flow) ([]float64, []bool) {
	var scores []float64
	var anom []bool
	for i := range flows {
		var xs [][]float64
		for _, w := range netsim.SeqWindows(&flows[i], Window) {
			xs = append(xs, w.SeqFeatures())
		}
		if len(xs) == 0 {
			continue
		}
		emb := m.embed(xs)
		recon := m.Body.Forward(emb, false)
		per := nn.MAEScore(recon, emb)
		worst := 0.0
		for _, v := range per {
			if v > worst {
				worst = v
			}
		}
		scores = append(scores, worst)
		anom = append(anom, flows[i].Class == 1)
	}
	return scores, anom
}

// Compile runs the staged pipeline over Emb+Body. The embedding group's
// output doubles as the reconstruction target, so the switch computes
// the MAE entirely from PHV fields. No argmax pass is emitted: the MAE
// is computed by sub/abs/add ALU stages.
func (m *AutoEncoder) Compile(flows []netsim.Flow) error {
	xs, _ := ExtractSeq(flows)
	full := nn.NewSequential(append([]nn.Layer{m.Emb}, m.Body.Layers...)...)
	m.pipe = core.NewPipeline(m.Name, core.CompileOptions{
		Lower:  core.LowerConfig{MaxSegDim: 4},
		Tables: core.CompileConfig{TreeDepth: 6, InBits: 8, MaxCalib: 3000},
		Emit:   core.EmitOptions{FlowStateBits: m.FlowStateBits()},
	})
	comp, err := m.pipe.Compile(full, Window*2, xs)
	if err != nil {
		return err
	}
	m.compiled = comp
	m.embGroup = 0
	return nil
}

// Compiled exposes the compiled tables.
func (m *AutoEncoder) Compiled() *core.Compiled { return m.compiled }

// Diagnostics returns the per-pass compilation diagnostics.
func (m *AutoEncoder) Diagnostics() []core.PassDiag {
	if m.pipe == nil {
		return nil
	}
	return m.pipe.Diagnostics()
}

// ScorePegasus returns the per-flow fixed-point MAE scores the switch
// computes: |recon − emb| summed in integer arithmetic with positions
// aligned by shifting, dequantised, then averaged over the flow's
// windows.
func (m *AutoEncoder) ScorePegasus(flows []netsim.Flow) ([]float64, []bool, error) {
	if m.compiled == nil {
		return nil, nil, fmt.Errorf("models: %s not compiled", m.Name)
	}
	var scores []float64
	var anom []bool
	for i := range flows {
		wins := netsim.SeqWindows(&flows[i], Window)
		if len(wins) == 0 {
			continue
		}
		worst := 0.0
		for _, w := range wins {
			x := w.SeqFeatures()
			v := make([]int32, len(x))
			for j, f := range x {
				v[j] = int32(math.RoundToEven(f))
			}
			if s := m.scoreInts(v); s > worst {
				worst = s
			}
		}
		scores = append(scores, worst)
		anom = append(anom, flows[i].Class == 1)
	}
	return scores, anom, nil
}

// scoreInts runs the compiled pipeline, capturing the embedding group's
// output as the reconstruction target.
func (m *AutoEncoder) scoreInts(x []int32) float64 {
	groups := m.compiled.Groups
	cur := x
	var embOut []int32
	var embFrac int8
	for gi := range groups {
		cur = groups[gi].Eval(cur)
		if gi == m.embGroup {
			embOut = append([]int32(nil), cur...)
			embFrac = groups[gi].OutFrac
		}
	}
	reconFrac := m.compiled.OutFrac
	// Align fixed-point positions by left-shifting the COARSER side up
	// (exact in integer arithmetic; downshifting would discard the very
	// precision the reconstruction error lives in).
	shift := int(embFrac) - int(reconFrac)
	sum := 0.0
	for j := range cur {
		e, r := int64(embOut[j]), int64(cur[j])
		if shift > 0 {
			r <<= uint(shift)
		} else if shift < 0 {
			e <<= uint(-shift)
		}
		d := float64(e - r)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	frac := reconFrac
	if embFrac > reconFrac {
		frac = embFrac
	}
	return math.Ldexp(sum/float64(len(cur)), -int(frac))
}

// Emit runs the pipeline's emit pass (no argmax; the MAE is computed by
// sub/abs/add ALU stages whose cost is included via the final reduction
// stages).
func (m *AutoEncoder) Emit(flows int) (*core.Emitted, error) {
	if m.pipe == nil || m.compiled == nil {
		return nil, fmt.Errorf("models: %s not compiled", m.Name)
	}
	return m.pipe.EmitProgram(flows)
}

// EmitPackets emits the detector with the sequence extraction machine
// compiled in; the per-packet engine path scores raw traces window by
// window through the emitted reconstruction pipeline.
func (m *AutoEncoder) EmitPackets(flows int) (*core.Emitted, error) {
	if m.pipe == nil || m.compiled == nil {
		return nil, fmt.Errorf("models: %s not compiled", m.Name)
	}
	return emitPacketsVia(m.pipe, core.ExtractSeq, flows)
}

// GateThreshold converts a float MAE threshold (the ScorePegasus score
// domain: mean absolute error per element, dequantised) into the
// integer sum the emitted gate stage compares: thr × elements ×
// 2^frac, where frac is the finer of the embedding and reconstruction
// fixed-point positions — exactly inverting the normalisation of
// scoreInts, so a window scores ≥ the returned integer on-switch iff
// its fixed-point MAE is ≥ thr on the host (assuming the |e−r| sum
// stays below the 32-bit saturation point, which the 16-bit activation
// widths guarantee).
func (m *AutoEncoder) GateThreshold(thr float64) (int32, error) {
	if m.compiled == nil {
		return 0, fmt.Errorf("models: %s not compiled", m.Name)
	}
	frac := m.compiled.Groups[m.embGroup].OutFrac
	if m.compiled.OutFrac > frac {
		frac = m.compiled.OutFrac
	}
	n := m.Emb.T * m.Emb.Dim
	return int32(math.Round(thr * float64(n) * math.Ldexp(1, int(frac)))), nil
}

// EmitGatedShared emits the §7.4 form of the detector (the gate
// GatedPipeline.Emit deploys): a pure-combinational subscriber of a
// physically shared seq extraction machine — the reconstruction
// pipeline plus the anomaly gate, consuming the machine's fired window
// ([anom, score, window...] out, no registers).
func (m *AutoEncoder) EmitGatedShared(shared *core.SharedExtraction, thr float64) (*core.Emitted, error) {
	if m.pipe == nil || m.compiled == nil {
		return nil, fmt.Errorf("models: %s not compiled", m.Name)
	}
	if shared.Spec.Kind != core.ExtractSeq {
		return nil, fmt.Errorf("models: %s needs a seq machine, shared machine runs %v", m.Name, shared.Spec.Kind)
	}
	thrInt, err := m.GateThreshold(thr)
	if err != nil {
		return nil, err
	}
	saved := m.pipe.Opts.Emit
	m.pipe.Opts.Emit.Gate = &core.GateSpec{KeepGroup: m.embGroup, Threshold: thrInt}
	defer func() { m.pipe.Opts.Emit = saved }()
	return emitSharedVia(m.pipe, m.Name, shared)
}
