package models

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/datasets"
	"github.com/pegasus-idp/pegasus/internal/metrics"
	"github.com/pegasus-idp/pegasus/internal/netsim"
)

func smallDataset(t *testing.T) (train, test []netsim.Flow, classes int) {
	t.Helper()
	ds := datasets.PeerRush(datasets.Config{FlowsPerClass: 60, PacketsPerFlow: 24, Seed: 77})
	tr, _, te := ds.Split(7)
	return tr, te, ds.NumClasses()
}

// TestCNNMTrainedWeightsPinned trains CNN-M exactly as the benchmark's
// set-up does (bench/workloads.go: modelSeed 1, full scale) and pins a
// checksum of every trained weight. The value was computed before
// MatMulT was register-blocked and ReLU got direct loops: set-up
// optimisations must not move a single bit, or macro_f1 moves with them.
func TestCNNMTrainedWeightsPinned(t *testing.T) {
	const modelSeed = 1
	ds := datasets.PeerRush(datasets.Config{FlowsPerClass: 120, PacketsPerFlow: 28, Seed: modelSeed + 101})
	train, _, _ := ds.Split(modelSeed + 7)
	m := NewCNNM(ds.NumClasses(), rand.New(rand.NewSource(modelSeed+13)))
	m.Train(train, TrainOpts{Epochs: 60, Seed: modelSeed})
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range m.Net.Params() {
		for _, v := range p.W.D {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got, want := h.Sum64(), uint64(0xb225a826f00bf8e9); got != want {
		t.Fatalf("trained CNN-M weights hash %#x, want %#x", got, want)
	}
}

func TestExtractors(t *testing.T) {
	train, _, _ := smallDataset(t)
	xs, ys := ExtractStats(train)
	if len(xs) != len(train) || len(ys) != len(train) {
		t.Fatal("ExtractStats counts")
	}
	if len(xs[0]) != 8 {
		t.Fatalf("stats width = %d", len(xs[0]))
	}
	sx, sy := ExtractSeq(train)
	if len(sx) == 0 || len(sx) != len(sy) {
		t.Fatal("ExtractSeq")
	}
	if len(sx[0]) != Window*2 {
		t.Fatalf("seq width = %d", len(sx[0]))
	}
	px, _ := ExtractPayload(train)
	if len(px[0]) != Window*netsim.PayloadBytes {
		t.Fatalf("payload width = %d", len(px[0]))
	}
	pix, _ := ExtractPayloadIPD(train)
	if len(pix[0]) != Window*(netsim.PayloadBytes+1) {
		t.Fatalf("payload+ipd width = %d", len(pix[0]))
	}
}

func TestMLPBEndToEnd(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(1))
	m := NewMLPB(k, rng)
	m.Train(train, TrainOpts{Epochs: 40, Seed: 1})
	full, err := m.EvalFull(test, k)
	if err != nil {
		t.Fatal(err)
	}
	if full.F1 < 0.7 {
		t.Fatalf("MLP-B full F1 = %.3f, want >= 0.7", full.F1)
	}
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}
	peg, err := m.EvalPegasus(test, k)
	if err != nil {
		t.Fatal(err)
	}
	if peg.F1 < full.F1-0.12 {
		t.Fatalf("Pegasus F1 %.3f too far below full %.3f", peg.F1, full.F1)
	}
	em, err := m.Emit(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	res := em.Prog.Resources()
	if res.RegBits != 80*(1<<16) {
		t.Fatalf("MLP-B flow state: %d", res.RegBits)
	}
	if m.ModelSizeBits() == 0 || m.InputScaleBits != 128 {
		t.Fatal("metadata")
	}
}

func TestCNNBEndToEnd(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(2))
	m := NewCNNB(k, rng)
	m.Train(train, TrainOpts{Epochs: 80, Seed: 2})
	full, err := m.EvalFull(test, k)
	if err != nil {
		t.Fatal(err)
	}
	if full.F1 < 0.7 {
		t.Fatalf("CNN-B full F1 = %.3f", full.F1)
	}
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}
	peg, err := m.EvalPegasus(test, k)
	if err != nil {
		t.Fatal(err)
	}
	if peg.F1 < full.F1-0.15 {
		t.Fatalf("CNN-B Pegasus F1 %.3f vs full %.3f", peg.F1, full.F1)
	}
}

func TestCNNMUsesFewerLookupsThanCNNB(t *testing.T) {
	// Table 6's headline: CNN-M is bigger but uses fewer tables thanks
	// to Advanced Primitive Fusion.
	train, _, k := smallDataset(t)
	rng := rand.New(rand.NewSource(3))
	b := NewCNNB(k, rng)
	mm := NewCNNM(k, rng)
	b.Train(train, TrainOpts{Epochs: 5, Seed: 3})
	mm.Train(train, TrainOpts{Epochs: 5, Seed: 3})
	if mm.ModelSizeBits() <= b.ModelSizeBits() {
		t.Fatalf("CNN-M (%d bits) should be bigger than CNN-B (%d bits)",
			mm.ModelSizeBits(), b.ModelSizeBits())
	}
	if err := b.Compile(train); err != nil {
		t.Fatal(err)
	}
	if err := mm.Compile(train); err != nil {
		t.Fatal(err)
	}
	if mm.Compiled().Lookups() >= b.Compiled().Lookups() {
		t.Fatalf("CNN-M lookups %d should be < CNN-B %d",
			mm.Compiled().Lookups(), b.Compiled().Lookups())
	}
}

func TestRNNBEndToEnd(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(4))
	m := NewRNNB(k, rng)
	m.Train(train, TrainOpts{Epochs: 60, LR: 0.02, Seed: 4})
	full, err := m.EvalFull(test, k)
	if err != nil {
		t.Fatal(err)
	}
	if full.F1 < 0.6 {
		t.Fatalf("RNN-B full F1 = %.3f", full.F1)
	}
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}
	peg, err := m.EvalPegasus(test, k)
	if err != nil {
		t.Fatal(err)
	}
	if peg.F1 < full.F1-0.2 {
		t.Fatalf("RNN-B Pegasus F1 %.3f vs full %.3f", peg.F1, full.F1)
	}
	em, err := m.Emit(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if em.Stages > 20 {
		t.Fatalf("RNN-B uses %d stages", em.Stages)
	}
}

func TestCNNLEndToEnd(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(5))
	m := NewCNNL(k, true, 4, rng)
	m.Train(train, TrainOpts{Epochs: 8, LR: 0.01, Seed: 5})
	full, err := m.EvalFull(test, k)
	if err != nil {
		t.Fatal(err)
	}
	if full.F1 < 0.8 { // payload carries a strong signal
		t.Fatalf("CNN-L full F1 = %.3f", full.F1)
	}
	if err := m.Compile(train, 1200); err != nil {
		t.Fatal(err)
	}
	peg, err := m.EvalPegasus(test, k)
	if err != nil {
		t.Fatal(err)
	}
	if peg.F1 < 0.6 {
		t.Fatalf("CNN-L Pegasus F1 = %.3f", peg.F1)
	}
	// Refinement must not hurt.
	before := peg.F1
	m.Refine(train, 4, 0.05)
	peg2, _ := m.EvalPegasus(test, k)
	if peg2.F1 < before-0.1 {
		t.Fatalf("refinement degraded CNN-L: %.3f → %.3f", before, peg2.F1)
	}
	// Figure 7 metadata.
	if m.FlowStateBits() != 16+7*4 {
		t.Fatalf("CNN-L 4-bit flow state = %d, want 44", m.FlowStateBits())
	}
	if m.InputScaleBits() != 3840 {
		t.Fatalf("input scale = %d, want 3840", m.InputScaleBits())
	}
}

func TestCNNLVariantsFlowState(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if v := NewCNNL(3, false, 4, rng).FlowStateBits(); v != 28 {
		t.Fatalf("28-bit variant = %d", v)
	}
	if v := NewCNNL(3, true, 4, rng).FlowStateBits(); v != 44 {
		t.Fatalf("44-bit variant = %d", v)
	}
	if v := NewCNNL(3, true, 8, rng).FlowStateBits(); v != 72 {
		t.Fatalf("72-bit variant = %d", v)
	}
}

func TestCNNLSwitchEquivalence(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(7))
	m := NewCNNL(k, false, 4, rng)
	m.Train(train, TrainOpts{Epochs: 3, LR: 0.01, Seed: 7})
	if err := m.Compile(train, 800); err != nil {
		t.Fatal(err)
	}
	em, err := m.Emit(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	xs, _ := m.Extract(test)
	for i, x := range xs {
		if i >= 40 {
			break
		}
		host := m.ClassifyWindow(x)
		sw := RunSwitchWindow(m, em, x)
		if host != sw {
			t.Fatalf("window %d: switch class %d, host %d", i, sw, host)
		}
	}
	res := em.Prog.Resources()
	if res.TCAMBits == 0 || res.SRAMBits == 0 {
		t.Fatal("CNN-L resources empty")
	}
}

// hasPass reports whether a diagnostics slice contains a pass by name.
func hasPass(diags []core.PassDiag, name string) bool {
	for _, d := range diags {
		if d.Pass == name {
			return true
		}
	}
	return false
}

// TestAllFamiliesCompileThroughPipeline checks that every model family
// compiles via core.Pipeline with populated pass diagnostics, and that
// the batched engine classifies bit-identically to sequential RunSwitch.
func TestAllFamiliesCompileThroughPipeline(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(8))

	mlp := NewMLPB(k, rng)
	mlp.Train(train, TrainOpts{Epochs: 6, Seed: 8})
	if err := mlp.Compile(train); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"lower", "fuse", "build-tables"} {
		if !hasPass(mlp.Diagnostics(), p) {
			t.Fatalf("MLP-B diagnostics missing %q: %+v", p, mlp.Diagnostics())
		}
	}
	em, err := mlp.Emit(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if !hasPass(mlp.Diagnostics(), "emit") {
		t.Fatal("MLP-B diagnostics missing emit pass")
	}
	// Engine vs RunSwitch bit-identity on the emitted model.
	xs, _ := mlp.Extract(test)
	if len(xs) > 50 {
		xs = xs[:50]
	}
	jobs := core.BatchJobsFromFloats(xs)
	eng := em.NewEngine(4)
	res := eng.RunBatch(jobs)
	eng.Close()
	for i, j := range jobs {
		cls, _ := em.RunSwitch(j.In)
		if res[i].Class != cls {
			t.Fatalf("sample %d: engine %d, RunSwitch %d", i, res[i].Class, cls)
		}
	}

	rnn := NewRNNB(k, rng)
	rnn.Train(train, TrainOpts{Epochs: 4, LR: 0.02, Seed: 8})
	if err := rnn.Compile(train); err != nil {
		t.Fatal(err)
	}
	if !hasPass(rnn.Diagnostics(), "lower") || !hasPass(rnn.Diagnostics(), "build-tables") {
		t.Fatalf("RNN-B diagnostics: %+v", rnn.Diagnostics())
	}

	cnnl := NewCNNL(k, false, 4, rng)
	cnnl.Train(train, TrainOpts{Epochs: 2, LR: 0.01, Seed: 8})
	if err := cnnl.Compile(train, 600); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"lower", "attach-head", "fuse", "build-tables", "check-final-group"} {
		if !hasPass(cnnl.Diagnostics(), p) {
			t.Fatalf("CNN-L diagnostics missing %q", p)
		}
	}
	cnnl.Refine(train, 1, 0.05)
	if !hasPass(cnnl.Diagnostics(), "refine") {
		t.Fatal("CNN-L diagnostics missing refine pass")
	}
	if _, err := cnnl.Emit(1 << 10); err != nil {
		t.Fatal(err)
	}
	if !hasPass(cnnl.Diagnostics(), "emit-window") {
		t.Fatal("CNN-L diagnostics missing emit-window pass")
	}

	ae := NewAutoEncoder(nil, rng)
	ae.Train(train, TrainOpts{Epochs: 4, Seed: 8})
	if err := ae.Compile(train); err != nil {
		t.Fatal(err)
	}
	if !hasPass(ae.Diagnostics(), "build-tables") {
		t.Fatalf("AutoEncoder diagnostics: %+v", ae.Diagnostics())
	}
}

func TestAutoEncoderDetectsAttacks(t *testing.T) {
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(8))
	// The paper transfers the Emb layer from the classification task;
	// the trained embedding organises the bucket space so anomalous
	// rhythms land off the benign manifold.
	cls := NewRNNB(k, rng)
	cls.Train(train, TrainOpts{Epochs: 30, LR: 0.02, Seed: 8})
	m := NewAutoEncoder(cls.Emb, rng)
	m.Train(train, TrainOpts{Epochs: 60, LR: 0.005, Seed: 8})
	// The detector must flag at least one beaconing family strongly
	// (which family separates best varies with the RNG stream; the
	// experiment suite reports the full matrix).
	best, bestAtk := 0.0, datasets.Cridex
	for _, atk := range []datasets.AttackKind{datasets.Cridex, datasets.Geodo, datasets.Virut} {
		mixed := datasets.MixAttack(test, atk, 9)
		scores, anom := m.ScoreFull(mixed)
		if auc := metrics.AUCFromScores(scores, anom); auc > best {
			best, bestAtk = auc, atk
		}
	}
	if best < 0.8 {
		t.Fatalf("best beacon-family AUC = %.3f, want >= 0.8", best)
	}
	if err := m.Compile(train); err != nil {
		t.Fatal(err)
	}
	mixed := datasets.MixAttack(test, bestAtk, 9)
	pScores, pAnom, err := m.ScorePegasus(mixed)
	if err != nil {
		t.Fatal(err)
	}
	pAUC := metrics.AUCFromScores(pScores, pAnom)
	if pAUC < best-0.2 {
		t.Fatalf("Pegasus AUC %.3f too far below full %.3f", pAUC, best)
	}
	if _, err := m.Emit(1 << 10); err != nil {
		t.Fatal(err)
	}
}
