package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pegasus-idp/pegasus/internal/tensor"
)

// gradCheck numerically validates Backward of a network against the
// analytic gradients for both parameters and inputs.
func gradCheck(t *testing.T, net *Sequential, x, targets *tensor.Mat, loss Loss) {
	t.Helper()
	lossAt := func() float64 {
		out := net.Forward(x, true)
		l, _ := loss.Eval(out, targets)
		return l
	}
	net.ZeroGrad()
	out := net.Forward(x, true)
	_, grad := loss.Eval(out, targets)
	gin := net.Backward(grad)

	const eps = 1e-6
	checkMat := func(name string, w *tensor.Mat, g *tensor.Mat) {
		t.Helper()
		for i := range w.D {
			orig := w.D[i]
			w.D[i] = orig + eps
			lp := lossAt()
			w.D[i] = orig - eps
			lm := lossAt()
			w.D[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-g.D[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", name, i, g.D[i], num)
			}
		}
	}
	for _, p := range net.Params() {
		checkMat(p.Name, p.W, p.G)
	}
	checkMat("input", x, gin)
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(NewLinear(4, 3, rng))
	x := tensor.New(5, 4).Randn(rng, 1)
	targets := ClassTargets([]int{0, 1, 2, 0, 1})
	gradCheck(t, net, x, targets, SoftmaxCrossEntropy{})
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, kind := range []ActKind{ReLU, Tanh, Sigmoid} {
		net := NewSequential(NewLinear(3, 4, rng), NewActivation(kind), NewLinear(4, 2, rng))
		x := tensor.New(4, 3).Randn(rng, 1)
		// Shift away from ReLU kink at 0 for stable numerics.
		x.Apply(func(v float64) float64 {
			if math.Abs(v) < 0.05 {
				return v + 0.1
			}
			return v
		})
		targets := ClassTargets([]int{0, 1, 0, 1})
		gradCheck(t, net, x, targets, SoftmaxCrossEntropy{})
	}
}

// TestReLUMatchesEval pins the ReLU fast paths to ActKind.Eval/Deriv on
// the values where a shortcut would show: signed zeros, infinities and
// NaNs, in the input and in the incoming gradient.
func TestReLUMatchesEval(t *testing.T) {
	vals := []float64{-2, math.Copysign(0, -1), 0, 3, math.Inf(1), math.Inf(-1), math.NaN()}
	x := tensor.New(len(vals), len(vals))
	grad := tensor.New(len(vals), len(vals))
	for i, v := range vals {
		for j, g := range vals {
			x.Set(i, j, v)
			grad.Set(i, j, g)
		}
	}
	a := NewActivation(ReLU)
	y, dx := a.Forward(x, true), a.Backward(grad)
	for i := range x.D {
		wantY := ReLU.Eval(x.D[i])
		wantDx := grad.D[i] * ReLU.Deriv(x.D[i], wantY)
		if math.Float64bits(y.D[i]) != math.Float64bits(wantY) || math.Float64bits(dx.D[i]) != math.Float64bits(wantDx) {
			t.Fatalf("x=%v g=%v: forward %v backward %v, want %v and %v", x.D[i], grad.D[i], y.D[i], dx.D[i], wantY, wantDx)
		}
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewSequential(NewBatchNorm(3), NewLinear(3, 2, rng))
	x := tensor.New(6, 3).Randn(rng, 2)
	targets := ClassTargets([]int{0, 1, 0, 1, 0, 1})
	gradCheck(t, net, x, targets, SoftmaxCrossEntropy{})
}

func TestConv1dGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewSequential(NewConv1d(6, 2, 3, 2, 2, rng), NewLinear(9, 2, rng))
	x := tensor.New(3, 12).Randn(rng, 1)
	targets := ClassTargets([]int{0, 1, 0})
	gradCheck(t, net, x, targets, SoftmaxCrossEntropy{})
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewSequential(NewConv1d(8, 1, 2, 3, 1, rng), NewMaxPool1d(6, 2, 2, 2), NewLinear(6, 2, rng))
	x := tensor.New(3, 8).Randn(rng, 1)
	targets := ClassTargets([]int{1, 0, 1})
	gradCheck(t, net, x, targets, SoftmaxCrossEntropy{})
}

func TestGlobalMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewSequential(NewConv1d(8, 1, 3, 3, 1, rng), NewGlobalMaxPool(6, 3), NewLinear(3, 2, rng))
	x := tensor.New(3, 8).Randn(rng, 1)
	targets := ClassTargets([]int{1, 0, 1})
	gradCheck(t, net, x, targets, SoftmaxCrossEntropy{})
}

func TestAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewSequential(NewAvgPool1d(6, 2, 2, 2), NewLinear(6, 2, rng))
	x := tensor.New(3, 12).Randn(rng, 1)
	targets := ClassTargets([]int{1, 0, 1})
	gradCheck(t, net, x, targets, SoftmaxCrossEntropy{})
}

func TestRNNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewSequential(NewRNN(4, 2, 5, rng), NewLinear(5, 2, rng))
	x := tensor.New(3, 8).Randn(rng, 1)
	targets := ClassTargets([]int{1, 0, 1})
	gradCheck(t, net, x, targets, SoftmaxCrossEntropy{})
}

func TestEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewSequential(NewEmbedding(6, 3, 4, rng), NewLinear(12, 2, rng))
	x := tensor.FromSlice(2, 4, []float64{0, 1, 2, 3, 5, 4, 3, 2})
	targets := ClassTargets([]int{0, 1})
	// Embedding input is discrete; only check parameter grads.
	lossAt := func() float64 {
		out := net.Forward(x, true)
		l, _ := SoftmaxCrossEntropy{}.Eval(out, targets)
		return l
	}
	net.ZeroGrad()
	out := net.Forward(x, true)
	_, grad := SoftmaxCrossEntropy{}.Eval(out, targets)
	net.Backward(grad)
	const eps = 1e-6
	for _, p := range net.Params() {
		for i := range p.W.D {
			orig := p.W.D[i]
			p.W.D[i] = orig + eps
			lp := lossAt()
			p.W.D[i] = orig - eps
			lm := lossAt()
			p.W.D[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.G.D[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", p.Name, i, p.G.D[i], num)
			}
		}
	}
}

func TestEmbeddingClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	e := NewEmbedding(4, 2, 1, rng)
	if e.Lookup(-3) != 0 || e.Lookup(99) != 3 || e.Lookup(2) != 2 {
		t.Fatal("Lookup clamping broken")
	}
}

func TestMSEAndMAELosses(t *testing.T) {
	out := tensor.FromSlice(1, 2, []float64{1, 3})
	tgt := tensor.FromSlice(1, 2, []float64{0, 1})
	l, g := MSE{}.Eval(out, tgt)
	if math.Abs(l-2.5) > 1e-12 { // (1+4)/2
		t.Fatalf("MSE = %g, want 2.5", l)
	}
	if math.Abs(g.D[0]-1) > 1e-12 || math.Abs(g.D[1]-2) > 1e-12 {
		t.Fatalf("MSE grad = %v", g.D)
	}
	l, g = MAE{}.Eval(out, tgt)
	if math.Abs(l-1.5) > 1e-12 { // (1+2)/2
		t.Fatalf("MAE = %g, want 1.5", l)
	}
	if g.D[0] != 0.5 || g.D[1] != 0.5 {
		t.Fatalf("MAE grad = %v", g.D)
	}
}

func TestMAEScore(t *testing.T) {
	out := tensor.FromSlice(2, 2, []float64{1, 2, 0, 0})
	tgt := tensor.FromSlice(2, 2, []float64{0, 0, 0, 4})
	s := MAEScore(out, tgt)
	if s[0] != 1.5 || s[1] != 2 {
		t.Fatalf("MAEScore = %v", s)
	}
}

func TestSoftmaxForwardRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sm := NewSoftmax()
	x := tensor.New(4, 5).Randn(rng, 3)
	out := sm.Forward(x, false)
	for i := 0; i < out.R; i++ {
		s := 0.0
		for _, v := range out.Row(i) {
			if v < 0 {
				t.Fatal("softmax negative")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, s)
		}
	}
}

func TestSoftmaxGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewSequential(NewLinear(3, 4, rng), NewSoftmax())
	x := tensor.New(3, 3).Randn(rng, 1)
	tgt := tensor.New(3, 4)
	tgt.Set(0, 1, 1)
	tgt.Set(1, 0, 1)
	tgt.Set(2, 3, 1)
	gradCheck(t, net, x, tgt, MSE{})
}

func TestBatchNormInferenceAffineMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bn := NewBatchNorm(3)
	// Push some batches through to populate running stats.
	for i := 0; i < 20; i++ {
		bn.Forward(tensor.New(16, 3).Randn(rng, 2), true)
	}
	scale, shift := bn.InferenceAffine()
	x := tensor.New(4, 3).Randn(rng, 2)
	want := bn.Forward(x, false)
	got := tensor.New(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			got.Set(i, j, scale[j]*x.At(i, j)+shift[j])
		}
	}
	if !tensor.Equal(got, want, 1e-9) {
		t.Fatal("InferenceAffine disagrees with Forward(train=false)")
	}
}

func TestFitLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewSequential(
		NewLinear(2, 8, rng), NewActivation(Tanh),
		NewLinear(8, 2, rng),
	)
	xs := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []int{0, 1, 1, 0}
	hist := Fit(net, xs, ClassTargets(labels), SoftmaxCrossEntropy{}, NewAdam(0.05),
		TrainConfig{Epochs: 300, BatchSize: 4, Seed: 1})
	if hist[len(hist)-1] >= hist[0] {
		t.Fatalf("loss did not decrease: %g -> %g", hist[0], hist[len(hist)-1])
	}
	if acc := Accuracy(net, xs, labels); acc != 1 {
		t.Fatalf("XOR accuracy = %g, want 1", acc)
	}
}

func TestFitDeterministicGivenSeed(t *testing.T) {
	build := func() (*Sequential, *tensor.Mat, []int) {
		rng := rand.New(rand.NewSource(15))
		net := NewSequential(NewLinear(3, 4, rng), NewActivation(ReLU), NewLinear(4, 2, rng))
		xs := tensor.New(20, 3).Randn(rng, 1)
		labels := make([]int, 20)
		for i := range labels {
			labels[i] = i % 2
		}
		return net, xs, labels
	}
	n1, x1, l1 := build()
	n2, x2, l2 := build()
	h1 := Fit(n1, x1, ClassTargets(l1), SoftmaxCrossEntropy{}, NewSGD(0.1, 0.9, 0), TrainConfig{Epochs: 5, BatchSize: 4, Seed: 7})
	h2 := Fit(n2, x2, ClassTargets(l2), SoftmaxCrossEntropy{}, NewSGD(0.1, 0.9, 0), TrainConfig{Epochs: 5, BatchSize: 4, Seed: 7})
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("training not deterministic at epoch %d: %g vs %g", i, h1[i], h2[i])
		}
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := newParam("w", 1, 1)
	p.W.D[0] = 10
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p}) // grad 0, decay pulls toward 0
	if p.W.D[0] >= 10 {
		t.Fatalf("weight decay did not shrink weight: %g", p.W.D[0])
	}
}

func TestSequentialIntrospection(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net := NewSequential(
		NewBatchNorm(4),
		NewLinear(4, 8, rng), NewActivation(ReLU),
		NewLinear(8, 3, rng),
	)
	if got := net.OutDim(4); got != 3 {
		t.Fatalf("OutDim = %d, want 3", got)
	}
	wantParams := 2*4 + (4*8 + 8) + (8*3 + 3)
	if got := net.NumParams(); got != wantParams {
		t.Fatalf("NumParams = %d, want %d", got, wantParams)
	}
	if net.SizeBits() != wantParams*32 {
		t.Fatal("SizeBits mismatch")
	}
	if net.String() == "" {
		t.Fatal("String empty")
	}
}

func TestAutoEncoderReconstructionImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// 6-dim data on a 2-dim manifold.
	n := 64
	xs := tensor.New(n, 6)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		row := xs.Row(i)
		for j := 0; j < 3; j++ {
			row[j] = a + 0.01*rng.NormFloat64()
			row[3+j] = b + 0.01*rng.NormFloat64()
		}
	}
	ae := NewSequential(
		NewLinear(6, 3, rng), NewActivation(Tanh),
		NewLinear(3, 6, rng),
	)
	hist := Fit(ae, xs, xs, MSE{}, NewAdam(0.01), TrainConfig{Epochs: 80, BatchSize: 16, Seed: 3})
	if hist[len(hist)-1] > hist[0]/4 {
		t.Fatalf("AE reconstruction did not improve enough: %g -> %g", hist[0], hist[len(hist)-1])
	}
}
