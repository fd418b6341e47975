package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pegasus-idp/pegasus/internal/tensor"
)

// Linear is a fully connected layer: out = x·Wᵀ + b. Weight rows are
// output neurons so each row is directly a dot-product template — the
// layout the Pegasus compiler partitions across mapping tables.
type Linear struct {
	In, Out int
	Weight  *Param // Out×In
	Bias    *Param // 1×Out
	lastX   *tensor.Mat
}

// NewLinear constructs a Linear layer with He-initialised weights.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out,
		Weight: newParam(fmt.Sprintf("linear%dx%d.w", out, in), out, in),
		Bias:   newParam(fmt.Sprintf("linear%dx%d.b", out, in), 1, out),
	}
	l.Weight.W.Randn(rng, math.Sqrt(2/float64(in)))
	return l
}

func (l *Linear) Name() string      { return fmt.Sprintf("Linear(%d→%d)", l.In, l.Out) }
func (l *Linear) OutDim(in int) int { return l.Out }
func (l *Linear) Params() []*Param  { return []*Param{l.Weight, l.Bias} }

func (l *Linear) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	shapeCheck("Linear", x, l.In)
	if train {
		l.lastX = x
	}
	out := tensor.MatMulT(nil, x, l.Weight.W)
	out.AddRowVec(l.Bias.W)
	return out
}

func (l *Linear) Backward(grad *tensor.Mat) *tensor.Mat {
	// dW = gradᵀ·x ; db = column sums; dx = grad·W
	l.Weight.G.Add(tensor.TMatMul(nil, grad, l.lastX))
	l.Bias.G.Add(grad.ColSums())
	return tensor.MatMul(nil, grad, l.Weight.W)
}

// BatchNorm normalises each feature column, the paper's Norm layer. At
// inference its affine transform (γ·(x−μ)/σ + β) is an element-wise
// linear Map, which Basic Primitive Fusion folds into neighbours.
type BatchNorm struct {
	Dim      int
	Gamma    *Param
	Beta     *Param
	Momentum float64
	Eps      float64
	// Running statistics used at inference.
	RunMean *tensor.Mat
	RunVar  *tensor.Mat

	lastXhat *tensor.Mat
	lastStd  *tensor.Mat
}

// NewBatchNorm constructs a BatchNorm over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim: dim, Momentum: 0.9, Eps: 1e-5,
		Gamma:   newParam(fmt.Sprintf("bn%d.gamma", dim), 1, dim),
		Beta:    newParam(fmt.Sprintf("bn%d.beta", dim), 1, dim),
		RunMean: tensor.New(1, dim),
		RunVar:  tensor.New(1, dim),
	}
	bn.Gamma.W.Fill(1)
	bn.RunVar.Fill(1)
	return bn
}

func (b *BatchNorm) Name() string      { return fmt.Sprintf("BatchNorm(%d)", b.Dim) }
func (b *BatchNorm) OutDim(in int) int { return b.Dim }
func (b *BatchNorm) Params() []*Param  { return []*Param{b.Gamma, b.Beta} }

func (b *BatchNorm) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	shapeCheck("BatchNorm", x, b.Dim)
	var mean, variance *tensor.Mat
	if train && x.R > 1 {
		mean = x.ColMeans()
		variance = x.ColVars(mean)
		b.RunMean.Scale(b.Momentum).AddScaled(mean, 1-b.Momentum)
		b.RunVar.Scale(b.Momentum).AddScaled(variance, 1-b.Momentum)
	} else {
		mean, variance = b.RunMean, b.RunVar
	}
	std := variance.Clone().Apply(func(v float64) float64 { return math.Sqrt(v + b.Eps) })
	out := tensor.New(x.R, x.C)
	xhat := tensor.New(x.R, x.C)
	for i := 0; i < x.R; i++ {
		xr, or, hr := x.Row(i), out.Row(i), xhat.Row(i)
		for j := range xr {
			h := (xr[j] - mean.D[j]) / std.D[j]
			hr[j] = h
			or[j] = b.Gamma.W.D[j]*h + b.Beta.W.D[j]
		}
	}
	if train {
		b.lastXhat, b.lastStd = xhat, std
	}
	return out
}

func (b *BatchNorm) Backward(grad *tensor.Mat) *tensor.Mat {
	n := float64(grad.R)
	xhat, std := b.lastXhat, b.lastStd
	// Parameter grads.
	for i := 0; i < grad.R; i++ {
		gr, hr := grad.Row(i), xhat.Row(i)
		for j := range gr {
			b.Gamma.G.D[j] += gr[j] * hr[j]
			b.Beta.G.D[j] += gr[j]
		}
	}
	// Input grad (standard batchnorm backward).
	sumG := grad.ColSums()
	sumGH := tensor.New(1, grad.C)
	for i := 0; i < grad.R; i++ {
		gr, hr := grad.Row(i), xhat.Row(i)
		for j := range gr {
			sumGH.D[j] += gr[j] * hr[j]
		}
	}
	out := tensor.New(grad.R, grad.C)
	for i := 0; i < grad.R; i++ {
		gr, hr, or := grad.Row(i), xhat.Row(i), out.Row(i)
		for j := range gr {
			or[j] = b.Gamma.W.D[j] / std.D[j] * (gr[j] - sumG.D[j]/n - hr[j]*sumGH.D[j]/n)
		}
	}
	return out
}

// InferenceAffine returns the per-feature scale and shift equivalent to
// this BatchNorm at inference time: out = scale·x + shift. The Pegasus
// compiler consumes this to treat BN as a linear element-wise Map.
func (b *BatchNorm) InferenceAffine() (scale, shift []float64) {
	scale = make([]float64, b.Dim)
	shift = make([]float64, b.Dim)
	for j := 0; j < b.Dim; j++ {
		s := b.Gamma.W.D[j] / math.Sqrt(b.RunVar.D[j]+b.Eps)
		scale[j] = s
		shift[j] = b.Beta.W.D[j] - s*b.RunMean.D[j]
	}
	return scale, shift
}

// Activation is an element-wise nonlinearity (ReLU, Tanh, Sigmoid),
// the paper's Act layers. Each is a non-linear element-wise Map.
type Activation struct {
	Kind  ActKind
	lastX *tensor.Mat
}

// ActKind enumerates supported activations.
type ActKind int

// Supported activation kinds.
const (
	ReLU ActKind = iota
	Tanh
	Sigmoid
)

func (k ActKind) String() string {
	switch k {
	case ReLU:
		return "ReLU"
	case Tanh:
		return "Tanh"
	case Sigmoid:
		return "Sigmoid"
	}
	return fmt.Sprintf("ActKind(%d)", int(k))
}

// Eval applies the activation to a scalar.
func (k ActKind) Eval(x float64) float64 {
	switch k {
	case ReLU:
		return math.Max(0, x)
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	}
	panic("nn: unknown activation")
}

// Deriv returns dAct/dx given x and the already-computed activation y.
func (k ActKind) Deriv(x, y float64) float64 {
	switch k {
	case ReLU:
		if x > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	}
	panic("nn: unknown activation")
}

// NewActivation constructs an activation layer.
func NewActivation(kind ActKind) *Activation { return &Activation{Kind: kind} }

func (a *Activation) Name() string      { return a.Kind.String() }
func (a *Activation) OutDim(in int) int { return in }
func (a *Activation) Params() []*Param  { return nil }

func (a *Activation) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if train {
		a.lastX = x
	}
	out := x.Clone()
	if a.Kind != ReLU {
		return out.Apply(a.Kind.Eval)
	}
	// ReLU is most of the zoo's activations: math.Max(0, x) inline.
	for i, v := range out.D {
		if v != v {
			out.D[i] = math.NaN()
		} else if !(v > 0) {
			out.D[i] = 0
		}
	}
	return out
}

func (a *Activation) Backward(grad *tensor.Mat) *tensor.Mat {
	out := tensor.New(grad.R, grad.C)
	if a.Kind == ReLU {
		// Deriv is 1 or 0 and does not need the activation; the product
		// is kept so the gradient's sign and NaNs propagate unchanged.
		for i, g := range grad.D {
			d := 0.0
			if a.lastX.D[i] > 0 {
				d = 1
			}
			out.D[i] = g * d
		}
		return out
	}
	for i := range grad.D {
		x := a.lastX.D[i]
		out.D[i] = grad.D[i] * a.Kind.Deriv(x, a.Kind.Eval(x))
	}
	return out
}

// Softmax normalises each row into a probability distribution. It is a
// Multi-Input Operation in Table 4: exponentiate (Map), sum (SumReduce),
// normalise (Map). Backward assumes it is the last layer fed into a
// cross-entropy loss only through SoftmaxCrossEntropy, which bypasses it;
// standalone Backward implements the full Jacobian for completeness.
type Softmax struct {
	lastY *tensor.Mat
}

// NewSoftmax constructs a softmax layer.
func NewSoftmax() *Softmax { return &Softmax{} }

func (s *Softmax) Name() string      { return "Softmax" }
func (s *Softmax) OutDim(in int) int { return in }
func (s *Softmax) Params() []*Param  { return nil }

func (s *Softmax) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	out := tensor.New(x.R, x.C)
	for i := 0; i < x.R; i++ {
		SoftmaxRow(x.Row(i), out.Row(i))
	}
	if train {
		s.lastY = out
	}
	return out
}

func (s *Softmax) Backward(grad *tensor.Mat) *tensor.Mat {
	out := tensor.New(grad.R, grad.C)
	for i := 0; i < grad.R; i++ {
		y, g, o := s.lastY.Row(i), grad.Row(i), out.Row(i)
		dot := 0.0
		for j := range y {
			dot += y[j] * g[j]
		}
		for j := range y {
			o[j] = y[j] * (g[j] - dot)
		}
	}
	return out
}

// SoftmaxRow computes a numerically stable softmax of src into dst.
func SoftmaxRow(src, dst []float64) {
	maxV := math.Inf(-1)
	for _, v := range src {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for j, v := range src {
		e := math.Exp(v - maxV)
		dst[j] = e
		sum += e
	}
	for j := range dst {
		dst[j] /= sum
	}
}
