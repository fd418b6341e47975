package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.R != 2 || m.C != 3 || len(m.D) != 6 {
		t.Fatalf("New(2,3) = %dx%d len %d", m.R, m.C, len(m.D))
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At mismatch")
	}
	if r := m.Row(1); r[2] != 7 {
		t.Fatal("Row aliasing broken")
	}
}

func TestFromSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(nil, a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 0) {
		t.Fatalf("MatMul = %v, want %v", got.D, want.D)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on shape mismatch")
		}
	}()
	MatMul(nil, New(2, 3), New(2, 2))
}

func TestMatMulTAndTMatMulAgreeWithTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(3, 4).Randn(rng, 1)
	b := New(5, 4).Randn(rng, 1)
	got := MatMulT(nil, a, b)
	want := MatMul(nil, a, b.T())
	if !Equal(got, want, 1e-12) {
		t.Fatal("MatMulT != a × bᵀ")
	}
	c := New(3, 5).Randn(rng, 1)
	got2 := TMatMul(nil, a, c)
	want2 := MatMul(nil, a.T(), c)
	if !Equal(got2, want2, 1e-12) {
		t.Fatal("TMatMul != aᵀ × b")
	}
}

// TestMatMulTBitIdentical pins the register-blocked MatMulT to the
// one-column loop it replaced: each dot product sums k ascending, so
// the results are equal to the last bit, whatever b.R leaves over after
// the four-column blocks. Trained weights depend on it.
func TestMatMulTBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][3]int{{7, 48, 48}, {3, 4, 1}, {5, 9, 6}, {2, 13, 7}, {4, 1, 5}, {1, 0, 3}} {
		a := New(shape[0], shape[1]).Randn(rng, 3)
		b := New(shape[2], shape[1]).Randn(rng, 3)
		got := MatMulT(nil, a, b)
		for i := 0; i < a.R; i++ {
			for j := 0; j < b.R; j++ {
				s := 0.0
				for k := 0; k < a.C; k++ {
					s += a.At(i, k) * b.At(j, k)
				}
				if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(s) {
					t.Fatalf("%dx%d × (%dx%d)ᵀ [%d,%d] = %v, scalar loop %v", a.R, a.C, b.R, b.C, i, j, g, s)
				}
			}
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	if got := a.Clone().Add(b); !Equal(got, FromSlice(1, 3, []float64{5, 7, 9}), 0) {
		t.Fatal("Add")
	}
	if got := a.Clone().Sub(b); !Equal(got, FromSlice(1, 3, []float64{-3, -3, -3}), 0) {
		t.Fatal("Sub")
	}
	if got := a.Clone().Mul(b); !Equal(got, FromSlice(1, 3, []float64{4, 10, 18}), 0) {
		t.Fatal("Mul")
	}
	if got := a.Clone().Scale(2); !Equal(got, FromSlice(1, 3, []float64{2, 4, 6}), 0) {
		t.Fatal("Scale")
	}
	if got := a.Clone().AddScaled(b, 10); !Equal(got, FromSlice(1, 3, []float64{41, 52, 63}), 0) {
		t.Fatal("AddScaled")
	}
}

func TestAddRowVec(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	m.AddRowVec(Vec([]float64{10, 20}))
	if !Equal(m, FromSlice(2, 2, []float64{11, 22, 13, 24}), 0) {
		t.Fatalf("AddRowVec = %v", m.D)
	}
}

func TestColStats(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 6})
	sums := m.ColSums()
	if !Equal(sums, Vec([]float64{4, 8}), 0) {
		t.Fatalf("ColSums = %v", sums.D)
	}
	means := m.ColMeans()
	if !Equal(means, Vec([]float64{2, 4}), 0) {
		t.Fatalf("ColMeans = %v", means.D)
	}
	vars := m.ColVars(means)
	if !Equal(vars, Vec([]float64{1, 4}), 0) {
		t.Fatalf("ColVars = %v", vars.D)
	}
}

func TestArgmaxRowAndMaxAbs(t *testing.T) {
	m := FromSlice(2, 3, []float64{0.1, -5, 2, 9, 1, 1})
	if m.ArgmaxRow(0) != 2 || m.ArgmaxRow(1) != 0 {
		t.Fatal("ArgmaxRow")
	}
	if m.MaxAbs() != 9 {
		t.Fatal("MaxAbs")
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		m := New(r, c).Randn(rng, 1)
		return Equal(m.T().T(), m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributivityProperty(t *testing.T) {
	// a×(b+c) == a×b + a×c
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := New(n, n).Randn(rng, 1)
		b := New(n, n).Randn(rng, 1)
		c := New(n, n).Randn(rng, 1)
		left := MatMul(nil, a, b.Clone().Add(c))
		right := MatMul(nil, a, b).Add(MatMul(nil, a, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConv1DKnown(t *testing.T) {
	// Single channel, kernel [1,-1] acts as a difference operator.
	in := FromSlice(4, 1, []float64{1, 3, 6, 10})
	k := FromSlice(1, 2, []float64{-1, 1})
	out := Conv1D(in, k, nil, 2, 1)
	want := FromSlice(3, 1, []float64{2, 3, 4})
	if !Equal(out, want, 1e-12) {
		t.Fatalf("Conv1D = %v, want %v", out.D, want.D)
	}
}

func TestConv1DMultiChannelBiasStride(t *testing.T) {
	// 2 input channels, 2 output channels, k=2, stride=2.
	in := FromSlice(4, 2, []float64{
		1, 10,
		2, 20,
		3, 30,
		4, 40,
	})
	// oc0 sums everything; oc1 picks channel 1 of the first step.
	kern := FromSlice(2, 4, []float64{
		1, 1, 1, 1,
		0, 1, 0, 0,
	})
	bias := Vec([]float64{0.5, 0})
	out := Conv1D(in, kern, bias, 2, 2)
	want := FromSlice(2, 2, []float64{33.5, 10, 77.5, 30})
	if !Equal(out, want, 1e-12) {
		t.Fatalf("Conv1D = %v, want %v", out.D, want.D)
	}
}

func TestConv1DBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := New(6, 2).Randn(rng, 1)
	kern := New(3, 4).Randn(rng, 1) // cout=3, k=2, cin=2
	bias := New(1, 3).Randn(rng, 1)
	const k, stride = 2, 2
	loss := func(in, kern, bias *Mat) float64 {
		out := Conv1D(in, kern, bias, k, stride)
		s := 0.0
		for _, v := range out.D {
			s += v * v
		}
		return s / 2
	}
	out := Conv1D(in, kern, bias, k, stride)
	gradOut := out.Clone() // dL/dout = out for L = ||out||²/2
	gi, gk, gb := Conv1DBackward(in, kern, gradOut, k, stride)

	const eps = 1e-6
	check := func(name string, m, grad *Mat) {
		t.Helper()
		for i := range m.D {
			orig := m.D[i]
			m.D[i] = orig + eps
			lp := loss(in, kern, bias)
			m.D[i] = orig - eps
			lm := loss(in, kern, bias)
			m.D[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-grad.D[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", name, i, grad.D[i], num)
			}
		}
	}
	check("input", in, gi)
	check("kernel", kern, gk)
	check("bias", bias, gb)
}

func TestMaxPool1D(t *testing.T) {
	in := FromSlice(4, 2, []float64{
		1, 8,
		5, 2,
		3, 9,
		7, 4,
	})
	out, arg := MaxPool1D(in, 2, 2)
	want := FromSlice(2, 2, []float64{5, 8, 7, 9})
	if !Equal(out, want, 0) {
		t.Fatalf("MaxPool1D = %v, want %v", out.D, want.D)
	}
	if arg[0][0] != 1 || arg[0][1] != 0 || arg[1][0] != 3 || arg[1][1] != 2 {
		t.Fatalf("MaxPool1D argmax = %v", arg)
	}
}

func TestGlobalMaxPool(t *testing.T) {
	in := FromSlice(3, 2, []float64{1, 9, 5, 2, 3, 4})
	out, arg := GlobalMaxPool(in)
	if !Equal(out, Vec([]float64{5, 9}), 0) {
		t.Fatalf("GlobalMaxPool = %v", out.D)
	}
	if arg[0] != 1 || arg[1] != 0 {
		t.Fatalf("GlobalMaxPool arg = %v", arg)
	}
	empty, _ := GlobalMaxPool(New(0, 2))
	if empty.R != 1 || empty.C != 2 {
		t.Fatal("GlobalMaxPool empty shape")
	}
}

func TestAvgPool1D(t *testing.T) {
	in := FromSlice(4, 1, []float64{1, 3, 5, 7})
	out := AvgPool1D(in, 2, 2)
	if !Equal(out, FromSlice(2, 1, []float64{2, 6}), 1e-12) {
		t.Fatalf("AvgPool1D = %v", out.D)
	}
}

func TestPoolConvPanicOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { Conv1D(New(3, 1), New(1, 1), nil, 0, 1) },
		func() { MaxPool1D(New(3, 1), 0, 1) },
		func() { AvgPool1D(New(3, 1), 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			f()
		}()
	}
}
