// Package tensor provides the dense linear-algebra substrate for training
// and full-precision inference of the Pegasus model zoo. It is a minimal,
// allocation-conscious float64 matrix library: everything the paper's DL
// layers need (MatMul, Conv1d, pooling, element-wise transforms) and
// nothing more.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix. A vector is a 1×C or R×1 Mat.
type Mat struct {
	R, C int
	D    []float64
}

// New returns a zeroed R×C matrix.
func New(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", r, c))
	}
	return &Mat{R: r, C: c, D: make([]float64, r*c)}
}

// FromSlice wraps data (not copied) as an R×C matrix.
func FromSlice(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", r, c, r*c, len(data)))
	}
	return &Mat{R: r, C: c, D: data}
}

// Vec returns a 1×n row vector wrapping data.
func Vec(data []float64) *Mat { return FromSlice(1, len(data), data) }

// At returns element (i,j).
func (m *Mat) At(i, j int) float64 { return m.D[i*m.C+j] }

// Set assigns element (i,j).
func (m *Mat) Set(i, j int, v float64) { m.D[i*m.C+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) []float64 { return m.D[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	n := New(m.R, m.C)
	copy(n.D, m.D)
	return n
}

// Zero sets all elements to 0.
func (m *Mat) Zero() {
	for i := range m.D {
		m.D[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Mat) Fill(v float64) {
	for i := range m.D {
		m.D[i] = v
	}
}

// Randn fills m with N(0, std) values drawn from rng.
func (m *Mat) Randn(rng *rand.Rand, std float64) *Mat {
	for i := range m.D {
		m.D[i] = rng.NormFloat64() * std
	}
	return m
}

// MatMul computes dst = a × b, allocating dst if nil. Panics on shape
// mismatch. dst must not alias a or b.
func MatMul(dst, a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: MatMul %dx%d × %dx%d", a.R, a.C, b.R, b.C))
	}
	if dst == nil {
		dst = New(a.R, b.C)
	} else {
		if dst.R != a.R || dst.C != b.C {
			panic("tensor: MatMul dst shape mismatch")
		}
		dst.Zero()
	}
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return dst
}

// MatMulT computes dst = a × bᵀ, allocating dst if nil. Four output
// columns are computed per pass over a row of a, so four independent
// accumulator chains are in flight instead of one serial s += chain;
// each dot product still sums k in ascending order, so every element is
// bit-identical to the one-column loop.
func MatMulT(dst, a, b *Mat) *Mat {
	if a.C != b.C {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d × (%dx%d)ᵀ", a.R, a.C, b.R, b.C))
	}
	if dst == nil {
		dst = New(a.R, b.R)
	} else if dst.R != a.R || dst.C != b.R {
		panic("tensor: MatMulT dst shape mismatch")
	}
	for i := 0; i < a.R; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		j := 0
		for ; j+4 <= b.R; j += 4 {
			b0, b1, b2, b3 := b.Row(j)[:len(arow)], b.Row(j + 1)[:len(arow)], b.Row(j + 2)[:len(arow)], b.Row(j + 3)[:len(arow)]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.R; j++ {
			brow := b.Row(j)[:len(arow)]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
	return dst
}

// TMatMul computes dst = aᵀ × b, allocating dst if nil.
func TMatMul(dst, a, b *Mat) *Mat {
	if a.R != b.R {
		panic(fmt.Sprintf("tensor: TMatMul (%dx%d)ᵀ × %dx%d", a.R, a.C, b.R, b.C))
	}
	if dst == nil {
		dst = New(a.C, b.C)
	} else {
		if dst.R != a.C || dst.C != b.C {
			panic("tensor: TMatMul dst shape mismatch")
		}
		dst.Zero()
	}
	for k := 0; k < a.R; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return dst
}

// Add computes m += other element-wise.
func (m *Mat) Add(other *Mat) *Mat {
	mustSameShape("Add", m, other)
	for i, v := range other.D {
		m.D[i] += v
	}
	return m
}

// Sub computes m -= other element-wise.
func (m *Mat) Sub(other *Mat) *Mat {
	mustSameShape("Sub", m, other)
	for i, v := range other.D {
		m.D[i] -= v
	}
	return m
}

// Mul computes m *= other element-wise (Hadamard product).
func (m *Mat) Mul(other *Mat) *Mat {
	mustSameShape("Mul", m, other)
	for i, v := range other.D {
		m.D[i] *= v
	}
	return m
}

// Scale multiplies every element by s.
func (m *Mat) Scale(s float64) *Mat {
	for i := range m.D {
		m.D[i] *= s
	}
	return m
}

// AddScaled computes m += s·other.
func (m *Mat) AddScaled(other *Mat, s float64) *Mat {
	mustSameShape("AddScaled", m, other)
	for i, v := range other.D {
		m.D[i] += s * v
	}
	return m
}

// AddRowVec adds a 1×C row vector to every row of m.
func (m *Mat) AddRowVec(v *Mat) *Mat {
	if v.R != 1 || v.C != m.C {
		panic(fmt.Sprintf("tensor: AddRowVec %dx%d += %dx%d", m.R, m.C, v.R, v.C))
	}
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j, b := range v.D {
			row[j] += b
		}
	}
	return m
}

// Apply replaces each element x with f(x).
func (m *Mat) Apply(f func(float64) float64) *Mat {
	for i, v := range m.D {
		m.D[i] = f(v)
	}
	return m
}

// ColSums returns the 1×C vector of column sums.
func (m *Mat) ColSums() *Mat {
	out := New(1, m.C)
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.D[j] += v
		}
	}
	return out
}

// ColMeans returns the 1×C vector of column means.
func (m *Mat) ColMeans() *Mat {
	out := m.ColSums()
	if m.R > 0 {
		out.Scale(1 / float64(m.R))
	}
	return out
}

// ColVars returns the 1×C vector of biased column variances given the
// column means.
func (m *Mat) ColVars(means *Mat) *Mat {
	out := New(1, m.C)
	if m.R == 0 {
		return out
	}
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j, v := range row {
			d := v - means.D[j]
			out.D[j] += d * d
		}
	}
	out.Scale(1 / float64(m.R))
	return out
}

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	out := New(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// ArgmaxRow returns the index of the maximum element of row i.
func (m *Mat) ArgmaxRow(i int) int {
	row := m.Row(i)
	best, bi := math.Inf(-1), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}

// MaxAbs returns the maximum absolute element value (0 for empty).
func (m *Mat) MaxAbs() float64 {
	best := 0.0
	for _, v := range m.D {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// Equal reports whether the two matrices have the same shape and all
// elements within tol of each other.
func Equal(a, b *Mat, tol float64) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i := range a.D {
		if math.Abs(a.D[i]-b.D[i]) > tol {
			return false
		}
	}
	return true
}

func mustSameShape(op string, a, b *Mat) {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.R, a.C, b.R, b.C))
	}
}
