// Package vec provides small fixed-size vector and matrix types for
// three-dimensional N-body computations.
//
// All types are plain value types; operations return new values and never
// allocate. The package is deliberately minimal: it contains exactly the
// linear algebra needed by the kernel, tree and integrator packages.
package vec

import "math"

// Vec3 is a vector in R^3.
type Vec3 struct {
	X, Y, Z float64
}

// V3 constructs a Vec3 from its components.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Zero3 is the zero vector.
var Zero3 = Vec3{}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the Euclidean inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean norm |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean norm |v|^2.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// NormInf returns the maximum norm max(|x|,|y|,|z|).
func (v Vec3) NormInf() float64 {
	return math.Max(math.Abs(v.X), math.Max(math.Abs(v.Y), math.Abs(v.Z)))
}

// Normalize returns v/|v|; it returns the zero vector when |v| == 0.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Zero3
	}
	return v.Scale(1 / n)
}

// AddScaled returns v + s*w, the fused update used throughout the
// integrators.
func (v Vec3) AddScaled(s float64, w Vec3) Vec3 {
	return Vec3{v.X + s*w.X, v.Y + s*w.Y, v.Z + s*w.Z}
}

// Min returns the componentwise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the componentwise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// Mul returns the componentwise (Hadamard) product of v and w.
func (v Vec3) Mul(w Vec3) Vec3 { return Vec3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Component returns the i-th component of v for i in {0,1,2}.
func (v Vec3) Component(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// WithComponent returns a copy of v with the i-th component set to s.
func (v Vec3) WithComponent(i int, s float64) Vec3 {
	switch i {
	case 0:
		v.X = s
	case 1:
		v.Y = s
	default:
		v.Z = s
	}
	return v
}

// IsFinite reports whether every component of v is finite (neither NaN
// nor ±Inf).
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// Mat3 is a 3×3 matrix with entries M[row][col], used for velocity
// gradients and dipole moment tensors.
type Mat3 [3][3]float64

// Outer returns the outer product v wᵀ (entry (i,j) = v_i * w_j).
func Outer(v, w Vec3) Mat3 {
	return Mat3{
		{v.X * w.X, v.X * w.Y, v.X * w.Z},
		{v.Y * w.X, v.Y * w.Y, v.Y * w.Z},
		{v.Z * w.X, v.Z * w.Y, v.Z * w.Z},
	}
}

// Identity3 returns the 3×3 identity matrix.
func Identity3() Mat3 {
	return Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// Add returns m + n.
func (m Mat3) Add(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[i][j] + n[i][j]
		}
	}
	return r
}

// Sub returns m - n.
func (m Mat3) Sub(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[i][j] - n[i][j]
		}
	}
	return r
}

// Scale returns s*m.
func (m Mat3) Scale(s float64) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = s * m[i][j]
		}
	}
	return r
}

// MulVec returns the matrix-vector product m v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// VecMul returns the vector-matrix product vᵀ m (as a vector), i.e. the
// action of the transpose: (VecMul)_j = Σ_i v_i m_{ij}.
func (m Mat3) VecMul(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[1][0]*v.Y + m[2][0]*v.Z,
		m[0][1]*v.X + m[1][1]*v.Y + m[2][1]*v.Z,
		m[0][2]*v.X + m[1][2]*v.Y + m[2][2]*v.Z,
	}
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[j][i]
		}
	}
	return r
}

// Trace returns the trace of m.
func (m Mat3) Trace() float64 { return m[0][0] + m[1][1] + m[2][2] }

// FrobeniusNorm returns the Frobenius norm of m.
func (m Mat3) FrobeniusNorm() float64 {
	s := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s += m[i][j] * m[i][j]
		}
	}
	return math.Sqrt(s)
}
