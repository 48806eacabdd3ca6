package kernel

import "repro/internal/vec"

// Pairwise names one regularized Biot–Savart interaction: the smoothing
// kernel and the core size σ. It is the pair NewVortexBatch builds the
// batched evaluators from; the arithmetic itself is defined in batch.go.
type Pairwise struct {
	Sm    Smoothing
	Sigma float64
}

// StretchClassical returns the classical stretching term (α·∇)u for a
// target with circulation alpha and velocity gradient grad
// ((∇u)_{ij} = ∂u_i/∂x_j): component i is Σ_j α_j ∂u_i/∂x_j.
func StretchClassical(grad vec.Mat3, alpha vec.Vec3) vec.Vec3 {
	return grad.MulVec(alpha)
}

// StretchTranspose returns the transpose-scheme stretching term
// (α·∇ᵀ)u: component i is Σ_j α_j ∂u_j/∂x_i. The transpose scheme
// conserves total circulation exactly and is the form written in
// Eq. (6) of the paper.
func StretchTranspose(grad vec.Mat3, alpha vec.Vec3) vec.Vec3 {
	return grad.VecMul(alpha)
}

// Scheme selects the discretization of the vortex stretching term.
type Scheme int

const (
	// Transpose uses (α·∇ᵀ)u, the paper's formulation.
	Transpose Scheme = iota
	// Classical uses (α·∇)u.
	Classical
)

// Stretch applies the selected stretching scheme.
func (s Scheme) Stretch(grad vec.Mat3, alpha vec.Vec3) vec.Vec3 {
	if s == Classical {
		return StretchClassical(grad, alpha)
	}
	return StretchTranspose(grad, alpha)
}

func (s Scheme) String() string {
	if s == Classical {
		return "classical"
	}
	return "transpose"
}
