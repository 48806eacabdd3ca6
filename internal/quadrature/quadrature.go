// Package quadrature provides the collocation machinery underlying the
// SDC and PFASST integrators: Gauss–Legendre and Gauss–Lobatto nodes,
// barycentric Lagrange interpolation, and the spectral integration
// matrices Q and S of Section III-B of the paper.
//
// All node sets live on the unit interval [0,1]; integrators scale them
// by the time step. Integrals of the Lagrange basis polynomials are
// computed exactly (up to roundoff) with Gauss–Legendre quadrature of
// sufficient order.
package quadrature

import (
	"fmt"
	"math"
)

// Legendre evaluates the Legendre polynomial P_n and its derivative
// P'_n at x using the three-term recurrence.
func Legendre(n int, x float64) (p, dp float64) {
	if n == 0 {
		return 1, 0
	}
	pPrev, pCur := 1.0, x
	for k := 2; k <= n; k++ {
		pNext := ((2*float64(k)-1)*x*pCur - (float64(k)-1)*pPrev) / float64(k)
		pPrev, pCur = pCur, pNext
	}
	// P'_n(x) = n (x P_n − P_{n−1}) / (x² − 1)
	if x == 1 || x == -1 {
		dp = math.Pow(x, float64(n+1)) * float64(n) * float64(n+1) / 2
		return pCur, dp
	}
	dp = float64(n) * (x*pCur - pPrev) / (x*x - 1)
	return pCur, dp
}

// GaussLegendre returns the n-point Gauss–Legendre nodes and weights on
// [-1, 1]. The rule integrates polynomials of degree 2n−1 exactly.
func GaussLegendre(n int) (x, w []float64) {
	if n < 1 {
		panic("quadrature: GaussLegendre needs n >= 1")
	}
	x = make([]float64, n)
	w = make([]float64, n)
	for k := 0; k < n; k++ {
		// Chebyshev-like initial guess, then Newton on P_n.
		xi := math.Cos(math.Pi * (float64(k) + 0.75) / (float64(n) + 0.5))
		for iter := 0; iter < 100; iter++ {
			p, dp := Legendre(n, xi)
			dx := p / dp
			xi -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		_, dp := Legendre(n, xi)
		x[k] = xi
		w[k] = 2 / ((1 - xi*xi) * dp * dp)
	}
	// The initial guesses enumerate roots from +1 downward; sort
	// ascending for a canonical order.
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		x[i], x[j] = x[j], x[i]
		w[i], w[j] = w[j], w[i]
	}
	return x, w
}

// GaussLobatto returns n ≥ 2 Gauss–Lobatto nodes on [0, 1], including
// both endpoints. The associated collocation rule integrates
// polynomials of degree 2n−3 exactly. These are the intermediate nodes
// used by the paper (three fine, two coarse).
func GaussLobatto(n int) []float64 {
	if n < 2 {
		panic("quadrature: GaussLobatto needs n >= 2")
	}
	nodes := make([]float64, n)
	nodes[0], nodes[n-1] = -1, 1
	// Interior nodes are the roots of P'_{n-1}.
	m := n - 1
	for k := 1; k < n-1; k++ {
		xi := math.Cos(math.Pi * float64(k) / float64(m)) // good initial guess
		for iter := 0; iter < 100; iter++ {
			p, dp := Legendre(m, xi)
			// Newton on f = P'_m with
			// f' = P''_m = (2x P'_m − m(m+1) P_m) / (1 − x²)
			ddp := (2*xi*dp - float64(m)*float64(m+1)*p) / (1 - xi*xi)
			dx := dp / ddp
			xi -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		nodes[n-1-k] = xi
	}
	// Map from [-1,1] to [0,1].
	for i := range nodes {
		nodes[i] = (nodes[i] + 1) / 2
	}
	nodes[0], nodes[n-1] = 0, 1
	return nodes
}

// BaryWeights returns the barycentric interpolation weights of the node
// set. Nodes must be pairwise distinct.
func BaryWeights(nodes []float64) []float64 {
	n := len(nodes)
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		w[j] = 1
		for k := 0; k < n; k++ {
			if k != j {
				w[j] /= nodes[j] - nodes[k]
			}
		}
	}
	return w
}

// LagrangeEval evaluates the interpolating polynomial through
// (nodes[j], vals[j]) at x using the barycentric formula; w must be
// BaryWeights(nodes).
func LagrangeEval(nodes, w, vals []float64, x float64) float64 {
	num, den := 0.0, 0.0
	for j := range nodes {
		d := x - nodes[j]
		if d == 0 {
			return vals[j]
		}
		c := w[j] / d
		num += c * vals[j]
		den += c
	}
	return num / den
}

// IntegrateBasis returns the exact integrals ∫_a^b l_j(τ) dτ of the
// Lagrange basis polynomials of the node set.
func IntegrateBasis(nodes []float64, a, b float64) []float64 {
	n := len(nodes)
	w := BaryWeights(nodes)
	// l_j has degree n−1; a Gauss rule with ceil(n/2)+1 points is exact.
	gx, gw := GaussLegendre(n/2 + 2)
	out := make([]float64, n)
	unit := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range unit {
			unit[i] = 0
		}
		unit[j] = 1
		sum := 0.0
		for k := range gx {
			// map Gauss node from [-1,1] to [a,b]
			x := a + (b-a)*(gx[k]+1)/2
			sum += gw[k] * LagrangeEval(nodes, w, unit, x)
		}
		out[j] = sum * (b - a) / 2
	}
	return out
}

// SMatrix returns the node-to-node integration matrix of the node set:
// S[m][j] = ∫_{t_m}^{t_{m+1}} l_j(τ) dτ, an (n−1)×n matrix. Applied to
// function values F(U_j) it yields the spectral approximation of the
// update integrals in the SDC sweep (Eq. 13 of the paper).
func SMatrix(nodes []float64) [][]float64 {
	n := len(nodes)
	if n < 2 {
		panic("quadrature: SMatrix needs at least 2 nodes")
	}
	s := make([][]float64, n-1)
	for m := 0; m < n-1; m++ {
		s[m] = IntegrateBasis(nodes, nodes[m], nodes[m+1])
	}
	return s
}

// QMatrix returns the cumulative integration matrix:
// Q[m][j] = ∫_{t_0}^{t_{m+1}} l_j(τ) dτ, an (n−1)×n matrix (row m is the
// prefix sum of the first m+1 rows of SMatrix). Its last row holds the
// full-interval collocation weights.
func QMatrix(nodes []float64) [][]float64 {
	s := SMatrix(nodes)
	q := make([][]float64, len(s))
	acc := make([]float64, len(nodes))
	for m := range s {
		for j := range acc {
			acc[j] += s[m][j]
		}
		row := make([]float64, len(acc))
		copy(row, acc)
		q[m] = row
	}
	return q
}

// InterpMatrix returns the matrix P with P[i][j] = l_j^{from}(to[i]):
// values at the "from" nodes are mapped to polynomial-interpolated
// values at the "to" nodes. It is the time-interpolation operator of
// PFASST (and, transposed appropriately, the pointwise restriction when
// the coarse nodes are a subset of the fine ones).
func InterpMatrix(from, to []float64) [][]float64 {
	w := BaryWeights(from)
	p := make([][]float64, len(to))
	unit := make([]float64, len(from))
	for i, x := range to {
		row := make([]float64, len(from))
		for j := range from {
			for k := range unit {
				unit[k] = 0
			}
			unit[j] = 1
			row[j] = LagrangeEval(from, w, unit, x)
		}
		p[i] = row
	}
	return p
}

// SubsetIndices returns, for each coarse node, the index of the matching
// fine node (within tol), or an error when the coarse nodes are not a
// subset of the fine nodes. PFASST requires this nesting for pointwise
// restriction.
func SubsetIndices(fine, coarse []float64) ([]int, error) {
	const tol = 1e-10
	idx := make([]int, len(coarse))
	for i, c := range coarse {
		found := -1
		for j, f := range fine {
			if math.Abs(f-c) < tol {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("quadrature: coarse node %v not among fine nodes %v", c, fine)
		}
		idx[i] = found
	}
	return idx, nil
}
