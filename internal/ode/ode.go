// Package ode defines the initial-value-problem abstraction shared by
// all time integrators (Runge–Kutta, SDC, parareal, PFASST) and small
// helpers for flat state vectors.
//
// States are flat []float64; the particle package packs positions and
// circulation vectors into this format. Integrators never allocate per
// step beyond their pre-sized buffers.
package ode

import "math"

// System is an initial value problem u' = F(t, u), u(t0) = u0 (Eq. 9 of
// the paper).
type System interface {
	// Dim returns the state dimension.
	Dim() int
	// F evaluates the right-hand side into f (length Dim). It must not
	// retain u or f.
	F(t float64, u, f []float64)
}

// FuncSystem adapts a plain function to the System interface.
type FuncSystem struct {
	N  int
	Fn func(t float64, u, f []float64)
}

// Dim implements System.
func (s FuncSystem) Dim() int { return s.N }

// F implements System.
func (s FuncSystem) F(t float64, u, f []float64) { s.Fn(t, u, f) }

// Copy copies src into dst (lengths must match).
func Copy(dst, src []float64) { copy(dst, src) }

// Zero sets all of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// AXPY computes y += a*x.
func AXPY(a float64, x, y []float64) {
	for i := range y {
		y[i] += a * x[i]
	}
}

// Scale computes x *= a.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// MaxNorm returns max_i |x_i|.
func MaxNorm(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// MaxDiff returns max_i |a_i − b_i|.
func MaxDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}
