// Package rk implements the classical explicit Runge–Kutta schemes that
// serve as time-serial baselines in the paper: second-order RK for the
// Fig. 1 evolution and third/fourth-order RK as the methods "commonly
// applied in recent vortex method implementations" that SDC(3)/SDC(4)
// and PFASST are matched against.
package rk

import (
	"fmt"

	"repro/internal/ode"
)

// Scheme is an explicit Runge–Kutta method given by its Butcher tableau
// (A strictly lower triangular).
type Scheme struct {
	Name  string
	Order int
	A     [][]float64
	B     []float64
	C     []float64
}

// Stages returns the number of stages.
func (s Scheme) Stages() int { return len(s.B) }

// Euler returns the forward Euler scheme (order 1).
func Euler() Scheme {
	return Scheme{Name: "euler", Order: 1, A: [][]float64{{0}}, B: []float64{1}, C: []float64{0}}
}

// Midpoint returns the explicit midpoint rule (classical second-order
// Runge–Kutta, used for the Fig. 1 evolution).
func Midpoint() Scheme {
	return Scheme{
		Name: "rk2", Order: 2,
		A: [][]float64{{0, 0}, {0.5, 0}},
		B: []float64{0, 1},
		C: []float64{0, 0.5},
	}
}

// Kutta3 returns Kutta's third-order scheme.
func Kutta3() Scheme {
	return Scheme{
		Name: "rk3", Order: 3,
		A: [][]float64{{0, 0, 0}, {0.5, 0, 0}, {-1, 2, 0}},
		B: []float64{1.0 / 6, 2.0 / 3, 1.0 / 6},
		C: []float64{0, 0.5, 1},
	}
}

// Classic4 returns the classical fourth-order Runge–Kutta scheme.
func Classic4() Scheme {
	return Scheme{
		Name: "rk4", Order: 4,
		A: [][]float64{
			{0, 0, 0, 0},
			{0.5, 0, 0, 0},
			{0, 0.5, 0, 0},
			{0, 0, 1, 0},
		},
		B: []float64{1.0 / 6, 1.0 / 3, 1.0 / 3, 1.0 / 6},
		C: []float64{0, 0.5, 0.5, 1},
	}
}

// ByOrder returns the standard scheme of the given order (1–4).
func ByOrder(order int) (Scheme, error) {
	switch order {
	case 1:
		return Euler(), nil
	case 2:
		return Midpoint(), nil
	case 3:
		return Kutta3(), nil
	case 4:
		return Classic4(), nil
	}
	return Scheme{}, fmt.Errorf("rk: no standard scheme of order %d", order)
}

// Stepper advances a System with a fixed Runge–Kutta scheme. It owns
// the stage buffers, so a Stepper must not be used concurrently.
type Stepper struct {
	scheme Scheme
	sys    ode.System
	k      [][]float64
	stage  []float64
}

// NewStepper returns a stepper for the system.
func NewStepper(scheme Scheme, sys ode.System) *Stepper {
	st := &Stepper{scheme: scheme, sys: sys}
	st.k = make([][]float64, scheme.Stages())
	for i := range st.k {
		st.k[i] = make([]float64, sys.Dim())
	}
	st.stage = make([]float64, sys.Dim())
	return st
}

// Step advances u in place from t to t+dt.
func (st *Stepper) Step(t, dt float64, u []float64) {
	s := st.scheme
	for i := 0; i < s.Stages(); i++ {
		ode.Copy(st.stage, u)
		for j := 0; j < i; j++ {
			if s.A[i][j] != 0 {
				ode.AXPY(dt*s.A[i][j], st.k[j], st.stage)
			}
		}
		st.sys.F(t+s.C[i]*dt, st.stage, st.k[i])
	}
	for i := 0; i < s.Stages(); i++ {
		if s.B[i] != 0 {
			ode.AXPY(dt*s.B[i], st.k[i], u)
		}
	}
}

// Integrate advances u in place from t0 to t1 in nsteps equal steps.
func (st *Stepper) Integrate(t0, t1 float64, nsteps int, u []float64) {
	if nsteps <= 0 {
		panic("rk: Integrate needs nsteps > 0")
	}
	dt := (t1 - t0) / float64(nsteps)
	for n := 0; n < nsteps; n++ {
		st.Step(t0+float64(n)*dt, dt, u)
	}
}
