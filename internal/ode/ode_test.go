package ode

import (
	"math"
	"testing"
)

func TestHelpers(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	AXPY(2, x, y)
	if y[0] != 12 || y[1] != 24 || y[2] != 36 {
		t.Fatalf("AXPY: %v", y)
	}
	Scale(0.5, y)
	if y[0] != 6 || y[2] != 18 {
		t.Fatalf("Scale: %v", y)
	}
	Zero(y)
	if MaxNorm(y) != 0 {
		t.Fatalf("Zero: %v", y)
	}
	Copy(y, x)
	if MaxDiff(x, y) != 0 {
		t.Fatal("Copy/MaxDiff")
	}
	if MaxNorm([]float64{-5, 2}) != 5 {
		t.Fatal("MaxNorm")
	}
	if MaxDiff([]float64{1, 2}, []float64{4, 0}) != 3 {
		t.Fatal("MaxDiff")
	}
}

func TestFuncSystem(t *testing.T) {
	sys := FuncSystem{N: 2, Fn: func(tt float64, u, f []float64) {
		f[0] = u[1]
		f[1] = -u[0]
	}}
	if sys.Dim() != 2 {
		t.Fatal("Dim")
	}
	f := make([]float64, 2)
	sys.F(0, []float64{3, 4}, f)
	if f[0] != 4 || f[1] != -3 {
		t.Fatalf("F = %v", f)
	}
}

func TestProblemsExactSolutionsSatisfyODE(t *testing.T) {
	type pr struct {
		name  string
		sys   System
		exact func(float64) []float64
	}
	probs := []pr{}
	s, e := Dahlquist(-0.7)
	probs = append(probs, pr{"dahlquist", s, e})
	s, e = Oscillator(2)
	probs = append(probs, pr{"oscillator", s, e})
	s, e = Logistic(0.2)
	probs = append(probs, pr{"logistic", s, e})
	s, e = Kepler2D()
	probs = append(probs, pr{"kepler", s, e})

	for _, p := range probs {
		for _, tt := range []float64{0, 0.3, 1.1} {
			u := p.exact(tt)
			f := make([]float64, p.sys.Dim())
			p.sys.F(tt, u, f)
			h := 1e-6
			up := p.exact(tt + h)
			um := p.exact(tt - h)
			for i := range f {
				fd := (up[i] - um[i]) / (2 * h)
				if math.Abs(f[i]-fd) > 1e-5*(1+math.Abs(fd)) {
					t.Fatalf("%s: component %d at t=%v: F=%v, d/dt exact=%v",
						p.name, i, tt, f[i], fd)
				}
			}
		}
	}
}
