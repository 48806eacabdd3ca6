// Package parareal implements the classical parareal algorithm of
// Lions, Maday and Turinici — the baseline parallel-in-time method
// whose efficiency bound (1/K) PFASST relaxes to Ks/Kp (Section III-B4
// of the paper).
//
// Each rank of the communicator owns one time slice. The algorithm
// iterates
//
//	U^{k+1}_{n+1} = G(U^{k+1}_n) + F(U^k_n) − G(U^k_n),
//
// with the cheap coarse propagator G applied serially (pipelined along
// the ranks) and the expensive fine propagator F applied in parallel.
package parareal

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/ode"
)

// Propagator advances the state u in place from t0 to t1.
type Propagator func(t0, t1 float64, u []float64)

// Result reports one rank's view of a parareal solve.
type Result struct {
	// U is the solution at the end of this rank's time slice after the
	// final iteration.
	U []float64
	// Final is the solution at the end of the full interval (the last
	// rank's U), available on every rank.
	Final []float64
	// Corrections[k] is the max-norm update of the slice-end value in
	// iteration k — the convergence monitor.
	Corrections []float64
}

const (
	tagInit = 700001
	tagIter = 700002
)

// Run executes the parareal iteration on the communicator: rank n owns
// the time slice [t0 + n·Δ, t0 + (n+1)·Δ] with Δ = (t1−t0)/P. Every
// rank must pass the same arguments. The fine and coarse propagators
// are used as black boxes, exactly as in the original method.
func Run(comm *mpi.Comm, coarse, fine Propagator, t0, t1 float64, u0 []float64, iterations int) (Result, error) {
	p := comm.Size()
	n := comm.Rank()
	if iterations < 1 {
		return Result{}, fmt.Errorf("parareal: iterations %d < 1", iterations)
	}
	dim := len(u0)
	slice := (t1 - t0) / float64(p)
	tn := t0 + float64(n)*slice
	tn1 := tn + slice

	// Initialization: serial coarse propagation (pipelined).
	uStart := append([]float64(nil), u0...)
	if n > 0 {
		uStart = comm.RecvFloat64s(n-1, tagInit)
	}
	gOld := append([]float64(nil), uStart...)
	coarse(tn, tn1, gOld)
	if n < p-1 {
		comm.SendFloat64s(n+1, tagInit, gOld)
	}
	uEnd := append([]float64(nil), gOld...)

	res := Result{Corrections: make([]float64, 0, iterations)}
	fVal := make([]float64, dim)
	for k := 0; k < iterations; k++ {
		// Parallel fine propagation from the current initial value.
		ode.Copy(fVal, uStart)
		fine(tn, tn1, fVal)

		// Receive the corrected initial value (serial sweep).
		if n > 0 {
			uStart = comm.RecvFloat64s(n-1, tagIter)
		}
		gNew := append([]float64(nil), uStart...)
		coarse(tn, tn1, gNew)

		prev := append([]float64(nil), uEnd...)
		for i := range uEnd {
			uEnd[i] = gNew[i] + fVal[i] - gOld[i]
		}
		if n < p-1 {
			comm.SendFloat64s(n+1, tagIter, uEnd)
		}
		ode.Copy(gOld, gNew)
		res.Corrections = append(res.Corrections, ode.MaxDiff(uEnd, prev))
	}
	res.U = uEnd
	res.Final = comm.BcastFloat64s(p-1, append([]float64(nil), uEnd...))
	return res, nil
}

// EfficiencyBound returns the classical parareal parallel-efficiency
// bound 1/K (the PFASST bound Ks/Kp is implemented in package pfasst).
func EfficiencyBound(iterations int) float64 {
	if iterations < 1 {
		return 1
	}
	return 1 / float64(iterations)
}
