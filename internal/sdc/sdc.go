// Package sdc implements spectral deferred correction (SDC) time
// integration (Dutt, Greengard, Rokhlin) in the explicit form used by
// the paper (Section III-B1, Eq. 12–13).
//
// A time step [t_n, t_n+Δt] carries M+1 collocation nodes (Gauss–Lobatto
// here). A sweep applies a forward-Euler-like correction at every node,
//
//	U^{k+1}_{m+1} = U^{k+1}_m + Δt_m [f(t_m,U^{k+1}_m) − f(t_m,U^k_m)]
//	               + (S F^k)_m + τ_m,
//
// where S is the node-to-node spectral integration matrix and τ is the
// FAS correction supplied by PFASST (zero for plain SDC). Each sweep
// raises the formal order by one up to the order of the underlying
// collocation rule (2·(M+1)−2 for Lobatto nodes).
package sdc

import (
	"fmt"

	"repro/internal/ode"
	"repro/internal/quadrature"
)

// Sweeper holds the node values of one time step and performs SDC
// sweeps. It is the building block of both the serial integrator in
// this package and the PFASST levels.
type Sweeper struct {
	sys   ode.System
	nodes []float64   // collocation nodes on [0,1]
	s     [][]float64 // node-to-node integration matrix
	q     [][]float64 // cumulative integration matrix
	dim   int

	t0, dt float64

	// U[m], F[m] are the solution and right-hand side at node m.
	U, F [][]float64
	// Tau[m] is the FAS correction for the interval [t_m, t_{m+1}];
	// all-zero unless set by PFASST.
	Tau [][]float64

	fOld  [][]float64
	integ [][]float64 // Sweep's scratch, rewritten before every read
	resid []float64

	// u0Stale marks that SetU0 replaced U[0] without re-evaluating
	// F[0]. Spread and EvalAll evaluate every node and clear it; a
	// Sweep that finds it set snapshots the old F[0] for its node-0
	// correction term Δt·[f(U^{k+1}_0) − f(U^k_0)] and then
	// re-evaluates. This is the parareal-like mechanism by which a new
	// initial value propagates through a PFASST sweep.
	u0Stale bool

	// NEvals counts right-hand-side evaluations performed by this
	// sweeper (used by the cost models).
	NEvals int64
}

// NewSweeper returns a sweeper with nNodes Gauss–Lobatto nodes for the
// given system.
func NewSweeper(sys ode.System, nNodes int) *Sweeper {
	if nNodes < 2 {
		panic("sdc: need at least 2 collocation nodes")
	}
	nodes := quadrature.GaussLobatto(nNodes)
	sw := &Sweeper{
		sys:   sys,
		nodes: nodes,
		s:     quadrature.SMatrix(nodes),
		q:     quadrature.QMatrix(nodes),
		dim:   sys.Dim(),
	}
	n := len(nodes)
	alloc := func(rows int) [][]float64 {
		a := make([][]float64, rows)
		for i := range a {
			a[i] = make([]float64, sw.dim)
		}
		return a
	}
	sw.U = alloc(n)
	sw.F = alloc(n)
	sw.Tau = alloc(n - 1)
	sw.fOld = alloc(n)
	sw.integ = alloc(n - 1)
	sw.resid = make([]float64, sw.dim)
	return sw
}

// NNodes returns the number of collocation nodes.
func (sw *Sweeper) NNodes() int { return len(sw.nodes) }

// Nodes returns the collocation nodes on [0,1] (shared; do not modify).
func (sw *Sweeper) Nodes() []float64 { return sw.nodes }

// NodeTime returns the absolute time of node m for the current step.
func (sw *Sweeper) NodeTime(m int) float64 { return sw.t0 + sw.dt*sw.nodes[m] }

// Dt returns the current step size.
func (sw *Sweeper) Dt() float64 { return sw.dt }

// Setup prepares the sweeper for the step [t0, t0+dt] and clears the
// FAS corrections.
func (sw *Sweeper) Setup(t0, dt float64) {
	sw.t0, sw.dt = t0, dt
	for m := range sw.Tau {
		ode.Zero(sw.Tau[m])
	}
}

// SetU0 sets the initial node value U_0 and leaves F_0 to the next
// evaluation that reads it: Spread or EvalAll evaluates it with the
// other nodes, and a Sweep applies the full node-0 correction term of
// Eq. (13) against the previous F_0.
func (sw *Sweeper) SetU0(u0 []float64) {
	if len(u0) != sw.dim {
		panic(fmt.Sprintf("sdc: SetU0 length %d, want %d", len(u0), sw.dim))
	}
	ode.Copy(sw.U[0], u0)
	sw.u0Stale = true
}

// Spread copies U_0 to every node and evaluates F at nodes 0..M (the
// provisional solution U⁰ of the paper).
func (sw *Sweeper) Spread() {
	sw.evalF(0)
	for m := 1; m < len(sw.nodes); m++ {
		ode.Copy(sw.U[m], sw.U[0])
		sw.evalF(m)
	}
	sw.u0Stale = false
}

func (sw *Sweeper) evalF(m int) {
	sw.sys.F(sw.NodeTime(m), sw.U[m], sw.F[m])
	sw.NEvals++
}

// EvalAll re-evaluates F at every node (used by PFASST after transfer
// operations overwrite the node values).
func (sw *Sweeper) EvalAll() {
	for m := range sw.nodes {
		sw.evalF(m)
	}
	sw.u0Stale = false
}

// Sweep performs one explicit SDC sweep (Eq. 13) including the FAS
// corrections currently stored in Tau. U_0 is left unchanged; nodes
// 1..M are updated and their F re-evaluated (M evaluations).
func (sw *Sweeper) Sweep() {
	n := len(sw.nodes)
	// Save F^k and precompute (S F^k)_m + τ_m.
	for m := 0; m < n; m++ {
		ode.Copy(sw.fOld[m], sw.F[m])
	}
	if sw.u0Stale {
		sw.evalF(0) // fOld[0] keeps f(U^k_0); F[0] becomes f(U^{k+1}_0)
		sw.u0Stale = false
	}
	for m := 0; m < n-1; m++ {
		ode.Copy(sw.integ[m], sw.Tau[m])
		for j := 0; j < n; j++ {
			ode.AXPY(sw.dt*sw.s[m][j], sw.fOld[j], sw.integ[m])
		}
	}
	for m := 0; m < n-1; m++ {
		dtm := sw.dt * (sw.nodes[m+1] - sw.nodes[m])
		// U^{k+1}_{m+1} = U^{k+1}_m + Δt_m (F^{k+1}_m − F^k_m) + integ_m
		ode.Copy(sw.U[m+1], sw.U[m])
		ode.AXPY(dtm, sw.F[m], sw.U[m+1])
		ode.AXPY(-dtm, sw.fOld[m], sw.U[m+1])
		for i := range sw.U[m+1] {
			sw.U[m+1][i] += sw.integ[m][i]
		}
		sw.evalF(m + 1)
	}
}

// IntegrateSF writes dst[m] = Δt (S F)_m for every interval m using the
// current F values; dst must have NNodes()−1 rows of length Dim. PFASST
// uses this to build FAS corrections.
func (sw *Sweeper) IntegrateSF(dst [][]float64) {
	n := len(sw.nodes)
	if len(dst) != n-1 {
		panic("sdc: IntegrateSF needs NNodes-1 rows")
	}
	for m := 0; m < n-1; m++ {
		ode.Zero(dst[m])
		for j := 0; j < n; j++ {
			ode.AXPY(sw.dt*sw.s[m][j], sw.F[j], dst[m])
		}
	}
}

// Residual returns the maximum collocation residual over nodes and
// components,
//
//	max_m | U_0 + Δt (Q F)_m (+ Στ) − U_{m+1} |_∞ ,
//
// which vanishes exactly at the collocation solution.
func (sw *Sweeper) Residual() float64 {
	n := len(sw.nodes)
	maxR := 0.0
	tauSum := sw.integ[0] // Sweep's scratch: no allocation per call
	ode.Zero(tauSum)
	for m := 0; m < n-1; m++ {
		ode.AXPY(1, sw.Tau[m], tauSum)
		ode.Copy(sw.resid, sw.U[0])
		for j := 0; j < n; j++ {
			ode.AXPY(sw.dt*sw.q[m][j], sw.F[j], sw.resid)
		}
		for i := range sw.resid {
			sw.resid[i] += tauSum[i] - sw.U[m+1][i]
		}
		if r := ode.MaxNorm(sw.resid); r > maxR {
			maxR = r
		}
	}
	return maxR
}

// UEnd returns the node value at the right endpoint (shared storage).
func (sw *Sweeper) UEnd() []float64 { return sw.U[len(sw.nodes)-1] }

// Integrator is the time-serial SDC method: per step it spreads the
// initial value and performs a fixed number of sweeps. SDC(k) in the
// paper's notation is Integrator{Sweeps: k}.
type Integrator struct {
	sw     *Sweeper
	sweeps int
}

// NewIntegrator returns an SDC integrator with nNodes Gauss–Lobatto
// nodes performing `sweeps` sweeps per time step.
func NewIntegrator(sys ode.System, nNodes, sweeps int) *Integrator {
	if sweeps < 1 {
		panic("sdc: need at least one sweep")
	}
	return &Integrator{sw: NewSweeper(sys, nNodes), sweeps: sweeps}
}

// Sweeps returns the number of sweeps per step.
func (in *Integrator) Sweeps() int { return in.sweeps }

// NEvals returns the number of right-hand-side evaluations so far.
func (in *Integrator) NEvals() int64 { return in.sw.NEvals }

// Step advances u in place from t0 to t0+dt.
func (in *Integrator) Step(t0, dt float64, u []float64) {
	in.sweepStep(t0, dt, u)
	ode.Copy(u, in.sw.UEnd())
}

// StepResidual advances u and returns the final collocation residual
// of the step.
func (in *Integrator) StepResidual(t0, dt float64, u []float64) float64 {
	in.sweepStep(t0, dt, u)
	r := in.sw.Residual()
	ode.Copy(u, in.sw.UEnd())
	return r
}

// sweepStep is the one SDC step body: spread u over [t0, t0+dt] and
// sweep. The end value is left in the sweeper.
func (in *Integrator) sweepStep(t0, dt float64, u []float64) {
	sw := in.sw
	sw.Setup(t0, dt)
	sw.SetU0(u)
	sw.Spread()
	for k := 0; k < in.sweeps; k++ {
		sw.Sweep()
	}
}

// Integrate advances u in place from t0 to t1 in nsteps equal steps.
func (in *Integrator) Integrate(t0, t1 float64, nsteps int, u []float64) {
	if nsteps <= 0 {
		panic("sdc: Integrate needs nsteps > 0")
	}
	dt := (t1 - t0) / float64(nsteps)
	for n := 0; n < nsteps; n++ {
		in.Step(t0+float64(n)*dt, dt, u)
	}
}
