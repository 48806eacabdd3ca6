package bench

import (
	"fmt"
	"math"
	"math/rand"

	nbody "repro"
	"repro/internal/particle"
	"repro/internal/server"
)

// Workload is one named set of inputs. The names are fixed: issues and
// later changes cite them.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	Why string

	// N particles on a PT×PS grid, integrated over [0, T1] in Steps
	// steps. Serial selects nbody.NewSimulation (tree θ = 0.3, SDC(3,4),
	// one rank) instead of RunSpaceTime; Clustered selects the clustered
	// sheet instead of the scaled spherical one.
	N, PT, PS int
	T1        float64
	Steps     int
	Serial    bool
	Clustered bool
	// ErrGate is the verification bound on err_vs_ref: at least ten
	// times the largest value seen over twenty seeds when the workload
	// was defined (on pt4_sheet and daemon_fleet the error moves by
	// orders of magnitude with the seed, so their gates are rounded up
	// further).
	ErrGate float64

	// Fleet marks the daemon workload: Clients closed-loop clients
	// cycling four blob specs of N particles (see fleetSpecs) through
	// an in-process nbodyd.
	Fleet   bool
	Clients int
}

// Workloads returns the benchmark's five workloads at their full size.
//
// The sizes are smaller than a production run on purpose: the driver
// repeats every workload some twenty times inside one hour on two
// cores, so one solve is sized a little over a second and a run
// measures about ten of them.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "st2x2_sheet",
			Why:  "headline 2x2 space-time grid on the vortex sheet: hot.traverse with remote leaves is ~90% of rank time, so hot and mpi work must show here",
			N:    640, PT: 2, PS: 2, T1: 2, Steps: 4, ErrGate: 4e-4,
		},
		{
			Name: "pt4_sheet",
			Why:  "deepest PFASST pipeline at PS=1: hot runs with no remote cells or fetches, so a transport change predicts no move while a kernel or local-tree one still does",
			N:    448, PT: 4, PS: 1, T1: 4, Steps: 8, ErrGate: 1e-3,
		},
		{
			Name: "ps4_clustered",
			Why:  "space-only PS=4 on a clustered input with few particles per rank: decomposition, branch exchange, on-demand fetch and load imbalance carry a visible share",
			N:    352, PT: 1, PS: 4, T1: 4, Steps: 8, Clustered: true, ErrGate: 1e-2,
		},
		{
			Name: "serial_sdc",
			Why:  "plain one-rank tree+SDC baseline: kernel and tree do all the work, hot, mpi and pfasst none, so a hot-only change must leave it flat",
			N:    1100, PT: 1, PS: 1, T1: 2, Steps: 4, Serial: true, ErrGate: 2e-3,
		},
		{
			Name: "daemon_fleet",
			Why:  "closed loop of 2 clients through an in-process nbodyd: resilience forced on, a checkpoint and journal fsync per block, overhead-dominated at N=96",
			N:    96, PT: 2, PS: 2, T1: 0.25, Steps: 8, Fleet: true, Clients: 2, ErrGate: 1e-3,
		},
	}
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// jitterAmplitude is the bench-side position jitter of the sheet
// inputs, relative to the particle spacing h = sqrt(4π/N).
const jitterAmplitude = 1e-3

// input generates the workload's particle system from the seed: the
// deterministic sheet with every position moved by a seeded offset of
// at most jitterAmplitude·h per axis.
func (w Workload) input(seed int64) *nbody.System {
	var sys *nbody.System
	if w.Clustered {
		sys = particle.ClusteredVortexSheet(w.N)
	} else {
		sys = nbody.ScaledVortexSheet(w.N)
	}
	rng := rand.New(rand.NewSource(seed))
	amp := jitterAmplitude * math.Sqrt(4*math.Pi/float64(w.N))
	for i := range sys.Particles {
		p := &sys.Particles[i].Pos
		p.X += amp * (2*rng.Float64() - 1)
		p.Y += amp * (2*rng.Float64() - 1)
		p.Z += amp * (2*rng.Float64() - 1)
	}
	return sys
}

// solved is what one solve returns: the final state, the façade's
// statistics (zero for the serial workload) and the evaluator's own
// counts on the serial path.
type solved struct {
	sys                 *nbody.System
	stats               nbody.SpaceTimeStats
	evals, interactions int64
}

// solve runs the workload's one operation on a copy of sys. mod, when
// non-nil, adjusts the space-time configuration (telemetry, modeled
// clocks); the serial workload has no such knobs and ignores it.
func (w Workload) solve(sys *nbody.System, mod func(*nbody.SpaceTimeConfig)) (solved, error) {
	if w.Serial {
		sim := nbody.NewSimulation(sys.Clone())
		if err := sim.Run(0, w.T1, w.Steps); err != nil {
			return solved{}, err
		}
		st := sim.Solver.Stats()
		return solved{sys: sim.Sys, evals: st.Evaluations, interactions: st.Interactions}, nil
	}
	cfg := nbody.DefaultSpaceTime(w.PT, w.PS)
	if mod != nil {
		mod(&cfg)
	}
	out, stats, err := nbody.RunSpaceTime(cfg, sys, 0, w.T1, w.Steps)
	return solved{sys: out, stats: stats}, err
}

// reference solves the same input with the independent reference:
// the serial Simulation (tree θ = 0.3, SDC(3,4)) for the space-time
// workloads, and direct summation under the same integrator for the
// serial workload itself.
func (w Workload) reference(sys *nbody.System) (*nbody.System, error) {
	sim := nbody.NewSimulation(sys.Clone())
	if w.Serial {
		sim.Solver = nbody.NewDirectSolver()
	}
	if err := sim.Run(0, w.T1, w.Steps); err != nil {
		return nil, err
	}
	return sim.Sys, nil
}

// fleetSpecs returns the four distinct job specs the fleet cycles:
// Gaussian vortex blobs seeded from the run seed, tenants alternating.
// Three run at PS = 1 and the last at PS = 2. The two kinds of job
// differ about threefold in latency, so an even mix would put the
// median in the gap between two modes, where one job more or less on
// either side moves it by half its value; with one job in four at
// PS = 2 the median tracks the PS = 1 resilient loop and p80 the
// grid-resilient one, and both repeat.
func (w Workload) fleetSpecs(seed int64) []*server.JobSpec {
	specs := make([]*server.JobSpec, 4)
	for i := range specs {
		ps := 1
		if i == len(specs)-1 {
			ps = w.PS
		}
		specs[i] = &server.JobSpec{
			Tenant:     fmt.Sprintf("client_%d", i%2),
			System:     server.SystemSpec{Kind: "blob", N: w.N, Seed: seed*4 + int64(i), Sigma: 0.2},
			T0:         0,
			T1:         w.T1,
			Steps:      w.Steps,
			PT:         w.PT,
			PS:         ps,
			MaxRetries: -1,
		}
	}
	return specs
}
