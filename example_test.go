package nbody_test

import (
	"fmt"

	nbody "repro"
)

// The minimal end-to-end simulation: build the paper's model problem,
// attach the Barnes-Hut solver and SDC(4), and advance it.
func ExampleSimulation() {
	sys := nbody.ScaledVortexSheet(500)
	sim := nbody.NewSimulation(sys) // tree θ=0.3, SDC(4)
	if err := sim.Run(0, 2, 2); err != nil {
		panic(err)
	}
	d := nbody.Diagnose(sys)
	fmt.Printf("sheet descended: %v\n", d.Centroid.Z < -0.05)
	fmt.Printf("impulse magnitude ≈ 0.5: %v\n",
		d.LinearImpulse.Z > -0.51 && d.LinearImpulse.Z < -0.49)
	// Output:
	// sheet descended: true
	// impulse magnitude ≈ 0.5: true
}

// Space-time parallelism: PFASST(2,2,PT) over parallel trees, verified
// against the size of the input.
func ExampleRunSpaceTime() {
	sys := nbody.ScaledVortexSheet(128)
	cfg := nbody.DefaultSpaceTime(2, 2) // PT=2 time slices × PS=2 ranks
	out, stats, err := nbody.RunSpaceTime(cfg, sys, 0, 1, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("particles: %d\n", out.N())
	fmt.Printf("converging: %v\n", stats.LastSliceResidual < 1e-2)
	// Output:
	// particles: 128
	// converging: true
}
