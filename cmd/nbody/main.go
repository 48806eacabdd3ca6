// Command nbody runs vortex particle simulations with the library's
// solvers and integrators.
//
// Examples:
//
//	nbody -n 2000 -t1 10 -steps 10                 # tree + SDC(4)
//	nbody -n 2000 -integrator rk2 -solver direct   # Fig. 1 style
//	nbody -n 1024 -spacetime 4x2 -steps 4          # PFASST space-time
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	nbody "repro"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nbody: ")

	var (
		n          = flag.Int("n", 2000, "number of particles")
		setup      = flag.String("setup", "scaled-sheet", "initial condition: sheet | scaled-sheet | blob")
		solver     = flag.String("solver", "tree", "spatial solver: tree | direct")
		theta      = flag.Float64("theta", 0.3, "tree MAC parameter (with -spacetime: the fine level's)")
		integrator = flag.String("integrator", "sdc", "time integrator: rk1..rk4 | sdc")
		sweeps     = flag.Int("sweeps", 4, "SDC sweeps per step")
		t1         = flag.Float64("t1", 5, "final time")
		steps      = flag.Int("steps", 10, "number of time steps")
		spacetime  = flag.String("spacetime", "", "run space-time parallel as PTxPS (e.g. 4x2)")
		modeled    = flag.Bool("modeled", false, "report modeled Blue Gene/P wall-clock")
		vtkDir     = flag.String("vtk", "", "write a VTK snapshot per step into this directory")
		checkpoint = flag.String("checkpoint", "", "write the final state to this file")
	)
	flag.Parse()
	if *spacetime != "" {
		// The space-time run has its own solver (the parallel tree at
		// -theta) and integrator (PFASST); these flags would be ignored.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "solver", "integrator", "sweeps", "vtk":
				fmt.Fprintf(os.Stderr, "nbody: -%s cannot be combined with -spacetime\n", f.Name)
				flag.Usage()
				os.Exit(2)
			}
		})
	}

	var sys *nbody.System
	switch *setup {
	case "sheet":
		sys = nbody.VortexSheet(*n)
	case "scaled-sheet":
		sys = nbody.ScaledVortexSheet(*n)
	case "blob":
		sys = nbody.RandomBlob(*n, 0.3, 1)
	default:
		log.Fatalf("unknown setup %q", *setup)
	}

	d0 := nbody.Diagnose(sys)
	fmt.Printf("initial: N=%d sigma=%.4f impulse=(%.3g, %.3g, %.3g)\n",
		sys.N(), sys.Sigma, d0.LinearImpulse.X, d0.LinearImpulse.Y, d0.LinearImpulse.Z)

	if *spacetime != "" {
		var pt, ps int
		if _, err := fmt.Sscanf(strings.ToLower(*spacetime), "%dx%d", &pt, &ps); err != nil {
			log.Fatalf("bad -spacetime %q (want PTxPS)", *spacetime)
		}
		cfg := nbody.DefaultSpaceTime(pt, ps)
		cfg.ThetaFine = *theta
		cfg.Modeled = *modeled
		out, stats, err := nbody.RunSpaceTime(cfg, sys, 0, *t1, *steps)
		if err != nil {
			log.Fatal(err)
		}
		d := nbody.Diagnose(out)
		fmt.Printf("space-time PT=%d PS=%d: z-centroid %.4f -> %.4f, residual %.2e\n",
			pt, ps, d0.Centroid.Z, d.Centroid.Z, stats.LastSliceResidual)
		if *modeled {
			fmt.Printf("modeled BG/P wall-clock: %.3f s\n", stats.ModeledSeconds)
		}
		writeCheckpoint(*checkpoint, out)
		return
	}

	sim := nbody.NewSimulation(sys)
	switch *solver {
	case "tree":
		sim.Solver = nbody.NewTreeSolver(*theta)
	case "direct":
		sim.Solver = nbody.NewDirectSolver()
	default:
		log.Fatalf("unknown solver %q", *solver)
	}
	switch *integrator {
	case "sdc":
		sim.Integrator = nbody.SDC(3, *sweeps)
	case "rk1", "rk2", "rk3", "rk4":
		sim.Integrator = nbody.RK(int((*integrator)[2] - '0'))
	default:
		log.Fatalf("unknown integrator %q", *integrator)
	}
	var series *viz.SnapshotSeries
	if *vtkDir != "" {
		if err := os.MkdirAll(*vtkDir, 0o755); err != nil {
			log.Fatal(err)
		}
		series = &viz.SnapshotSeries{Dir: *vtkDir, Prefix: "snap"}
		if _, err := series.Write(sys, nil); err != nil {
			log.Fatal(err)
		}
	}
	sim.OnStep = func(t float64, s *nbody.System) {
		d := nbody.Diagnose(s)
		fmt.Printf("t=%6.2f  z-centroid=%+.4f  z-range=[%+.3f,%+.3f]  max|a|=%.3e\n",
			t, d.Centroid.Z, d.ZMin, d.ZMax, d.MaxAlpha)
		if series != nil {
			if _, err := series.Write(s, nil); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := sim.Run(0, *t1, *steps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	writeCheckpoint(*checkpoint, sys)
}

// writeCheckpoint saves the final state to path, when one is given.
func writeCheckpoint(path string, sys *nbody.System) {
	if path == "" {
		return
	}
	if err := nbody.SaveCheckpoint(path, sys); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint written to %s\n", path)
}
