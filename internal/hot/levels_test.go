package hot

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// swirled returns a copy of sys with every particle moved by a swirl of
// strength k (k = 0 is sys itself): the states a level evaluates at
// successive collocation nodes.
func swirled(sys *particle.System, k int) *particle.System {
	out := sys.Clone()
	s := 0.02 * float64(k)
	for i := range out.Particles {
		p := &out.Particles[i]
		p.Pos = p.Pos.Add(vec.V3(p.Pos.Y, -p.Pos.X, 0.5*p.Pos.Z).Scale(s))
	}
	return out
}

// TestLevelsShareArenaBitwise: the coarse level of a space-time
// hierarchy is the fine solver with a larger θ (WithTheta), evaluating
// in the fine solver's arena. Taking turns on one arena must be
// invisible. Each rank runs the pattern of a PFASST block — coarse
// (θ = 0.6) evaluations, then fine (θ = 0.3) ones, interleaved, each on
// another state — once on two solvers that share an arena and once on
// two with arenas of their own, and every evaluation must give the same
// bits and work counters. The Coulomb rows cover the arena's potential
// and field outputs. The weighted row checks that each level keeps its
// own work-weight history, which places its next splitters: a level
// decomposing by its sibling's interaction counts fails it.
func TestLevelsShareArenaBitwise(t *testing.T) {
	base := skewedCloud(360, 67)
	for i := range base.Particles {
		base.Particles[i].Charge = 1 - 2*float64(i%2)
	}
	states := make([]*particle.System, 4)
	for k := range states {
		states[k] = swirled(base, k)
	}
	pattern := []struct {
		coarse bool
		state  int
	}{
		{true, 0}, {true, 1}, {false, 0}, {false, 1}, {false, 2},
		{true, 2}, {true, 3}, {false, 3}, {true, 0}, {false, 1},
	}
	type row struct {
		p        int
		disc     tree.Discipline
		weighted bool
	}
	var rows []row
	for _, p := range []int{1, 2, 3} {
		for _, disc := range []tree.Discipline{tree.Vortex, tree.Coulomb} {
			rows = append(rows, row{p, disc, false})
		}
	}
	rows = append(rows, row{3, tree.Vortex, true})
	for _, r := range rows {
		name := fmt.Sprintf("p=%d disc=%d weighted=%v", r.p, r.disc, r.weighted)
		err := mpi.Run(r.p, func(c *mpi.Comm) error {
			cfg := defaultCfg(0.3)
			cfg.Eps = 0.01
			cfg.WeightedBalance = r.weighted
			fine := New(c, cfg)
			coarse := fine.WithTheta(0.6)
			coarseCfg := cfg
			coarseCfg.Theta = 0.6
			ownFine, ownCoarse := New(c, cfg), New(c, coarseCfg)
			if fine.arena != coarse.arena || ownFine.arena == ownCoarse.arena || coarse.cfg.Theta != 0.6 {
				return fmt.Errorf("rank %d: the solvers are not set up as the row needs", c.Rank())
			}
			prefetched := int64(0)
			for k, step := range pattern {
				shared, own := fine, ownFine
				if step.coarse {
					shared, own = coarse, ownCoarse
				}
				got := evalOutput(shared, c, states[step.state], r.disc)
				want := evalOutput(own, c, states[step.state], r.disc)
				if err := sameOutput(got, want); err != nil {
					return fmt.Errorf("rank %d, evaluation %d (θ = %g): shared arena differs from own arenas: %w",
						c.Rank(), k, shared.cfg.Theta, err)
				}
				prefetched += got.st.Prefetched
			}
			if r.p > 1 && prefetched == 0 {
				return fmt.Errorf("rank %d: nothing prefetched: the case does not exercise remote cells", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
