// Package viz writes particle snapshots for visualization: legacy VTK
// polydata (readable by ParaView/VisIt, the kind of tooling behind the
// paper's Fig. 1 renderings). Particle size and color in Fig. 1 encode
// the velocity magnitude, so the writer attaches both the circulation
// magnitude and, when provided, the velocity field.
package viz

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/particle"
	"repro/internal/vec"
)

// WriteVTK writes the system as legacy-VTK polydata with point data
// fields "alpha_mag" (|α|) and, when vel is non-nil, "velocity" and
// "speed". vel must then have one entry per particle.
func WriteVTK(w io.Writer, sys *particle.System, vel []vec.Vec3) error {
	if vel != nil && len(vel) != sys.N() {
		return fmt.Errorf("viz: %d velocities for %d particles", len(vel), sys.N())
	}
	bw := bufio.NewWriter(w)
	n := sys.N()
	fmt.Fprintf(bw, "# vtk DataFile Version 3.0\n")
	fmt.Fprintf(bw, "nbody particle snapshot (N=%d, sigma=%g)\n", n, sys.Sigma)
	fmt.Fprintf(bw, "ASCII\nDATASET POLYDATA\nPOINTS %d double\n", n)
	for _, p := range sys.Particles {
		fmt.Fprintf(bw, "%.10g %.10g %.10g\n", p.Pos.X, p.Pos.Y, p.Pos.Z)
	}
	fmt.Fprintf(bw, "VERTICES %d %d\n", n, 2*n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(bw, "1 %d\n", i)
	}
	fmt.Fprintf(bw, "POINT_DATA %d\n", n)
	fmt.Fprintf(bw, "SCALARS alpha_mag double 1\nLOOKUP_TABLE default\n")
	for _, p := range sys.Particles {
		fmt.Fprintf(bw, "%.10g\n", p.Alpha.Norm())
	}
	if vel != nil {
		fmt.Fprintf(bw, "SCALARS speed double 1\nLOOKUP_TABLE default\n")
		for _, v := range vel {
			fmt.Fprintf(bw, "%.10g\n", v.Norm())
		}
		fmt.Fprintf(bw, "VECTORS velocity double\n")
		for _, v := range vel {
			fmt.Fprintf(bw, "%.10g %.10g %.10g\n", v.X, v.Y, v.Z)
		}
	}
	return bw.Flush()
}

// SnapshotSeries numbers and writes VTK snapshots (quickstart for
// assembling a Fig. 1-style animation).
type SnapshotSeries struct {
	// Dir and Prefix form the file names Dir/Prefix_NNNN.vtk.
	Dir, Prefix string
	count       int
}

// Write stores the next snapshot and returns its path.
func (s *SnapshotSeries) Write(sys *particle.System, vel []vec.Vec3) (string, error) {
	path := fmt.Sprintf("%s/%s_%04d.vtk", s.Dir, s.Prefix, s.count)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("viz: %w", err)
	}
	if err := WriteVTK(f, sys, vel); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("viz: %w", err)
	}
	s.count++
	return path, nil
}
