package viz

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/particle"
	"repro/internal/vec"
)

func TestWriteVTKStructure(t *testing.T) {
	sys := particle.RandomVortexBlob(5, 0.3, 1)
	vel := make([]vec.Vec3, 5)
	for i := range vel {
		vel[i] = vec.V3(float64(i), 0, 0)
	}
	var buf bytes.Buffer
	if err := WriteVTK(&buf, sys, vel); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0", "DATASET POLYDATA",
		"POINTS 5 double", "VERTICES 5 10",
		"SCALARS alpha_mag double 1", "SCALARS speed double 1",
		"VECTORS velocity double",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in VTK output", want)
		}
	}
	if n := strings.Count(out, "\n"); n < 5*4 {
		t.Fatalf("suspiciously short VTK file: %d lines", n)
	}
}

func TestWriteVTKWithoutVelocity(t *testing.T) {
	sys := particle.RandomVortexBlob(3, 0.3, 2)
	var buf bytes.Buffer
	if err := WriteVTK(&buf, sys, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "velocity") {
		t.Fatal("velocity field written without velocities")
	}
}

func TestWriteVTKLengthMismatch(t *testing.T) {
	sys := particle.RandomVortexBlob(3, 0.3, 3)
	if err := WriteVTK(&bytes.Buffer{}, sys, make([]vec.Vec3, 2)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestSnapshotSeries(t *testing.T) {
	dir := t.TempDir()
	s := SnapshotSeries{Dir: dir, Prefix: "sheet"}
	sys := particle.RandomVortexBlob(3, 0.3, 5)
	p0, err := s.Write(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s.Write(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(p0, "sheet_0000.vtk") || !strings.HasSuffix(p1, "sheet_0001.vtk") {
		t.Fatalf("paths %q %q", p0, p1)
	}
	if _, err := os.Stat(p1); err != nil {
		t.Fatal(err)
	}
}
