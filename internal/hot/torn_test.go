package hot

import (
	"errors"
	"testing"

	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/vec"
)

// tornNth tears the nth message (from 0) that world rank 0 sends rank
// 1 in the collectives of one opcode (the low four bits of the
// collective tag: 3 ring Allgather, 4 Alltoall), and records the size
// of the message it tore.
type tornNth struct {
	op, nth int
	seen    *int
	size    *int
}

func (p tornNth) Message(src, dst, tag int, seq uint64, size int) mpi.FaultVerdict {
	if src != 0 || dst != 1 || tag >= 0 || (-tag-1)%16 != p.op {
		return mpi.FaultVerdict{}
	}
	*p.seen++
	if *p.seen-1 != p.nth {
		return mpi.FaultVerdict{}
	}
	*p.size = size
	return mpi.FaultVerdict{Injected: true, CorruptTruncate: true}
}

func (tornNth) CrashAt(rank int, phase string, epoch int) bool { return false }

// TestTornBlocksFailTyped: every decoder of a received block in one
// evaluation on two ranks with the ring exchange, fed a block one byte
// short, must raise the ErrTornPayload comm failure — not drop the torn
// record, and not panic with a string or a slice error. The receiving
// rank revokes the communicator so its peer, by then blocked in the
// next collective, is released.
func TestTornBlocksFailTyped(t *testing.T) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(200))
	// Message order from rank 0 to rank 1 in one evaluation: the
	// sample Allgather, the route Alltoall, the box and branch
	// Allgathers, the prefetch Alltoall, the result Alltoall.
	for _, row := range []struct {
		name    string
		op, nth int
	}{
		{"splitter samples", 3, 0},
		{"route", 4, 0},
		{"box", 3, 1},
		{"branch list", 3, 2},
		{"prefetch frames", 4, 1},
		{"results", 4, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			seen, size := 0, 0
			pol := tornNth{op: row.op, nth: row.nth, seen: &seen, size: &size}
			_, err := mpi.RunOpts(2, mpi.Options{Fault: pol}, func(c *mpi.Comm) (err error) {
				defer func() {
					if p := recover(); p != nil {
						cerr, ok := mpi.AsCommFailure(p)
						if !ok {
							panic(p)
						}
						c.Revoke()
						err = cerr
					}
				}()
				local := BlockPartition(full, c.Rank(), 2)
				vel, str := make([]vec.Vec3, local.N()), make([]vec.Vec3, local.N())
				New(c, ringOf(defaultCfg(0.3))).Eval(local, vel, str)
				return nil
			})
			if size == 0 {
				t.Fatalf("no non-empty message to tear (%d seen)", seen)
			}
			if !errors.Is(err, mpi.ErrTornPayload) {
				t.Fatalf("%d-byte block torn: want an ErrTornPayload comm failure, got %v", size, err)
			}
		})
	}
}
