package hot

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// mortonOrdered returns a copy of sys with its particles permuted into
// the Morton order of their global domain (stable on equal keys), so
// that BlockPartition hands each rank nearly the key range it owns
// after the decomposition.
func mortonOrdered(sys *particle.System) *particle.System {
	lo, hi := sys.Bounds()
	dom := tree.NewDomain(lo, hi)
	out := &particle.System{Sigma: sys.Sigma, Particles: slices.Clone(sys.Particles)}
	slices.SortStableFunc(out.Particles, func(a, b particle.Particle) int {
		return cmp.Compare(dom.Key(a.Pos), dom.Key(b.Pos))
	})
	return out
}

// TestOwnShareIsCopiedNotEncoded pins the path a rank's own share
// takes. The input is a blob in Morton order, so ≥ 90 % of the
// particles stay on the rank they start on. After a warm evaluation
// the own route block and the own result block must be empty: the own
// share is copied into the local system and its results are written
// by index, never encoded. The vel/stretch hash of each row pins the
// outputs; the values were taken before the own share stopped being
// encoded, so the copied path gives the bits the encoded one gave.
// amd64 only: arm64 fuses multiply-add.
func TestOwnShareIsCopiedNotEncoded(t *testing.T) {
	full := mortonOrdered(particle.RandomVortexBlob(900, 0.3, 61))
	for _, row := range []struct {
		p        int
		weighted bool
		want     uint64
	}{
		{1, false, 0xbb8d09ab73d623b5},
		{2, false, 0x22237bb610808f8b},
		{3, false, 0xda0a525b2c61baaf},
		{3, true, 0x67211ba6555a000b},
	} {
		t.Run(fmt.Sprintf("p=%d weighted=%v", row.p, row.weighted), func(t *testing.T) {
			cfg := defaultCfg(0.4)
			cfg.WeightedBalance = row.weighted
			vel := make([]vec.Vec3, full.N())
			str := make([]vec.Vec3, full.N())
			kept, routed := make([]int, row.p), make([]int, row.p)
			err := mpi.Run(row.p, func(c *mpi.Comm) error {
				local := BlockPartition(full, c.Rank(), row.p)
				lv := make([]vec.Vec3, local.N())
				ls := make([]vec.Vec3, local.N())
				s := New(c, cfg)
				for range 3 { // the later evaluations are warm, and weighted when asked
					s.Eval(local, lv, ls)
				}
				me := c.Rank()
				if n := len(s.arena.route[me]); n != 0 {
					return fmt.Errorf("rank %d: own route block holds %d bytes", me, n)
				}
				if n := len(s.arena.results[me]); n != 0 {
					return fmt.Errorf("rank %d: own result block holds %d bytes", me, n)
				}
				kept[me], routed[me] = s.Last.Kept, s.Last.Routed
				lo, _ := BlockRange(full.N(), me, row.p)
				copy(vel[lo:], lv)
				copy(str[lo:], ls)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			k, r := 0, 0
			for i := range kept {
				k += kept[i]
				r += routed[i]
			}
			if k+r != full.N() {
				t.Fatalf("kept %d + routed %d particles, want %d", k, r, full.N())
			}
			if share := float64(k) / float64(full.N()); share < 0.9 {
				t.Fatalf("own share %.3f < 0.9: the case does not exercise the copied path", share)
			}
			h := fnv.New64a()
			var b [8]byte
			for i := range vel {
				for _, v := range [6]float64{vel[i].X, vel[i].Y, vel[i].Z, str[i].X, str[i].Y, str[i].Z} {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			if got := h.Sum64(); runtime.GOARCH == "amd64" && got != row.want {
				t.Fatalf("vel/stretch hash %#x, want %#x", got, row.want)
			}
		})
	}
}
