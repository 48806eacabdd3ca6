package kernel

// TileWidth is the number of targets one AccumGradTile call evaluates:
// the four float64 lanes of an AVX2 register.
const TileWidth = 4

// GradTile is the running sum of TileWidth targets in tile layout:
// component c of target l at Acc[c][l], the components in VortexAcc
// order (UX, UY, UZ, G[0..8]), and target l's interaction count at
// N[l]. X, Y, Z hold the targets' positions and Skip[l] is target l's
// skip index into the source range of the next AccumGradTile call
// (negative: none). Lanes are independent. Mask selects the lanes the
// next AccumGradTile call advances (bit l: lane l, AllLanes: every
// lane); the sums and counts of the lanes outside it stay as they are,
// so a caller with fewer than TileWidth targets, or one whose targets
// take different paths through a tree, clears their bits instead of
// copying lanes in and out.
type GradTile struct {
	X, Y, Z [TileWidth]float64
	Skip    [TileWidth]int
	Mask    uint8
	Acc     [12][TileWidth]float64
	N       [TileWidth]int64
}

// AllLanes is the GradTile.Mask of a full tile.
const AllLanes uint8 = 1<<TileWidth - 1

// Reset zeroes the sums of every lane, keeping targets and skips.
func (t *GradTile) Reset() {
	t.Acc = [12][TileWidth]float64{}
	t.N = [TileWidth]int64{}
}

// Lane returns target l's sums.
func (t *GradTile) Lane(l int) VortexAcc {
	var acc VortexAcc
	t.loadLane(l, &acc)
	return acc
}

// loadLane copies target l's sums into acc.
func (t *GradTile) loadLane(l int, acc *VortexAcc) {
	a := &t.Acc
	acc.UX, acc.UY, acc.UZ = a[0][l], a[1][l], a[2][l]
	for k := range acc.G {
		acc.G[k] = a[3+k][l]
	}
	acc.N = t.N[l]
}

// SetLane stores acc as target l's sums.
func (t *GradTile) SetLane(l int, acc *VortexAcc) {
	a := &t.Acc
	a[0][l], a[1][l], a[2][l] = acc.UX, acc.UY, acc.UZ
	for k, g := range acc.G {
		a[3+k][l] = g
	}
	t.N[l] = acc.N
}

// AccumGradTile is AccumGradRange for the targets of t at once, lane
// l with its own skip t.Skip[l]. The lane slices must have equal
// length. Every lane inside t.Mask gets the bits of
//
//	acc := t.Lane(l)
//	b.AccumGradRange(&acc, t.X[l], t.Y[l], t.Z[l], xs, ys, zs, axs, ays, azs, t.Skip[l])
//	t.SetLane(l, &acc)
//
// which is what it runs under the purego build tag, on other GOARCHes
// and on amd64 CPUs without AVX2; every lane outside it keeps its sums
// and count. On AVX2 an assembly loop runs the same operations in the
// same order four lanes wide (pairgrad_amd64.s), with one exception
// outside every caller's reach: a sum holding −0 becomes +0 where its
// lane skips a source or lies outside the mask, and a sum that starts
// at +0 never holds −0. NaN results are NaN on both paths; their
// payload bits may differ.
func (b *VortexBatch) AccumGradTile(t *GradTile, xs, ys, zs, axs, ays, azs []float64) {
	n := len(xs)
	ys, zs, axs, ays, azs = ys[:n], zs[:n], axs[:n], ays[:n], azs[:n]
	if n == 0 || t.Mask&AllLanes == 0 {
		return
	}
	if tileAsm != nil {
		tileAsm(b, t, xs, ys, zs, axs, ays, azs)
		return
	}
	b.gradTileGo(t, xs, ys, zs, axs, ays, azs)
}

// tileAsm is the assembly tile loop, installed at start-up by the
// amd64 build when the CPU has AVX2 (pairgrad_amd64.go); nil runs the
// Go definition. A tagged init rather than a tagged pair of functions
// keeps the package type-checking under tools that ignore build
// constraints.
var tileAsm func(b *VortexBatch, t *GradTile, xs, ys, zs, axs, ays, azs []float64)

// gradTileGo is the definition of AccumGradTile: one AccumGradRange
// per lane inside the mask.
func (b *VortexBatch) gradTileGo(t *GradTile, xs, ys, zs, axs, ays, azs []float64) {
	var acc VortexAcc
	for l := range TileWidth {
		if t.Mask>>l&1 == 0 {
			continue
		}
		t.loadLane(l, &acc)
		b.AccumGradRange(&acc, t.X[l], t.Y[l], t.Z[l], xs, ys, zs, axs, ays, azs, t.Skip[l])
		t.SetLane(l, &acc)
	}
}
