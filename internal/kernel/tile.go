package kernel

import (
	"math"

	"repro/internal/vec"
)

// TileWidth is the number of targets one AccumGradStream call
// evaluates: the eight float64 lanes of an AVX-512 register, or two
// AVX2 registers run one after the other.
const TileWidth = 8

// GradTile is the running sum of TileWidth targets in tile layout:
// component c of target l at Acc[c][l], the components in VortexAcc
// order (UX, UY, UZ, G[0..8]), and target l's interaction count at
// N[l]. X, Y, Z hold the targets' positions and Skip[l] is the
// absolute index of the source lane target l skips in every leaf item
// (a value outside an item's range skips nothing there). Lanes are
// independent.
type GradTile struct {
	X, Y, Z [TileWidth]float64
	Skip    [TileWidth]int
	Acc     [12][TileWidth]float64
	N       [TileWidth]int64
}

// AllLanes is the lane mask of a full tile: bit l selects lane l.
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

// StreamCap is the number of items a TileStream holds: 4.6 KB at 144
// bytes an item, held inline by every walk. A flush costs one call, so
// past a few dozen items a larger stream buys nothing measurable and
// only grows each solver's walk state.
const StreamCap = 32

// The kinds of a tile item.
const (
	itemLeaf       = iota // the source lanes [lo, hi)
	itemCell              // an accepted cell's monopole
	itemCellDipole        // an accepted cell's monopole, then its dipole
)

// tileItem is one entry of a TileStream: the lanes of mask take a leaf
// range of source lanes, or an accepted cell — centroid (x, y, z),
// circulation sum (ax, ay, az) and, for itemCellDipole, dipole tensor d.
type tileItem struct {
	kind, mask uint8
	lo, hi     int
	x, y, z    float64
	ax, ay, az float64
	d          vec.Mat3
}

// TileStream is a run of up to StreamCap items for AccumGradStream, in
// the order each lane must see them. A walk appends its leaves and
// accepted cells as it meets them and flushes when the stream is Full
// and once at the end of its tile.
type TileStream struct {
	items [StreamCap]tileItem
	n     int
	hi    int // the largest hi of a leaf item: the source lanes the run reads
}

// Full reports whether the stream has no room for another item.
func (s *TileStream) Full() bool { return s.n == StreamCap }

// Leaf appends the source lanes [lo, hi) for the lanes of mask. The
// stream must not be Full.
func (s *TileStream) Leaf(mask uint8, lo, hi int) {
	if lo < 0 || hi < lo {
		panic("kernel: a leaf item with a negative or reversed range")
	}
	it := &s.items[s.n]
	it.kind, it.mask, it.lo, it.hi = itemLeaf, mask, lo, hi
	s.hi = max(s.hi, hi)
	s.n++
}

// Cell appends an accepted cell for the lanes of mask: its monopole —
// centroid c, circulation sum alpha — then, when dip is non-nil, the
// dipole correction DipoleVel(r, dip) to the velocity. The stream must
// not be Full.
func (s *TileStream) Cell(mask uint8, c, alpha vec.Vec3, dip *vec.Mat3) {
	it := &s.items[s.n]
	it.kind, it.mask = itemCell, mask
	it.x, it.y, it.z = c.X, c.Y, c.Z
	it.ax, it.ay, it.az = alpha.X, alpha.Y, alpha.Z
	if dip != nil {
		it.kind, it.d = itemCellDipole, *dip
	}
	s.n++
}

// AccumGradStream adds the items of s to the lanes of t in stream
// order and empties s. The lane slices must have equal length and hold
// every leaf item's range. For every lane l inside an item's mask, a
// leaf item [lo, hi) adds the bits of
//
//	b.AccumGradRange(&acc, t.X[l], t.Y[l], t.Z[l], xs[lo:hi], …, azs[lo:hi], t.Skip[l]-lo)
//
// and a cell item those of
//
//	r := (t.X[l]-c.X, t.Y[l]-c.Y, t.Z[l]-c.Z)
//	b.AccumGrad(&acc, r, alpha)
//	acc.U += DipoleVel(r, dip) // itemCellDipole only
//	acc.N++
//
// which is what runs under the purego build tag, on other GOARCHes and
// on amd64 CPUs without AVX2; a lane outside an item's mask keeps its
// sums and count through that item. On amd64 an assembly loop runs the
// same operations in the same order (pairgrad_amd64.s): eight lanes
// wide where the CPU has AVX-512, else four lanes wide on each half of
// the tile in turn. NaN results are NaN on every body; their payload
// bits may differ. The AVX2 body has one more exception, outside every
// caller's reach: a sum holding −0 becomes +0 where its lane skips a
// source or lies outside an item's mask, and a sum that starts at +0
// never holds −0. The AVX-512 body leaves such a lane's sums as they
// are, as the Go body does.
func (b *VortexBatch) AccumGradStream(t *GradTile, s *TileStream, xs, ys, zs, axs, ays, azs []float64) {
	b.accumGradStream(streamBodies[0].run, t, s, xs, ys, zs, axs, ays, azs)
}

// accumGradStream is AccumGradStream through the body run.
func (b *VortexBatch) accumGradStream(run streamFunc, t *GradTile, s *TileStream, xs, ys, zs, axs, ays, azs []float64) {
	n := len(xs)
	ys, zs, axs, ays, azs = ys[:n], zs[:n], axs[:n], ays[:n], azs[:n]
	if s.hi > n {
		panic("kernel: a leaf item reaches past the source lanes")
	}
	items := s.items[:s.n]
	s.n, s.hi = 0, 0
	if len(items) == 0 {
		return
	}
	run(b, t, items, xs, ys, zs, axs, ays, azs)
}

// streamFunc is a body of AccumGradStream: it adds items, in order, to
// the lanes of t, given lane slices of equal length that hold every
// leaf item's range.
type streamFunc func(b *VortexBatch, t *GradTile, items []tileItem, xs, ys, zs, axs, ays, azs []float64)

// streamBody is a named body of AccumGradStream.
type streamBody struct {
	name string
	run  streamFunc
}

// streamBodies are the bodies this build and CPU can run, the one
// AccumGradStream runs first. The Go definition is always last; the
// amd64 build puts the assembly bodies the CPU offers in front of it
// at start-up (pairgrad_amd64.go). The tests run every entry. A tagged
// init rather than a tagged pair of declarations keeps the package
// type-checking under tools that ignore build constraints.
var streamBodies = []streamBody{{"go", (*VortexBatch).gradStreamGo}}

// gradStreamGo is the definition of AccumGradStream. Lanes are
// independent, so it runs the items lane by lane, each lane's in
// stream order.
func (b *VortexBatch) gradStreamGo(t *GradTile, items []tileItem, xs, ys, zs, axs, ays, azs []float64) {
	var acc VortexAcc
	for l := range TileWidth {
		t.loadLane(l, &acc)
		tx, ty, tz := t.X[l], t.Y[l], t.Z[l]
		for i := range items {
			it := &items[i]
			if it.mask>>l&1 == 0 {
				continue
			}
			if it.kind == itemLeaf {
				lo, hi := it.lo, it.hi
				b.AccumGradRange(&acc, tx, ty, tz, xs[lo:hi], ys[lo:hi], zs[lo:hi], axs[lo:hi], ays[lo:hi], azs[lo:hi], t.Skip[l]-lo)
				continue
			}
			rx, ry, rz := tx-it.x, ty-it.y, tz-it.z
			b.AccumGrad(&acc, rx, ry, rz, it.ax, it.ay, it.az)
			if it.kind == itemCellDipole {
				ux, uy, uz := DipoleVel(rx, ry, rz, &it.d)
				acc.UX += ux
				acc.UY += uy
				acc.UZ += uz
			}
			acc.N++
		}
		t.SetLane(l, &acc)
	}
}

// DipoleVel is the dipole correction of an accepted cell's velocity at
// separation r = target − centroid: the first-order term of the
// multipole expansion of the Biot-Savart kernel around the cell
// centroid, for dipole tensor dip = Σ (x_p − centroid) ⊗ α_p. It always
// uses the singular (q = 1) kernel and has no zero-separation guard:
// accepted cells are well separated (|r| > 0). One reciprocal of |r|
// gives both powers.
func DipoleVel(rx, ry, rz float64, dip *vec.Mat3) (ux, uy, uz float64) {
	inv := 1 / math.Sqrt(rx*rx+ry*ry+rz*rz)
	inv2 := inv * inv
	tf := inv2 * inv // 1/|r|³
	// w_k = Σ_j r_j D_{jk}
	wx := dip[0][0]*rx + dip[1][0]*ry + dip[2][0]*rz
	wy := dip[0][1]*rx + dip[1][1]*ry + dip[2][1]*rz
	wz := dip[0][2]*rx + dip[1][2]*ry + dip[2][2]*rz
	// C = Σ d_p × α_p (antisymmetric part of D)
	cx := dip[1][2] - dip[2][1]
	cy := dip[2][0] - dip[0][2]
	cz := dip[0][1] - dip[1][0]
	s := 3 * tf * inv2 // 3/|r|⁵
	ux = s * (ry*wz - rz*wy)
	uy = s * (rz*wx - rx*wz)
	uz = s * (rx*wy - ry*wx)
	ux = ux - tf*cx
	uy = uy - tf*cy
	uz = uz - tf*cz
	return dipoleK * ux, dipoleK * uy, dipoleK * uz
}

// dipoleK is DipoleVel's prefactor −1/4π.
const dipoleK = -1 / (4 * math.Pi)
