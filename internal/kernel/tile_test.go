package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// sameFloat is the tile contract's equality: identical bits, or NaN
// on both sides (the payload of a NaN is not part of the contract).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameAcc compares two sums component by component under sameFloat.
func sameAcc(a, b *VortexAcc) bool {
	if a.N != b.N || !sameFloat(a.UX, b.UX) || !sameFloat(a.UY, b.UY) || !sameFloat(a.UZ, b.UZ) {
		return false
	}
	for k := range a.G {
		if !sameFloat(a.G[k], b.G[k]) {
			return false
		}
	}
	return true
}

// testItem is one item of a test stream in the form the oracle reads:
// a leaf range [lo, hi) of the source lanes, or (leaf false) a cell
// with centroid c, circulation sum a and, when dip is non-nil, a
// dipole.
type testItem struct {
	leaf   bool
	mask   uint8
	lo, hi int
	c, a   vec.Vec3
	dip    *vec.Mat3
}

// laneOracle runs items on lane l of tile from the lane's current sums,
// by the scalar legs: a leaf is an AccumGradRange with the lane's skip
// made relative to the leaf, a cell is AccumGrad, then DipoleVel, then
// one count.
func laneOracle(b *VortexBatch, tile *GradTile, l int, items []testItem, xs, ys, zs, axs, ays, azs []float64) VortexAcc {
	acc := tile.Lane(l)
	tx, ty, tz := tile.X[l], tile.Y[l], tile.Z[l]
	for _, it := range items {
		if it.mask>>l&1 == 0 {
			continue
		}
		if it.leaf {
			lo, hi := it.lo, it.hi
			b.AccumGradRange(&acc, tx, ty, tz, xs[lo:hi], ys[lo:hi], zs[lo:hi], axs[lo:hi], ays[lo:hi], azs[lo:hi], tile.Skip[l]-lo)
			continue
		}
		rx, ry, rz := tx-it.c.X, ty-it.c.Y, tz-it.c.Z
		b.AccumGrad(&acc, rx, ry, rz, it.a.X, it.a.Y, it.a.Z)
		if it.dip != nil {
			ux, uy, uz := DipoleVel(rx, ry, rz, it.dip)
			acc.UX += ux
			acc.UY += uy
			acc.UZ += uz
		}
		acc.N++
	}
	return acc
}

// runStream appends items to one stream in order, flushing it into
// tile through the body run whenever it is full and once at the end,
// as the tree's tile walk does.
func runStream(b *VortexBatch, run streamFunc, tile *GradTile, items []testItem, xs, ys, zs, axs, ays, azs []float64) {
	var s TileStream
	for _, it := range items {
		if it.leaf {
			s.Leaf(it.mask, it.lo, it.hi)
		} else {
			s.Cell(it.mask, it.c, it.a, it.dip)
		}
		if s.Full() {
			b.accumGradStream(run, tile, &s, xs, ys, zs, axs, ays, azs)
		}
	}
	b.accumGradStream(run, tile, &s, xs, ys, zs, axs, ays, azs)
}

// checkStream asserts, for every body this build and CPU can run, that
// the stream of items leaves every lane of tile with the bits of
// laneOracle, that a lane outside every item's mask keeps its sums and
// count bit for bit, and that the targets and skips are untouched.
func checkStream(t *testing.T, ctx string, b *VortexBatch, tile *GradTile, items []testItem, xs, ys, zs, axs, ays, azs []float64) {
	t.Helper()
	var want [TileWidth]VortexAcc
	var masks uint8
	for l := range TileWidth {
		want[l] = laneOracle(b, tile, l, items, xs, ys, zs, axs, ays, azs)
	}
	for _, it := range items {
		masks |= it.mask
	}
	for _, body := range streamBodies {
		got := *tile
		runStream(b, body.run, &got, items, xs, ys, zs, axs, ays, azs)
		for l := range TileWidth {
			for _, p := range [3][2]float64{{got.X[l], tile.X[l]}, {got.Y[l], tile.Y[l]}, {got.Z[l], tile.Z[l]}} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("%s/%s: the stream changed target %d", ctx, body.name, l)
				}
			}
		}
		if got.Skip != tile.Skip {
			t.Fatalf("%s/%s: the stream changed the skips", ctx, body.name)
		}
		for l := range TileWidth {
			g := got.Lane(l)
			if masks>>l&1 == 0 {
				if !sameBits(&g, &want[l]) {
					t.Fatalf("%s/%s: lane %d outside every mask changed (%d items, %d sources):\n got %+v\nwant %+v", ctx, body.name, l, len(items), len(xs), g, want[l])
				}
				continue
			}
			if !sameAcc(&g, &want[l]) {
				t.Fatalf("%s/%s: lane %d (skip %d, %d items, %d sources):\n got %+v\nwant %+v\nitems %+v", ctx, body.name, l, tile.Skip[l], len(items), len(xs), g, want[l], items)
			}
		}
	}
}

// sameBits compares two sums bit for bit, NaN payloads included.
func sameBits(a, b *VortexAcc) bool {
	fa := append([]float64{a.UX, a.UY, a.UZ}, a.G[:]...)
	fb := append([]float64{b.UX, b.UY, b.UZ}, b.G[:]...)
	for k := range fa {
		if math.Float64bits(fa[k]) != math.Float64bits(fb[k]) {
			return false
		}
	}
	return a.N == b.N
}

// tileTargets fills the targets of a tile at random and sets its
// skips.
func tileTargets(rng *rand.Rand, skips [TileWidth]int) GradTile {
	tile := GradTile{Skip: skips}
	for l := range TileWidth {
		tile.X[l], tile.Y[l], tile.Z[l] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	return tile
}

// seedSums gives every lane non-zero starting sums (any value but −0,
// which a sum starting at +0 never holds) and counts.
func seedSums(rng *rand.Rand, tile *GradTile) {
	for c := range tile.Acc {
		for l := range TileWidth {
			tile.Acc[c][l] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	for l := range TileWidth {
		tile.N[l] = int64(rng.Intn(100))
	}
}

// edgeSources overwrites sources of the range with the edge cases of
// the pair body, each aimed at one target: a coincident source
// (d2 = 0), a denormal offset whose d2 underflows to 0, a separation
// whose d2 is subnormal, one whose d2 overflows, and NaN and Inf in
// positions and circulations.
func edgeSources(rng *rand.Rand, tile *GradTile, xs, ys, zs, axs, ays, azs []float64) {
	n := len(xs)
	if n == 0 {
		return
	}
	tgt := func() int { return rng.Intn(TileWidth) }
	edits := []func(i int){
		func(i int) { l := tgt(); xs[i], ys[i], zs[i] = tile.X[l], tile.Y[l], tile.Z[l] },
		func(i int) {
			l := tgt()
			xs[i], ys[i], zs[i] = tile.X[l]+math.SmallestNonzeroFloat64, tile.Y[l], tile.Z[l]
			axs[i] = math.SmallestNonzeroFloat64
		},
		func(i int) { l := tgt(); xs[i], ys[i], zs[i] = tile.X[l]-1e-160, tile.Y[l]+2e-161, tile.Z[l] },
		func(i int) { xs[i], ys[i], zs[i] = 1e200, -3e200, 2e199 },
		func(i int) { xs[i] = math.NaN() },
		func(i int) { ys[i] = math.Inf(1) },
		func(i int) { ays[i] = math.NaN() },
		func(i int) { azs[i] = math.Inf(-1) },
		func(i int) { axs[i], ays[i], azs[i] = -0.0, math.Copysign(0, -1), 0 },
	}
	for range 1 + rng.Intn(3) {
		edits[rng.Intn(len(edits))](rng.Intn(n))
	}
}

// randomCell draws a cell near the tile's targets with a random
// circulation sum, a dipole unless plain, and, one time in eight, its
// centroid at a target's own position (zero separation: no monopole,
// a non-finite dipole).
func randomCell(rng *rand.Rand, tile *GradTile, mask uint8, plain bool) testItem {
	it := testItem{mask: mask}
	l := rng.Intn(TileWidth)
	it.c = vec.V3(tile.X[l]+2*rng.NormFloat64(), tile.Y[l]+2*rng.NormFloat64(), tile.Z[l]+2*rng.NormFloat64())
	if rng.Intn(8) == 0 {
		it.c = vec.V3(tile.X[l], tile.Y[l], tile.Z[l])
	}
	it.a = vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	if !plain {
		var d vec.Mat3
		for j := range d {
			for k := range d[j] {
				d[j][k] = 0.1 * rng.NormFloat64()
			}
		}
		it.dip = &d
	}
	return it
}

// randomStream draws k items over n source lanes in random order: leaf
// ranges (empty ones, the whole range, and every lane's skip inside
// some of them) and cells with and without a dipole, each under a
// random lane mask.
func randomStream(rng *rand.Rand, tile *GradTile, n, k int) []testItem {
	items := make([]testItem, k)
	for i := range items {
		mask := uint8(rng.Intn(int(AllLanes) + 1))
		if rng.Intn(2) == 0 {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			if rng.Intn(6) == 0 {
				lo, hi = 0, n
			}
			items[i] = testItem{leaf: true, mask: mask, lo: lo, hi: hi}
			continue
		}
		items[i] = randomCell(rng, tile, mask, rng.Intn(3) == 0)
	}
	return items
}

// TestGradTileMatchesRanges sweeps both kernels over one leaf item of
// every source length 0–25 at offsets 0–2 into the source lanes, in
// two passes. The first runs all 256 lane masks — empty, single lanes,
// lane sets that are not a prefix, one half or both halves of the tile,
// full — with every lane's skip at random, from one below the range to
// one past it. The second puts every lane at every absolute skip
// position in that span (the other lanes at random positions, or all
// lanes at the same one) under all sixteen masks of the lane's own
// half of the tile (the half an AVX2 body runs it in), the other
// half's lanes drawn at random, and under the full and the empty mask.
// Both draw edge-case sources
// and non-zero starting sums. The lanes inside the mask are
// AccumGradRange calls, bitwise, and the lanes outside it are
// untouched.
func TestGradTileMatchesRanges(t *testing.T) {
	const half = TileWidth / 2
	rng := rand.New(rand.NewSource(31))
	for _, sm := range allKernels() {
		b := NewVortexBatch(Pairwise{Sm: sm, Sigma: 0.35})
		check := func(n, lo, k int, mask uint8, skips [TileWidth]int) {
			tile := tileTargets(rng, skips)
			xs, ys, zs, axs, ays, azs := randomLanes(rng, lo+n+1, tile.X[0], tile.Y[0], tile.Z[0])
			if k%2 == 0 {
				edgeSources(rng, &tile, xs[lo:lo+n], ys[lo:lo+n], zs[lo:lo+n], axs[lo:lo+n], ays[lo:lo+n], azs[lo:lo+n])
			}
			if k%4 == 1 || mask == 0 {
				seedSums(rng, &tile)
			}
			items := []testItem{{leaf: true, mask: mask, lo: lo, hi: lo + n}}
			checkStream(t, sm.Name(), &b, &tile, items, xs, ys, zs, axs, ays, azs)
		}
		randomSkips := func(n, lo int) (skips [TileWidth]int) {
			for l := range skips {
				skips[l] = lo + rng.Intn(n+2) - 1
			}
			return skips
		}
		for n := 0; n <= 25; n++ {
			lo := n % 3
			for m := range int(AllLanes) + 1 {
				check(n, lo, m, uint8(m), randomSkips(n, lo))
			}
			for lane := range TileWidth {
				own := lane / half * half // first lane of lane's half; the other starts at half-own
				for skip := lo - 1; skip <= lo+n; skip++ {
					masks := []uint8{AllLanes, 0}
					for m := range 1 << half {
						masks = append(masks, uint8(m<<own|rng.Intn(1<<half)<<(half-own)))
					}
					for _, mask := range masks {
						skips := randomSkips(n, lo)
						skips[lane] = skip
						if lane == 0 && skip%3 == 0 {
							for l := range skips {
								skips[l] = skip
							}
						}
						check(n, lo, skip, mask, skips)
					}
				}
			}
		}
	}
}

// TestGradTileSpecialTargets puts NaN and Inf into the targets and the
// starting sums, and shrinks σ until d2·σ⁻² overflows on every pair.
// Every source length 0–9 runs as a leaf item, then a cell with a
// dipole, under every lane mask, so each special lane is checked
// inside the mask and untouched outside it at every n.
func TestGradTileSpecialTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sm := range allKernels() {
		for _, sigma := range []float64{0.35, 1e-160} {
			b := NewVortexBatch(Pairwise{Sm: sm, Sigma: sigma})
			for n := 0; n <= 9; n++ {
				for m := range int(AllLanes) + 1 {
					mask := uint8(m)
					tile := tileTargets(rng, [TileWidth]int{-1, 0, n - 1, n / 2, n, n - 2, -1, 1})
					tile.X[1] = math.NaN()
					tile.Z[2] = math.Inf(1)
					tile.Y[5] = math.Inf(-1)
					tile.X[6] = math.NaN()
					seedSums(rng, &tile)
					tile.Acc[4][3] = math.Inf(-1)
					tile.Acc[7][0] = math.NaN()
					tile.Acc[2][7] = math.Inf(1)
					tile.Acc[9][4] = math.NaN()
					xs, ys, zs, axs, ays, azs := randomLanes(rng, n, tile.X[0], tile.Y[0], tile.Z[0])
					items := []testItem{{leaf: true, mask: mask, hi: n}, randomCell(rng, &tile, mask, false)}
					checkStream(t, sm.Name(), &b, &tile, items, xs, ys, zs, axs, ays, azs)
				}
			}
		}
	}
}

// TestGradStreamMatchesLanes runs random mixed streams of leaf and
// cell items — up to three times the stream's capacity, and exactly
// at it, one under it and one over it, so the walk's flush lands
// mid-run — against the per-lane oracle, bitwise.
func TestGradStreamMatchesLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	counts := []int{0, 1, 2, 5, StreamCap - 1, StreamCap, StreamCap + 1, 2*StreamCap + 7, 3 * StreamCap}
	for _, sm := range allKernels() {
		b := NewVortexBatch(Pairwise{Sm: sm, Sigma: 0.35})
		for _, k := range counts {
			for rep := range 8 {
				n := rng.Intn(30)
				var skips [TileWidth]int
				for l := range skips {
					skips[l] = rng.Intn(n+2) - 1
				}
				tile := tileTargets(rng, skips)
				xs, ys, zs, axs, ays, azs := randomLanes(rng, n, tile.X[0], tile.Y[0], tile.Z[0])
				if rep%2 == 0 {
					edgeSources(rng, &tile, xs, ys, zs, axs, ays, azs)
				}
				if rep%3 == 0 {
					seedSums(rng, &tile)
				}
				checkStream(t, sm.Name(), &b, &tile, randomStream(rng, &tile, n, k), xs, ys, zs, axs, ays, azs)
			}
		}
	}
}

// FuzzGradTile fuzzes the stream contract: source length, the number
// of items (past the stream's capacity, so a run flushes mid-stream),
// leaf and cell items with dipoles under random lane masks, absolute
// per-lane skips, σ, edge-case sources and starting sums.
func FuzzGradTile(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), 0.3, false, false)
	f.Add(int64(2), uint8(7), uint8(9), 1.0, true, false)
	f.Add(int64(3), uint8(25), uint8(StreamCap+3), 0.02, true, true)
	f.Add(int64(4), uint8(9), uint8(StreamCap), 1e-160, false, true)
	f.Add(int64(5), uint8(13), uint8(2*StreamCap+1), 0.35, true, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, itemsRaw uint8, sigmaRaw float64, edges, seeded bool) {
		sigma := sigmaRaw
		if !(sigma > 0 && sigma < 1e300) { // also rejects NaN
			sigma = 0.5
		}
		n := int(nRaw % 26)
		rng := rand.New(rand.NewSource(seed))
		var skips [TileWidth]int
		for l := range skips {
			skips[l] = rng.Intn(n+2) - 1
		}
		tile := tileTargets(rng, skips)
		xs, ys, zs, axs, ays, azs := randomLanes(rng, n, tile.X[0], tile.Y[0], tile.Z[0])
		if edges {
			edgeSources(rng, &tile, xs, ys, zs, axs, ays, azs)
		}
		if seeded {
			seedSums(rng, &tile)
		}
		items := randomStream(rng, &tile, n, int(itemsRaw))
		for _, sm := range allKernels() {
			b := NewVortexBatch(Pairwise{Sm: sm, Sigma: sigma})
			checkStream(t, sm.Name(), &b, &tile, items, xs, ys, zs, axs, ays, azs)
		}
	})
}

// BenchmarkGradTile times one stream call through every body this
// build and CPU can run: one leaf item of 1, 5 or 128 sources — the
// per-call cost of a walk that calls the kernel once per item — and a
// full stream of one-source cells with their dipoles, what a far-heavy
// walk pays per item in one call. Both include the appends; ns/pair is
// per lane-source pair (a cell is one source).
func BenchmarkGradTile(b *testing.B) {
	for _, body := range streamBodies {
		for _, n := range []int{1, 5, 128} {
			b.Run(fmt.Sprintf("%s/leaf=%d", body.name, n), func(b *testing.B) {
				benchStream(b, body.run, n, func(s *TileStream, _ []testItem) { s.Leaf(AllLanes, 0, n) })
			})
		}
		b.Run(fmt.Sprintf("%s/cells=%d", body.name, StreamCap), func(b *testing.B) {
			benchStream(b, body.run, StreamCap, func(s *TileStream, cells []testItem) {
				for i := range cells {
					s.Cell(AllLanes, cells[i].c, cells[i].a, cells[i].dip)
				}
			})
		})
	}
}

// benchStream times one fill and one stream call through the body run
// per iteration, reported per call and per pair.
func benchStream(b *testing.B, run streamFunc, pairs int, fill func(s *TileStream, cells []testItem)) {
	rng := rand.New(rand.NewSource(1))
	vb := NewVortexBatch(Pairwise{Sm: Algebraic6(), Sigma: 0.35})
	tile := tileTargets(rng, [TileWidth]int{-1, 0, -1, 3, -1, 5, 6, -1})
	xs, ys, zs, axs, ays, azs := randomLanes(rng, 128, 0, 0, 0)
	cells := make([]testItem, StreamCap)
	for i := range cells {
		cells[i] = randomCell(rng, &tile, AllLanes, false)
		cells[i].c = cells[i].c.Add(vec.V3(8, 8, 8)) // well separated, as an accepted cell is
	}
	var s TileStream
	b.ResetTimer()
	for range b.N {
		fill(&s, cells)
		vb.accumGradStream(run, &tile, &s, xs, ys, zs, axs, ays, azs)
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns, "ns/call")
	b.ReportMetric(ns/float64(TileWidth*pairs), "ns/pair")
}

// BenchmarkGradRange times the scalar pair body over a leaf-sized
// range of 8 sources, a tile's targets one AccumGradRange each,
// reported per pair.
func BenchmarkGradRange(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vb := NewVortexBatch(Pairwise{Sm: Algebraic6(), Sigma: 0.35})
	tile := tileTargets(rng, [TileWidth]int{-1, 2, -1, 5, 7, -1, 0, -1})
	xs, ys, zs, axs, ays, azs := randomLanes(rng, 8, 0, 0, 0)
	b.ResetTimer()
	for range b.N {
		for l := range TileWidth {
			acc := tile.Lane(l)
			vb.AccumGradRange(&acc, tile.X[l], tile.Y[l], tile.Z[l], xs, ys, zs, axs, ays, azs, tile.Skip[l])
			tile.SetLane(l, &acc)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*TileWidth*len(xs)), "ns/pair")
}
