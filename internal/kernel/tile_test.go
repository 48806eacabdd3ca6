package kernel

import (
	"math"
	"math/rand"
	"testing"
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

// checkTileContract asserts that every lane inside the tile's mask
// equals an AccumGradRange call from the lane's starting sums, bit for
// bit, and that every lane outside it keeps its sums and count.
func checkTileContract(t *testing.T, ctx string, b *VortexBatch, tile *GradTile, xs, ys, zs, axs, ays, azs []float64) {
	t.Helper()
	var want [TileWidth]VortexAcc
	for l := range TileWidth {
		want[l] = tile.Lane(l)
		if tile.Mask>>l&1 != 0 {
			b.AccumGradRange(&want[l], tile.X[l], tile.Y[l], tile.Z[l], xs, ys, zs, axs, ays, azs, tile.Skip[l])
		}
	}
	got := *tile
	b.AccumGradTile(&got, xs, ys, zs, axs, ays, azs)
	for l := range TileWidth {
		for _, p := range [3][2]float64{{got.X[l], tile.X[l]}, {got.Y[l], tile.Y[l]}, {got.Z[l], tile.Z[l]}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("%s: the tile changed target %d", ctx, l)
			}
		}
	}
	if got.Skip != tile.Skip || got.Mask != tile.Mask {
		t.Fatalf("%s: the tile changed its skips or its mask", ctx)
	}
	for l := range TileWidth {
		g := got.Lane(l)
		if tile.Mask>>l&1 == 0 {
			if !sameBits(&g, &want[l]) {
				t.Fatalf("%s: lane %d outside mask %04b changed (n=%d):\n got %+v\nwant %+v", ctx, l, tile.Mask, len(xs), g, want[l])
			}
			continue
		}
		if !sameAcc(&g, &want[l]) {
			t.Fatalf("%s: lane %d of mask %04b (skip %d, n=%d):\n got %+v\nwant %+v", ctx, l, tile.Mask, tile.Skip[l], len(xs), g, want[l])
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

// tileTargets fills the four targets of a tile at random and sets its
// mask and skips.
func tileTargets(rng *rand.Rand, mask uint8, skips [TileWidth]int) GradTile {
	tile := GradTile{Mask: mask, Skip: skips}
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

// TestGradTileMatchesRanges sweeps both kernels over every source
// length 0–25, every lane mask — empty, single lanes, lane sets that
// are not a prefix, full — and every skip position of every lane (the
// other lanes at random positions, and all lanes at the same one),
// with edge-case sources and non-zero starting sums: the lanes inside
// the mask are AccumGradRange calls, bitwise, and the lanes outside it
// are untouched.
func TestGradTileMatchesRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sm := range allKernels() {
		b := NewVortexBatch(Pairwise{Sm: sm, Sigma: 0.35})
		for n := 0; n <= 25; n++ {
			for mask := range AllLanes + 1 {
				for lane := range TileWidth {
					for skip := -1; skip <= n; skip++ {
						var skips [TileWidth]int
						for l := range skips {
							skips[l] = rng.Intn(n+2) - 1
						}
						skips[lane] = skip
						if lane == 0 && skip%3 == 0 {
							skips = [TileWidth]int{skip, skip, skip, skip}
						}
						tile := tileTargets(rng, mask, skips)
						xs, ys, zs, axs, ays, azs := randomLanes(rng, n, tile.X[0], tile.Y[0], tile.Z[0])
						if skip%2 == 0 {
							edgeSources(rng, &tile, xs, ys, zs, axs, ays, azs)
						}
						if skip%4 == 1 || mask == 0 {
							seedSums(rng, &tile)
						}
						checkTileContract(t, sm.Name(), &b, &tile, xs, ys, zs, axs, ays, azs)
					}
				}
			}
		}
	}
}

// TestGradTileSpecialTargets puts NaN and Inf into the targets and the
// starting sums, and shrinks σ until d2·σ⁻² overflows on every pair.
// Every source length 0–9 runs under every lane mask, so each special
// lane is checked inside the mask and untouched outside it at every n.
func TestGradTileSpecialTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sm := range allKernels() {
		for _, sigma := range []float64{0.35, 1e-160} {
			b := NewVortexBatch(Pairwise{Sm: sm, Sigma: sigma})
			for n := 0; n <= 9; n++ {
				for mask := range AllLanes + 1 {
					tile := tileTargets(rng, mask, [TileWidth]int{-1, 0, n - 1, n / 2})
					tile.X[1] = math.NaN()
					tile.Z[2] = math.Inf(1)
					seedSums(rng, &tile)
					tile.Acc[4][3] = math.Inf(-1)
					tile.Acc[7][0] = math.NaN()
					xs, ys, zs, axs, ays, azs := randomLanes(rng, n, tile.X[0], tile.Y[0], tile.Z[0])
					checkTileContract(t, sm.Name(), &b, &tile, xs, ys, zs, axs, ays, azs)
				}
			}
		}
	}
}

// FuzzGradTile fuzzes the tile contract over the same space: source
// length, lane mask, per-lane skips, σ, edge-case sources and starting
// sums.
func FuzzGradTile(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0b1111), 0.3, false, false)
	f.Add(int64(2), uint8(7), uint8(0b0001), 1.0, true, false)
	f.Add(int64(3), uint8(25), uint8(0b1010), 0.02, true, true)
	f.Add(int64(4), uint8(9), uint8(0b0000), 1e-160, false, true)
	f.Add(int64(5), uint8(13), uint8(0b0110), 0.35, true, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, maskRaw uint8, sigmaRaw float64, edges, seeded bool) {
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
		tile := tileTargets(rng, maskRaw&AllLanes, skips)
		xs, ys, zs, axs, ays, azs := randomLanes(rng, n, tile.X[0], tile.Y[0], tile.Z[0])
		if edges {
			edgeSources(rng, &tile, xs, ys, zs, axs, ays, azs)
		}
		if seeded {
			seedSums(rng, &tile)
		}
		for _, sm := range allKernels() {
			b := NewVortexBatch(Pairwise{Sm: sm, Sigma: sigma})
			checkTileContract(t, sm.Name(), &b, &tile, xs, ys, zs, axs, ays, azs)
		}
	})
}

// benchPairs times the vortex pair body over a leaf-sized range of 8
// sources: four targets per tile call, or the same four targets one
// AccumGradRange each, reported per pair.
func benchPairs(b *testing.B, tiled bool) {
	rng := rand.New(rand.NewSource(1))
	vb := NewVortexBatch(Pairwise{Sm: Algebraic6(), Sigma: 0.35})
	tile := tileTargets(rng, AllLanes, [TileWidth]int{-1, 2, -1, 5})
	xs, ys, zs, axs, ays, azs := randomLanes(rng, 8, 0, 0, 0)
	b.ResetTimer()
	for range b.N {
		if tiled {
			vb.AccumGradTile(&tile, xs, ys, zs, axs, ays, azs)
			continue
		}
		for l := range TileWidth {
			acc := tile.Lane(l)
			vb.AccumGradRange(&acc, tile.X[l], tile.Y[l], tile.Z[l], xs, ys, zs, axs, ays, azs, tile.Skip[l])
			tile.SetLane(l, &acc)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*TileWidth*len(xs)), "ns/pair")
}

func BenchmarkGradTile(b *testing.B)  { benchPairs(b, true) }
func BenchmarkGradRange(b *testing.B) { benchPairs(b, false) }
