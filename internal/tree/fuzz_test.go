package tree

import (
	"testing"

	"repro/internal/particle"
)

// FuzzMortonRoundTrip checks key encode/decode over the full
// coordinate range, plus the placeholder-key algebra.
func FuzzMortonRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), 3)
	f.Add(uint32(0x1fffff), uint32(0x1fffff), uint32(0x1fffff), 21)
	f.Add(uint32(12345), uint32(54321), uint32(999), 7)
	f.Fuzz(func(t *testing.T, x, y, z uint32, level int) {
		x &= 0x1fffff
		y &= 0x1fffff
		z &= 0x1fffff
		key := MortonKey(x, y, z)
		ix, iy, iz := MortonDecode(key)
		if ix != x || iy != y || iz != z {
			t.Fatalf("round trip failed: (%d,%d,%d)", x, y, z)
		}
		level = ((level % KeyBits) + KeyBits) % KeyBits
		prefix := key >> (3 * (KeyBits - level)) << (3 * (KeyBits - level))
		pkey := PlaceholderKey(prefix, level)
		if got := PKeyLevel(pkey); got != level {
			t.Fatalf("PKeyLevel(%x) = %d, want %d", pkey, got, level)
		}
		p2, l2 := PKeyPrefix(pkey)
		if p2 != prefix || l2 != level {
			t.Fatalf("PKeyPrefix mismatch")
		}
		lo, hi := KeyRange(pkey)
		if key < lo || key > hi {
			t.Fatalf("key %x outside its own cell range [%x,%x]", key, lo, hi)
		}
	})
}

// FuzzTileWalk holds the tile walk to the per-particle walk on random
// blobs of alternating unit charges, seeded by the blob size, θ,
// LeafCap, the discipline and, for Coulomb, the softening ε: every
// target matches vortexAt or coulombAt bitwise with its counters
// equal, per tile and through EvalTree or CoulombTree at 1 and 3
// workers.
func FuzzTileWalk(f *testing.F) {
	f.Add(int64(1), uint16(200), 0.3, uint8(1), false, 0.0)
	f.Add(int64(2), uint16(37), 0.6, uint8(8), false, 0.0)
	f.Add(int64(3), uint16(513), 0.0, uint8(2), false, 0.0)
	f.Add(int64(4), uint16(3), 1.5, uint8(4), false, 0.0)
	f.Add(int64(5), uint16(200), 0.3, uint8(1), true, 0.01)
	f.Add(int64(6), uint16(37), 0.6, uint8(8), true, 0.0)
	f.Add(int64(7), uint16(513), 0.45, uint8(3), true, 0.2)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, theta float64, leafRaw uint8, coulomb bool, eps float64) {
		if !(theta >= 0 && theta <= 2) { // also rejects NaN
			theta = 0.5
		}
		if !(eps >= 0 && eps <= 1) {
			eps = 0.01
		}
		disc := Vortex
		if coulomb {
			disc = Coulomb
		}
		sys := particle.RandomVortexBlob(1+int(nRaw%600), 0.2, seed)
		alternateCharges(sys)
		tr := Build(sys, BuildConfig{LeafCap: 1 + int(leafRaw%16), Discipline: disc})
		checkTileWalk(t, tr, theta, eps, 1, 3)
	})
}
