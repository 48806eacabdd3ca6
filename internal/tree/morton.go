// Package tree implements the sequential Barnes-Hut oct-tree used by
// both the serial solver and, per rank, by the parallel hashed-oct-tree
// code (package hot). It follows the structure of PEPC: particles are
// sorted along a Morton space-filling curve, the oct-tree is built over
// the sorted key ranges, multipole moments are accumulated bottom-up,
// and interactions are selected with the classical multipole acceptance
// criterion s/d ≤ θ (Fig. 4 of the paper).
//
// Raising θ makes force evaluation faster and less accurate; PFASST
// exploits exactly this to obtain a cheap coarse-level propagator
// (Section IV-B).
package tree

import "repro/internal/vec"

// KeyBits is the number of bits per spatial dimension in a Morton key
// (63 bits total; the top bit is left clear so keys sort as int64 too).
const KeyBits = 21

// spread3 spreads the low 21 bits of x so that bit k moves to bit 3k.
func spread3(x uint64) uint64 {
	x &= 0x1fffff // 21 bits
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact3 inverts spread3.
func compact3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return x
}

// MortonKey interleaves three 21-bit integer coordinates (z-order: x in
// the lowest bit of each triple).
func MortonKey(ix, iy, iz uint32) uint64 {
	return spread3(uint64(ix)) | spread3(uint64(iy))<<1 | spread3(uint64(iz))<<2
}

// MortonDecode inverts MortonKey.
func MortonDecode(key uint64) (ix, iy, iz uint32) {
	return uint32(compact3(key)), uint32(compact3(key >> 1)), uint32(compact3(key >> 2))
}

// Domain is the cubic simulation box Morton keys are measured in.
type Domain struct {
	Lo   vec.Vec3 // minimum corner
	Size float64  // edge length (cube)
}

// NewDomain returns the smallest axis-aligned cube containing the
// bounding box [lo, hi], inflated by a small margin so boundary
// particles never land exactly on the far face.
func NewDomain(lo, hi vec.Vec3) Domain {
	d := hi.Sub(lo)
	size := d.X
	if d.Y > size {
		size = d.Y
	}
	if d.Z > size {
		size = d.Z
	}
	if size <= 0 {
		size = 1
	}
	size *= 1 + 1e-12
	return Domain{Lo: lo, Size: size}
}

// Key maps a position inside the domain to its Morton key. Positions
// outside the domain are clamped to the boundary cells; non-finite
// coordinates deterministically map to the low boundary cell (BuildChecked
// rejects them up front, but the key function itself must never feed a
// NaN into the float→int conversion, whose result is target-dependent).
func (d Domain) Key(p vec.Vec3) uint64 {
	scale := float64(uint64(1)<<KeyBits) / d.Size
	return MortonKey(keyClamp(p.X, d.Lo.X, scale), keyClamp(p.Y, d.Lo.Y, scale), keyClamp(p.Z, d.Lo.Z, scale))
}

// keyClamp maps one coordinate to its clamped per-axis cell index
// (top-level rather than a closure in Key: Key runs once per particle
// per build, and a capturing closure there is a per-call allocation
// candidate the allocfree rule rejects).
func keyClamp(x, lo, scale float64) uint32 {
	v := (x - lo) * scale
	if !(v >= 0) { // also catches NaN
		v = 0
	}
	max := float64(uint64(1)<<KeyBits) - 1
	if v > max {
		v = max
	}
	return uint32(v)
}

// CellCenter returns the center of the cell that contains key at the
// given refinement level (level 0 = whole domain).
func (d Domain) CellCenter(key uint64, level int) vec.Vec3 {
	shift := uint(3 * (KeyBits - level))
	prefix := key >> shift << shift
	ix, iy, iz := MortonDecode(prefix)
	cell := d.Size / float64(uint64(1)<<level)
	unit := d.Size / float64(uint64(1)<<KeyBits)
	return vec.V3(
		d.Lo.X+float64(ix)*unit+cell/2,
		d.Lo.Y+float64(iy)*unit+cell/2,
		d.Lo.Z+float64(iz)*unit+cell/2,
	)
}

// ChildDigit returns the 3-bit child index of the key at the given
// level (which child of the level-level cell the key descends into).
func ChildDigit(key uint64, level int) int {
	return int(key >> (3 * (KeyBits - 1 - level)) & 7)
}

// PlaceholderKey encodes a cell (prefix, level) as a single integer by
// prepending a set bit above the 3·level prefix bits (Warren-Salmon
// style "hashed" cell address). The root cell is 1.
func PlaceholderKey(prefix uint64, level int) uint64 {
	return uint64(1)<<(3*level) | prefix>>(3*(KeyBits-level))
}

// PKeyLevel returns the refinement level of a placeholder key.
func PKeyLevel(pkey uint64) int {
	level := 0
	for pkey > 1 {
		pkey >>= 3
		level++
	}
	return level
}

// PKeyPrefix converts a placeholder key back to (prefix, level).
func PKeyPrefix(pkey uint64) (uint64, int) {
	level := PKeyLevel(pkey)
	prefix := (pkey &^ (uint64(1) << (3 * level))) << (3 * (KeyBits - level))
	return prefix, level
}

// KeyRange returns the inclusive Morton-key interval covered by the
// cell with the given placeholder key.
func KeyRange(pkey uint64) (lo, hi uint64) {
	prefix, level := PKeyPrefix(pkey)
	span := uint64(1) << (3 * (KeyBits - level))
	return prefix, prefix + span - 1
}
