//go:build amd64 && !purego

package kernel

// The assembly bodies are written for eight lanes alone: they address
// every tile array at a 64-byte stride and split a tile into two halves
// of four. At any other TileWidth this constant overflows and the
// package does not compile.
const _ = uint(TileWidth-8) + uint(8-TileWidth)

func init() {
	if haveAVX2() {
		streamBodies = append([]streamBody{{"avx2", gradStreamAVX2Halves}}, streamBodies...)
	}
	if haveAVX512() {
		streamBodies = append([]streamBody{{"avx512", gradStreamAVX512}}, streamBodies...)
	}
}

// haveAVX2 reports whether the CPU implements AVX2 and the OS saves
// the YMM registers across context switches.
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// haveAVX512 reports whether the CPU implements AVX-512 Foundation on
// top of AVX2 and the OS saves the opmask registers and all 32 ZMM
// registers, upper halves included, across context switches.
func haveAVX512() bool {
	if !haveAVX2() {
		return false
	}
	const opmask, zmmHi256, hi16ZMM = 1 << 5, 1 << 6, 1 << 7
	const state = 1<<1 | 1<<2 | opmask | zmmHi256 | hi16ZMM
	if xcr0, _ := xgetbv(); xcr0&state != state {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

// gradStreamAVX2Halves runs the stream on an eight-lane tile through
// the four-lane AVX2 body, one half of the tile after the other. Lanes
// are independent, so the order of the halves moves no bit.
func gradStreamAVX2Halves(b *VortexBatch, t *GradTile, items []tileItem, xs, ys, zs, axs, ays, azs []float64) {
	for h := range TileWidth / 4 {
		gradStreamAVX2(b, t, items, xs, ys, zs, axs, ays, azs, h)
	}
}

// gradStreamAVX2 adds the items of the stream, in order, to lanes
// 4h … 4h+3 of t, as gradStreamGo does lane by lane: lane j of every
// YMM register is lane 4h+j of the tile, the item mask is
// (mask >> 4h) & 0xF, and an item with no lane in the half is skipped.
// A leaf item runs through the pair body with the skip compared as an
// absolute lane index, a cell item through the same body then, with
// its dipole, DipoleVel's operations four lanes wide.
//
//go:noescape
func gradStreamAVX2(b *VortexBatch, t *GradTile, items []tileItem, xs, ys, zs, axs, ays, azs []float64, h int)

// gradStreamAVX512 is gradStreamAVX2 on all eight lanes of t at once,
// in ZMM registers, with the tile's sums and counts held in registers
// for the whole call.
//
//go:noescape
func gradStreamAVX512(b *VortexBatch, t *GradTile, items []tileItem, xs, ys, zs, axs, ays, azs []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
