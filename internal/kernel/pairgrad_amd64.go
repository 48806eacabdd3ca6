//go:build amd64 && !purego

package kernel

func init() {
	if haveAVX2() {
		streamAsm = gradStreamAVX2
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

// gradStreamAVX2 adds the items of the stream, in order, to the lanes
// of t that each item's mask selects, as gradStreamGo does lane by
// lane: a leaf item through the pair body with the skip compared as an
// absolute lane index, a cell item through the same body then, with
// its dipole, DipoleVel's operations four lanes wide.
//
//go:noescape
func gradStreamAVX2(b *VortexBatch, t *GradTile, items []tileItem, xs, ys, zs, axs, ays, azs []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
