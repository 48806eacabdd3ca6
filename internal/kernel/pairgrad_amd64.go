//go:build amd64 && !purego

package kernel

func init() {
	if haveAVX2() {
		tileAsm = gradTileAsm
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

// laneMasks[m] is mask m spread over the four lanes of a YMM register:
// all ones in lane l when bit l of m is set.
var laneMasks = func() (ms [AllLanes + 1][TileWidth]uint64) {
	for m := range ms {
		for l := range TileWidth {
			if m>>l&1 != 0 {
				ms[m][l] = ^uint64(0)
			}
		}
	}
	return ms
}()

// gradTileAsm runs the AVX2 loop over a non-empty range. The loop
// leaves the counts to its caller: lane l inside the mask counts every
// source but the one it skips.
func gradTileAsm(b *VortexBatch, t *GradTile, xs, ys, zs, axs, ays, azs []float64) {
	n := len(xs)
	m := t.Mask & AllLanes
	gradTileAVX2(b, t, &xs[0], &ys[0], &zs[0], &axs[0], &ays[0], &azs[0], n, &laneMasks[m])
	for l, s := range t.Skip {
		if m>>l&1 == 0 {
			continue
		}
		t.N[l] += int64(n)
		if s >= 0 && s < n {
			t.N[l]--
		}
	}
}

// gradTileAVX2 adds the velocity and gradient of the n sources at
// xs..azs to the lanes of t that mask selects, as pairGrad does lane by
// lane.
//
//go:noescape
func gradTileAVX2(b *VortexBatch, t *GradTile, xs, ys, zs, axs, ays, azs *float64, n int, mask *[TileWidth]uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
