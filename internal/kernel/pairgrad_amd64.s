//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The vortex pair body four targets wide: lane l of every YMM register
// is target l of the GradTile. Each lane runs the operations of
// AccumGradRange and pairGrad in their order — Go on amd64 never fuses
// a multiply-add, VDIVPD and VSQRTPD round correctly — so every lane
// gets the Go body's bits. Only VEX-encoded instructions are used (a
// legacy-SSE instruction between them costs a state transition), and
// VZEROUPPER precedes the return.
//
// A lane that skips source k (k == Skip[l]), sees it at zero
// separation (d2 == 0, NaN counting as non-zero as with Go's !=) or
// lies outside the caller's lane mask still computes the term; the
// term is ANDed with the lane's live mask and added as +0. acc + (+0) is acc for every acc but −0, and a sum that
// starts at +0 never becomes −0 (x + y is −0 only when both are −0), so
// this is the scalar loop's skip, bit for bit.

// ACC adds the masked term t to the tile accumulator at offset off.
#define ACC(t, off) VANDPD Y5, t, t; VADDPD off(DI), t, t; VMOVUPD t, off(DI)

// func gradTileAVX2(b *VortexBatch, t *GradTile, xs, ys, zs, axs, ays, azs *float64, n int, mask *[4]uint64)
TEXT ·gradTileAVX2(SB), NOSPLIT, $0-80
	MOVQ b+0(FP), AX
	MOVQ t+8(FP), DI
	MOVQ xs+16(FP), R8
	MOVQ ys+24(FP), R9
	MOVQ zs+32(FP), R10
	MOVQ axs+40(FP), R11
	MOVQ ays+48(FP), R12
	MOVQ azs+56(FP), R13
	MOVQ n+64(FP), BX
	MOVQ mask+72(FP), SI
	XORQ CX, CX
	CMPQ BX, $0
	JLE  done

loop:
	// r = target − source
	VBROADCASTSD (R8)(CX*8), Y0
	VMOVUPD      GradTile_X(DI), Y15
	VSUBPD       Y0, Y15, Y0
	VBROADCASTSD (R9)(CX*8), Y1
	VMOVUPD      GradTile_Y(DI), Y15
	VSUBPD       Y1, Y15, Y1
	VBROADCASTSD (R10)(CX*8), Y2
	VMOVUPD      GradTile_Z(DI), Y15
	VSUBPD       Y2, Y15, Y2

	// d2 = (rx·rx + ry·ry) + rz·rz
	VMULPD Y0, Y0, Y3
	VMULPD Y1, Y1, Y4
	VADDPD Y4, Y3, Y3
	VMULPD Y2, Y2, Y4
	VADDPD Y4, Y3, Y3

	// Y5 = live mask: d2 != 0 (NEQ_UQ), k != Skip and the lane mask
	VXORPD       Y4, Y4, Y4
	VCMPPD       $4, Y4, Y3, Y5
	VMOVQ        CX, X6
	VPBROADCASTQ X6, Y6
	VPCMPEQQ     GradTile_Skip(DI), Y6, Y6
	VANDNPD      Y5, Y6, Y5
	VANDPD       (SI), Y5, Y5

	// w = 1/(1 + d2·σ⁻²), w32 = w·√w
	VMULPD  VortexBatch_tis2(AX), Y3, Y3
	VMOVUPD VortexBatch_tone(AX), Y4
	VADDPD  Y4, Y3, Y3
	VDIVPD  Y3, Y4, Y3
	VSQRTPD Y3, Y4
	VMULPD  Y4, Y3, Y4

	// fs = w32 · P_F(w), Horner from the highest power
	VMULPD VortexBatch_tfc+128(AX), Y3, Y6
	VADDPD VortexBatch_tfc+96(AX), Y6, Y6
	VMULPD Y6, Y3, Y6
	VADDPD VortexBatch_tfc+64(AX), Y6, Y6
	VMULPD Y6, Y3, Y6
	VADDPD VortexBatch_tfc+32(AX), Y6, Y6
	VMULPD Y6, Y3, Y6
	VADDPD VortexBatch_tfc(AX), Y6, Y6
	VMULPD Y6, Y4, Y6

	// gs = (w32·w) · P_H(w)
	VMULPD VortexBatch_thc+128(AX), Y3, Y7
	VADDPD VortexBatch_thc+96(AX), Y7, Y7
	VMULPD Y7, Y3, Y7
	VADDPD VortexBatch_thc+64(AX), Y7, Y7
	VMULPD Y7, Y3, Y7
	VADDPD VortexBatch_thc+32(AX), Y7, Y7
	VMULPD Y7, Y3, Y7
	VADDPD VortexBatch_thc(AX), Y7, Y7
	VMULPD Y3, Y4, Y4
	VMULPD Y7, Y4, Y7

	// c = r × α in Y11..Y13, then f = fs·α in Y8..Y10
	VBROADCASTSD (R11)(CX*8), Y8
	VBROADCASTSD (R12)(CX*8), Y9
	VBROADCASTSD (R13)(CX*8), Y10
	VMULPD       Y10, Y1, Y11
	VMULPD       Y9, Y2, Y15
	VSUBPD       Y15, Y11, Y11
	VMULPD       Y8, Y2, Y12
	VMULPD       Y10, Y0, Y15
	VSUBPD       Y15, Y12, Y12
	VMULPD       Y9, Y0, Y13
	VMULPD       Y8, Y1, Y15
	VSUBPD       Y15, Y13, Y13
	VMULPD       Y8, Y6, Y8
	VMULPD       Y9, Y6, Y9
	VMULPD       Y10, Y6, Y10

	// u += fs·c
	VMULPD Y11, Y6, Y3
	ACC(Y3, GradTile_Acc+0)
	VMULPD Y12, Y6, Y4
	ACC(Y4, GradTile_Acc+32)
	VMULPD Y13, Y6, Y14
	ACC(Y14, GradTile_Acc+64)

	// row x: gx = gs·cx; G0 += gx·rx, G1 += gx·ry + fz, G2 += gx·rz − fy
	VMULPD Y11, Y7, Y11
	VMULPD Y0, Y11, Y3
	ACC(Y3, GradTile_Acc+96)
	VMULPD Y1, Y11, Y4
	VADDPD Y10, Y4, Y4
	ACC(Y4, GradTile_Acc+128)
	VMULPD Y2, Y11, Y14
	VSUBPD Y9, Y14, Y14
	ACC(Y14, GradTile_Acc+160)

	// row y: gy = gs·cy; G3 += gy·rx − fz, G4 += gy·ry, G5 += gy·rz + fx
	VMULPD Y12, Y7, Y12
	VMULPD Y0, Y12, Y3
	VSUBPD Y10, Y3, Y3
	ACC(Y3, GradTile_Acc+192)
	VMULPD Y1, Y12, Y4
	ACC(Y4, GradTile_Acc+224)
	VMULPD Y2, Y12, Y14
	VADDPD Y8, Y14, Y14
	ACC(Y14, GradTile_Acc+256)

	// row z: gz = gs·cz; G6 += gz·rx + fy, G7 += gz·ry − fx, G8 += gz·rz
	VMULPD Y13, Y7, Y13
	VMULPD Y0, Y13, Y3
	VADDPD Y9, Y3, Y3
	ACC(Y3, GradTile_Acc+288)
	VMULPD Y1, Y13, Y4
	VSUBPD Y8, Y4, Y4
	ACC(Y4, GradTile_Acc+320)
	VMULPD Y2, Y13, Y14
	ACC(Y14, GradTile_Acc+352)

	INCQ CX
	CMPQ CX, BX
	JLT  loop

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
