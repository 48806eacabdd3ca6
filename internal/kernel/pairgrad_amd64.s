//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The vortex tile stream in two bodies. gradStreamAVX2 runs four
// targets wide, on one half of the eight-lane tile per call: lane j of
// every YMM register is lane 4h+j of the GradTile. gradStreamAVX512
// runs all eight lanes at once in ZMM registers. Each call runs every
// item of the stream in order through one pair body. A leaf item loops
// the body over its source lanes; a cell item points the source
// registers at its centroid and circulation sum, runs the body once
// and, with a dipole, adds DipoleVel lane-wise. Each lane runs the
// operations of gradStreamGo in their order — Go on amd64 never fuses
// a multiply-add, VDIVPD and VSQRTPD round correctly — so every lane
// gets the Go body's bits.
//
// gradStreamAVX2 uses only VEX-encoded instructions (a legacy-SSE
// instruction between them costs a state transition), and VZEROUPPER
// precedes the return. A lane that skips source k (a leaf item's
// absolute lane index k == Skip[l]), sees it at zero separation
// (d2 == 0, NaN counting as non-zero as with Go's !=) or lies outside
// the item's lane mask still computes the term; the term is ANDed with
// the lane's live mask and added as +0. acc + (+0) is acc for every acc
// but −0, and a sum that starts at +0 never becomes −0 (x + y is −0
// only when both are −0), so this is the scalar loop's skip, bit for
// bit. The dipole has no zero-separation guard, as in DipoleVel: its
// terms are ANDed with the lane mask alone.
//
// Registers across gradStreamAVX2's loops: AX the batch, DI the tile
// advanced to the half, SI the item, R14 the end of the items, R8..R13
// the source lanes (x, y, z, αx, αy, αz), CX the source index and BX
// its end, DX the item's kind. The item's lane mask, spread to
// all-ones lanes, lives in the frame.

// laneBits is bit l in lane l: the lane mask spreads to all-ones lanes
// by one AND and one compare against it.
DATA laneBits<>+0(SB)/8, $1
DATA laneBits<>+8(SB)/8, $2
DATA laneBits<>+16(SB)/8, $4
DATA laneBits<>+24(SB)/8, $8
GLOBL laneBits<>(SB), RODATA|NOPTR, $32

// ACC adds the masked term t to the tile accumulator at offset off.
#define ACC(t, off) VANDPD Y5, t, t; VADDPD off(DI), t, t; VMOVUPD t, off(DI)

// DIP adds the masked dipole term t to the tile accumulator at offset off.
#define DIP(t, off) VANDPD lanes-32(SP), t, t; VADDPD off(DI), t, t; VMOVUPD t, off(DI)

// func gradStreamAVX2(b *VortexBatch, t *GradTile, items []tileItem, xs, ys, zs, axs, ays, azs []float64, h int)
TEXT ·gradStreamAVX2(SB), NOSPLIT, $32-192
	MOVQ  b+0(FP), AX
	MOVQ  t+8(FP), DI
	MOVQ  h+184(FP), DX
	SHLQ  $5, DX       // half h starts 4h lanes (32h bytes) into every tile array
	ADDQ  DX, DI
	MOVQ  items_base+16(FP), SI
	MOVQ  items_len+24(FP), R14
	IMULQ $tileItem__size, R14
	ADDQ  SI, R14
	CMPQ  SI, R14
	JGE   done

item:
	// The item's lane mask in this half, (mask >> 4h) & 0xF, spread: all
	// ones in lane l when bit l is set. An item with no lane here is
	// skipped.
	MOVBQZX      tileItem_mask(SI), DX
	MOVQ         h+184(FP), CX
	SHLQ         $2, CX
	SHRQ         CX, DX
	ANDQ         $15, DX
	JZ           next
	VMOVQ        DX, X6
	VPBROADCASTQ X6, Y6
	VMOVDQU      laneBits<>(SB), Y7
	VPAND        Y7, Y6, Y6
	VPCMPEQQ     Y7, Y6, Y6
	VMOVDQU      Y6, lanes-32(SP)
	MOVBQZX      tileItem_kind(SI), DX
	CMPQ         DX, $const_itemLeaf
	JNE          cell

	// A leaf: the source lanes [lo, hi). Inside the mask, N += (hi − lo)
	// less one where lo ≤ Skip < hi.
	MOVQ         tileItem_lo(SI), CX
	MOVQ         tileItem_hi(SI), BX
	MOVQ         BX, R8
	SUBQ         CX, R8
	VMOVQ        R8, X7
	VPBROADCASTQ X7, Y7
	VMOVDQU      GradTile_Skip(DI), Y8
	LEAQ         -1(CX), R8
	VMOVQ        R8, X9
	VPBROADCASTQ X9, Y9
	VPCMPGTQ     Y9, Y8, Y9
	VMOVQ        BX, X10
	VPBROADCASTQ X10, Y10
	VPCMPGTQ     Y8, Y10, Y10
	VPAND        Y10, Y9, Y9
	VPADDQ       Y9, Y7, Y7
	VPAND        Y6, Y7, Y7
	VPADDQ       GradTile_N(DI), Y7, Y7
	VMOVDQU      Y7, GradTile_N(DI)
	MOVQ         xs_base+40(FP), R8
	MOVQ         ys_base+64(FP), R9
	MOVQ         zs_base+88(FP), R10
	MOVQ         axs_base+112(FP), R11
	MOVQ         ays_base+136(FP), R12
	MOVQ         azs_base+160(FP), R13
	CMPQ         CX, BX
	JLT          pair
	JMP          next

cell:
	// A cell: one source, its centroid and circulation sum, counted
	// once inside the mask.
	VPSRLQ  $63, Y6, Y7
	VPADDQ  GradTile_N(DI), Y7, Y7
	VMOVDQU Y7, GradTile_N(DI)
	LEAQ    tileItem_x(SI), R8
	LEAQ    tileItem_y(SI), R9
	LEAQ    tileItem_z(SI), R10
	LEAQ    tileItem_ax(SI), R11
	LEAQ    tileItem_ay(SI), R12
	LEAQ    tileItem_az(SI), R13
	XORQ    CX, CX
	MOVQ    $1, BX

pair:
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

	// Y5 = live mask: d2 != 0 (NEQ_UQ), in a leaf k != Skip, and the
	// lane mask
	VXORPD       Y4, Y4, Y4
	VCMPPD       $4, Y4, Y3, Y5
	CMPQ         DX, $const_itemLeaf
	JNE          live
	VMOVQ        CX, X6
	VPBROADCASTQ X6, Y6
	VPCMPEQQ     GradTile_Skip(DI), Y6, Y6
	VANDNPD      Y5, Y6, Y5

live:
	VANDPD lanes-32(SP), Y5, Y5

	// w = 1/(1 + d2·σ⁻²), w32 = w·√w
	VMULPD  VortexBatch_tis2(AX), Y3, Y3
	VMOVUPD VortexBatch_tone(AX), Y4
	VADDPD  Y4, Y3, Y3
	VDIVPD  Y3, Y4, Y3
	VSQRTPD Y3, Y4
	VMULPD  Y4, Y3, Y4

	// fs = w32 · P_F(w), Horner from the highest power
	VMULPD VortexBatch_tfc+256(AX), Y3, Y6
	VADDPD VortexBatch_tfc+192(AX), Y6, Y6
	VMULPD Y6, Y3, Y6
	VADDPD VortexBatch_tfc+128(AX), Y6, Y6
	VMULPD Y6, Y3, Y6
	VADDPD VortexBatch_tfc+64(AX), Y6, Y6
	VMULPD Y6, Y3, Y6
	VADDPD VortexBatch_tfc(AX), Y6, Y6
	VMULPD Y6, Y4, Y6

	// gs = (w32·w) · P_H(w)
	VMULPD VortexBatch_thc+256(AX), Y3, Y7
	VADDPD VortexBatch_thc+192(AX), Y7, Y7
	VMULPD Y7, Y3, Y7
	VADDPD VortexBatch_thc+128(AX), Y7, Y7
	VMULPD Y7, Y3, Y7
	VADDPD VortexBatch_thc+64(AX), Y7, Y7
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
	ACC(Y4, GradTile_Acc+64)
	VMULPD Y13, Y6, Y14
	ACC(Y14, GradTile_Acc+128)

	// row x: gx = gs·cx; G0 += gx·rx, G1 += gx·ry + fz, G2 += gx·rz − fy
	VMULPD Y11, Y7, Y11
	VMULPD Y0, Y11, Y3
	ACC(Y3, GradTile_Acc+192)
	VMULPD Y1, Y11, Y4
	VADDPD Y10, Y4, Y4
	ACC(Y4, GradTile_Acc+256)
	VMULPD Y2, Y11, Y14
	VSUBPD Y9, Y14, Y14
	ACC(Y14, GradTile_Acc+320)

	// row y: gy = gs·cy; G3 += gy·rx − fz, G4 += gy·ry, G5 += gy·rz + fx
	VMULPD Y12, Y7, Y12
	VMULPD Y0, Y12, Y3
	VSUBPD Y10, Y3, Y3
	ACC(Y3, GradTile_Acc+384)
	VMULPD Y1, Y12, Y4
	ACC(Y4, GradTile_Acc+448)
	VMULPD Y2, Y12, Y14
	VADDPD Y8, Y14, Y14
	ACC(Y14, GradTile_Acc+512)

	// row z: gz = gs·cz; G6 += gz·rx + fy, G7 += gz·ry − fx, G8 += gz·rz
	VMULPD Y13, Y7, Y13
	VMULPD Y0, Y13, Y3
	VADDPD Y9, Y3, Y3
	ACC(Y3, GradTile_Acc+576)
	VMULPD Y1, Y13, Y4
	VSUBPD Y8, Y4, Y4
	ACC(Y4, GradTile_Acc+640)
	VMULPD Y2, Y13, Y14
	ACC(Y14, GradTile_Acc+704)

	INCQ CX
	CMPQ CX, BX
	JLT  pair
	CMPQ DX, $const_itemCellDipole
	JEQ  dipole

next:
	ADDQ $tileItem__size, SI
	CMPQ SI, R14
	JLT  item

done:
	VZEROUPPER
	RET

dipole:
	// DipoleVel at r (still in Y0..Y2): inv = 1/√((rx·rx + ry·ry) +
	// rz·rz), inv2 = inv·inv, tf = inv2·inv, s = (3·tf)·inv2
	VMULPD  Y0, Y0, Y3
	VMULPD  Y1, Y1, Y4
	VADDPD  Y4, Y3, Y3
	VMULPD  Y2, Y2, Y4
	VADDPD  Y4, Y3, Y3
	VSQRTPD Y3, Y3
	VMOVUPD VortexBatch_tone(AX), Y4
	VDIVPD  Y3, Y4, Y3
	VMULPD  Y3, Y3, Y4
	VMULPD  Y3, Y4, Y5
	VMULPD  VortexBatch_tthree(AX), Y5, Y6
	VMULPD  Y4, Y6, Y6

	// w_k = (D0k·rx + D1k·ry) + D2k·rz in Y7..Y9; D[j][k] sits at
	// tileItem_d + 8·(3j + k)
	VBROADCASTSD tileItem_d+0(SI), Y7
	VMULPD       Y0, Y7, Y7
	VBROADCASTSD tileItem_d+24(SI), Y10
	VMULPD       Y1, Y10, Y10
	VADDPD       Y10, Y7, Y7
	VBROADCASTSD tileItem_d+48(SI), Y10
	VMULPD       Y2, Y10, Y10
	VADDPD       Y10, Y7, Y7
	VBROADCASTSD tileItem_d+8(SI), Y8
	VMULPD       Y0, Y8, Y8
	VBROADCASTSD tileItem_d+32(SI), Y10
	VMULPD       Y1, Y10, Y10
	VADDPD       Y10, Y8, Y8
	VBROADCASTSD tileItem_d+56(SI), Y10
	VMULPD       Y2, Y10, Y10
	VADDPD       Y10, Y8, Y8
	VBROADCASTSD tileItem_d+16(SI), Y9
	VMULPD       Y0, Y9, Y9
	VBROADCASTSD tileItem_d+40(SI), Y10
	VMULPD       Y1, Y10, Y10
	VADDPD       Y10, Y9, Y9
	VBROADCASTSD tileItem_d+64(SI), Y10
	VMULPD       Y2, Y10, Y10
	VADDPD       Y10, Y9, Y9

	// ux = k·(s·(ry·wz − rz·wy) − tf·(D12 − D21))
	VMULPD       Y9, Y1, Y10
	VMULPD       Y8, Y2, Y11
	VSUBPD       Y11, Y10, Y10
	VMULPD       Y10, Y6, Y10
	VBROADCASTSD tileItem_d+40(SI), Y11
	VBROADCASTSD tileItem_d+56(SI), Y12
	VSUBPD       Y12, Y11, Y11
	VMULPD       Y11, Y5, Y11
	VSUBPD       Y11, Y10, Y10
	VMULPD       VortexBatch_tdipk(AX), Y10, Y10
	DIP(Y10, GradTile_Acc+0)

	// uy = k·(s·(rz·wx − rx·wz) − tf·(D20 − D02))
	VMULPD       Y7, Y2, Y10
	VMULPD       Y9, Y0, Y11
	VSUBPD       Y11, Y10, Y10
	VMULPD       Y10, Y6, Y10
	VBROADCASTSD tileItem_d+48(SI), Y11
	VBROADCASTSD tileItem_d+16(SI), Y12
	VSUBPD       Y12, Y11, Y11
	VMULPD       Y11, Y5, Y11
	VSUBPD       Y11, Y10, Y10
	VMULPD       VortexBatch_tdipk(AX), Y10, Y10
	DIP(Y10, GradTile_Acc+64)

	// uz = k·(s·(rx·wy − ry·wx) − tf·(D01 − D10))
	VMULPD       Y8, Y0, Y10
	VMULPD       Y7, Y1, Y11
	VSUBPD       Y11, Y10, Y10
	VMULPD       Y10, Y6, Y10
	VBROADCASTSD tileItem_d+8(SI), Y11
	VBROADCASTSD tileItem_d+24(SI), Y12
	VSUBPD       Y12, Y11, Y11
	VMULPD       Y11, Y5, Y11
	VSUBPD       Y11, Y10, Y10
	VMULPD       VortexBatch_tdipk(AX), Y10, Y10
	DIP(Y10, GradTile_Acc+128)
	JMP          next

// gradStreamAVX512 is the same stream eight lanes wide: lane l of every
// ZMM register is lane l of the GradTile. The twelve sums live in
// Z16..Z27 and the counts in Z28 for the whole call, loaded once at
// entry and stored once at the return, and the targets in Z29..Z31. A
// lane's live mask is K1 — the item's lane mask K2, d2 != 0 (NaN
// counting as non-zero) and, in a leaf, k != Skip — and every sum is a
// merge-masked add under it, so a lane outside it keeps its sum bit
// for bit, −0 included. The dipole's terms and the counts are merged
// under K2 alone. VZEROUPPER precedes the return.
//
// Registers across the loops: AX the batch, DI the tile, SI the item,
// R14 the end of the items, R8..R13 the source lanes, CX the source
// index and BX its end, DX the item's kind.

// ACC512 adds term t to sum s in the lanes of the live mask.
#define ACC512(t, s) VADDPD t, s, K1, s

// DIP512 adds dipole term t to sum s in the lanes of the item's mask.
#define DIP512(t, s) VADDPD t, s, K2, s

// func gradStreamAVX512(b *VortexBatch, t *GradTile, items []tileItem, xs, ys, zs, axs, ays, azs []float64)
TEXT ·gradStreamAVX512(SB), NOSPLIT, $0-184
	MOVQ      b+0(FP), AX
	MOVQ      t+8(FP), DI
	MOVQ      items_base+16(FP), SI
	MOVQ      items_len+24(FP), R14
	IMULQ     $tileItem__size, R14
	ADDQ      SI, R14
	VMOVUPD   GradTile_X(DI), Z29
	VMOVUPD   GradTile_Y(DI), Z30
	VMOVUPD   GradTile_Z(DI), Z31
	VMOVUPD   GradTile_Acc+0(DI), Z16
	VMOVUPD   GradTile_Acc+64(DI), Z17
	VMOVUPD   GradTile_Acc+128(DI), Z18
	VMOVUPD   GradTile_Acc+192(DI), Z19
	VMOVUPD   GradTile_Acc+256(DI), Z20
	VMOVUPD   GradTile_Acc+320(DI), Z21
	VMOVUPD   GradTile_Acc+384(DI), Z22
	VMOVUPD   GradTile_Acc+448(DI), Z23
	VMOVUPD   GradTile_Acc+512(DI), Z24
	VMOVUPD   GradTile_Acc+576(DI), Z25
	VMOVUPD   GradTile_Acc+640(DI), Z26
	VMOVUPD   GradTile_Acc+704(DI), Z27
	VMOVDQU64 GradTile_N(DI), Z28
	CMPQ      SI, R14
	JGE       done512

item512:
	// The item's lane mask in K2; an item with no lane is skipped.
	MOVBQZX tileItem_mask(SI), DX
	TESTQ   DX, DX
	JZ      next512
	KMOVW   DX, K2
	MOVBQZX tileItem_kind(SI), DX
	CMPQ    DX, $const_itemLeaf
	JNE     cell512

	// A leaf: the source lanes [lo, hi). Inside the mask, N += hi − lo,
	// then N −= 1 where lo ≤ Skip < hi.
	MOVQ         tileItem_lo(SI), CX
	MOVQ         tileItem_hi(SI), BX
	MOVQ         BX, R8
	SUBQ         CX, R8
	VPBROADCASTQ R8, Z7
	VPADDQ       Z7, Z28, K2, Z28
	VPBROADCASTQ CX, Z8
	VPBROADCASTQ BX, Z9
	VMOVDQU64    GradTile_Skip(DI), Z10
	VPCMPQ       $5, Z8, Z10, K2, K3     // Skip ≥ lo
	VPCMPQ       $1, Z9, Z10, K3, K3     // and Skip < hi
	VPTERNLOGQ   $0xff, Z7, Z7, Z7       // −1 in every lane
	VPADDQ       Z7, Z28, K3, Z28
	MOVQ         xs_base+40(FP), R8
	MOVQ         ys_base+64(FP), R9
	MOVQ         zs_base+88(FP), R10
	MOVQ         axs_base+112(FP), R11
	MOVQ         ays_base+136(FP), R12
	MOVQ         azs_base+160(FP), R13
	CMPQ         CX, BX
	JLT          pair512
	JMP          next512

cell512:
	// A cell: one source, its centroid and circulation sum, counted
	// once inside the mask (N − (−1)).
	VPTERNLOGQ $0xff, Z7, Z7, Z7
	VPSUBQ     Z7, Z28, K2, Z28
	LEAQ       tileItem_x(SI), R8
	LEAQ       tileItem_y(SI), R9
	LEAQ       tileItem_z(SI), R10
	LEAQ       tileItem_ax(SI), R11
	LEAQ       tileItem_ay(SI), R12
	LEAQ       tileItem_az(SI), R13
	XORQ       CX, CX
	MOVQ       $1, BX

pair512:
	// r = target − source
	VBROADCASTSD (R8)(CX*8), Z0
	VSUBPD       Z0, Z29, Z0
	VBROADCASTSD (R9)(CX*8), Z1
	VSUBPD       Z1, Z30, Z1
	VBROADCASTSD (R10)(CX*8), Z2
	VSUBPD       Z2, Z31, Z2

	// d2 = (rx·rx + ry·ry) + rz·rz
	VMULPD Z0, Z0, Z3
	VMULPD Z1, Z1, Z4
	VADDPD Z4, Z3, Z3
	VMULPD Z2, Z2, Z4
	VADDPD Z4, Z3, Z3

	// K1 = live mask: the lane mask, d2 != 0 (NEQ_UQ), and in a leaf
	// k != Skip
	VPXORQ  Z4, Z4, Z4
	VCMPPD  $4, Z4, Z3, K2, K1
	CMPQ    DX, $const_itemLeaf
	JNE     live512
	VPBROADCASTQ CX, Z5
	VPCMPQ  $4, GradTile_Skip(DI), Z5, K1, K1

live512:
	// w = 1/(1 + d2·σ⁻²), w32 = w·√w
	VMULPD  VortexBatch_tis2(AX), Z3, Z3
	VMOVUPD VortexBatch_tone(AX), Z4
	VADDPD  Z4, Z3, Z3
	VDIVPD  Z3, Z4, Z3
	VSQRTPD Z3, Z4
	VMULPD  Z4, Z3, Z4

	// fs = w32 · P_F(w), Horner from the highest power
	VMULPD VortexBatch_tfc+256(AX), Z3, Z6
	VADDPD VortexBatch_tfc+192(AX), Z6, Z6
	VMULPD Z6, Z3, Z6
	VADDPD VortexBatch_tfc+128(AX), Z6, Z6
	VMULPD Z6, Z3, Z6
	VADDPD VortexBatch_tfc+64(AX), Z6, Z6
	VMULPD Z6, Z3, Z6
	VADDPD VortexBatch_tfc(AX), Z6, Z6
	VMULPD Z6, Z4, Z6

	// gs = (w32·w) · P_H(w)
	VMULPD VortexBatch_thc+256(AX), Z3, Z7
	VADDPD VortexBatch_thc+192(AX), Z7, Z7
	VMULPD Z7, Z3, Z7
	VADDPD VortexBatch_thc+128(AX), Z7, Z7
	VMULPD Z7, Z3, Z7
	VADDPD VortexBatch_thc+64(AX), Z7, Z7
	VMULPD Z7, Z3, Z7
	VADDPD VortexBatch_thc(AX), Z7, Z7
	VMULPD Z3, Z4, Z4
	VMULPD Z7, Z4, Z7

	// c = r × α in Z11..Z13, then f = fs·α in Z8..Z10
	VBROADCASTSD (R11)(CX*8), Z8
	VBROADCASTSD (R12)(CX*8), Z9
	VBROADCASTSD (R13)(CX*8), Z10
	VMULPD       Z10, Z1, Z11
	VMULPD       Z9, Z2, Z15
	VSUBPD       Z15, Z11, Z11
	VMULPD       Z8, Z2, Z12
	VMULPD       Z10, Z0, Z15
	VSUBPD       Z15, Z12, Z12
	VMULPD       Z9, Z0, Z13
	VMULPD       Z8, Z1, Z15
	VSUBPD       Z15, Z13, Z13
	VMULPD       Z8, Z6, Z8
	VMULPD       Z9, Z6, Z9
	VMULPD       Z10, Z6, Z10

	// u += fs·c
	VMULPD Z11, Z6, Z3
	ACC512(Z3, Z16)
	VMULPD Z12, Z6, Z4
	ACC512(Z4, Z17)
	VMULPD Z13, Z6, Z14
	ACC512(Z14, Z18)

	// row x: gx = gs·cx; G0 += gx·rx, G1 += gx·ry + fz, G2 += gx·rz − fy
	VMULPD Z11, Z7, Z11
	VMULPD Z0, Z11, Z3
	ACC512(Z3, Z19)
	VMULPD Z1, Z11, Z4
	VADDPD Z10, Z4, Z4
	ACC512(Z4, Z20)
	VMULPD Z2, Z11, Z14
	VSUBPD Z9, Z14, Z14
	ACC512(Z14, Z21)

	// row y: gy = gs·cy; G3 += gy·rx − fz, G4 += gy·ry, G5 += gy·rz + fx
	VMULPD Z12, Z7, Z12
	VMULPD Z0, Z12, Z3
	VSUBPD Z10, Z3, Z3
	ACC512(Z3, Z22)
	VMULPD Z1, Z12, Z4
	ACC512(Z4, Z23)
	VMULPD Z2, Z12, Z14
	VADDPD Z8, Z14, Z14
	ACC512(Z14, Z24)

	// row z: gz = gs·cz; G6 += gz·rx + fy, G7 += gz·ry − fx, G8 += gz·rz
	VMULPD Z13, Z7, Z13
	VMULPD Z0, Z13, Z3
	VADDPD Z9, Z3, Z3
	ACC512(Z3, Z25)
	VMULPD Z1, Z13, Z4
	VSUBPD Z8, Z4, Z4
	ACC512(Z4, Z26)
	VMULPD Z2, Z13, Z14
	ACC512(Z14, Z27)

	INCQ CX
	CMPQ CX, BX
	JLT  pair512
	CMPQ DX, $const_itemCellDipole
	JEQ  dipole512

next512:
	ADDQ $tileItem__size, SI
	CMPQ SI, R14
	JLT  item512

done512:
	VMOVUPD   Z16, GradTile_Acc+0(DI)
	VMOVUPD   Z17, GradTile_Acc+64(DI)
	VMOVUPD   Z18, GradTile_Acc+128(DI)
	VMOVUPD   Z19, GradTile_Acc+192(DI)
	VMOVUPD   Z20, GradTile_Acc+256(DI)
	VMOVUPD   Z21, GradTile_Acc+320(DI)
	VMOVUPD   Z22, GradTile_Acc+384(DI)
	VMOVUPD   Z23, GradTile_Acc+448(DI)
	VMOVUPD   Z24, GradTile_Acc+512(DI)
	VMOVUPD   Z25, GradTile_Acc+576(DI)
	VMOVUPD   Z26, GradTile_Acc+640(DI)
	VMOVUPD   Z27, GradTile_Acc+704(DI)
	VMOVDQU64 Z28, GradTile_N(DI)
	VZEROUPPER
	RET

dipole512:
	// DipoleVel at r (still in Z0..Z2): inv = 1/√((rx·rx + ry·ry) +
	// rz·rz), inv2 = inv·inv, tf = inv2·inv, s = (3·tf)·inv2
	VMULPD  Z0, Z0, Z3
	VMULPD  Z1, Z1, Z4
	VADDPD  Z4, Z3, Z3
	VMULPD  Z2, Z2, Z4
	VADDPD  Z4, Z3, Z3
	VSQRTPD Z3, Z3
	VMOVUPD VortexBatch_tone(AX), Z4
	VDIVPD  Z3, Z4, Z3
	VMULPD  Z3, Z3, Z4
	VMULPD  Z3, Z4, Z5
	VMULPD  VortexBatch_tthree(AX), Z5, Z6
	VMULPD  Z4, Z6, Z6

	// w_k = (D0k·rx + D1k·ry) + D2k·rz in Z7..Z9; D[j][k] sits at
	// tileItem_d + 8·(3j + k)
	VBROADCASTSD tileItem_d+0(SI), Z7
	VMULPD       Z0, Z7, Z7
	VBROADCASTSD tileItem_d+24(SI), Z10
	VMULPD       Z1, Z10, Z10
	VADDPD       Z10, Z7, Z7
	VBROADCASTSD tileItem_d+48(SI), Z10
	VMULPD       Z2, Z10, Z10
	VADDPD       Z10, Z7, Z7
	VBROADCASTSD tileItem_d+8(SI), Z8
	VMULPD       Z0, Z8, Z8
	VBROADCASTSD tileItem_d+32(SI), Z10
	VMULPD       Z1, Z10, Z10
	VADDPD       Z10, Z8, Z8
	VBROADCASTSD tileItem_d+56(SI), Z10
	VMULPD       Z2, Z10, Z10
	VADDPD       Z10, Z8, Z8
	VBROADCASTSD tileItem_d+16(SI), Z9
	VMULPD       Z0, Z9, Z9
	VBROADCASTSD tileItem_d+40(SI), Z10
	VMULPD       Z1, Z10, Z10
	VADDPD       Z10, Z9, Z9
	VBROADCASTSD tileItem_d+64(SI), Z10
	VMULPD       Z2, Z10, Z10
	VADDPD       Z10, Z9, Z9

	// ux = k·(s·(ry·wz − rz·wy) − tf·(D12 − D21))
	VMULPD       Z9, Z1, Z10
	VMULPD       Z8, Z2, Z11
	VSUBPD       Z11, Z10, Z10
	VMULPD       Z10, Z6, Z10
	VBROADCASTSD tileItem_d+40(SI), Z11
	VBROADCASTSD tileItem_d+56(SI), Z12
	VSUBPD       Z12, Z11, Z11
	VMULPD       Z11, Z5, Z11
	VSUBPD       Z11, Z10, Z10
	VMULPD       VortexBatch_tdipk(AX), Z10, Z10
	DIP512(Z10, Z16)

	// uy = k·(s·(rz·wx − rx·wz) − tf·(D20 − D02))
	VMULPD       Z7, Z2, Z10
	VMULPD       Z9, Z0, Z11
	VSUBPD       Z11, Z10, Z10
	VMULPD       Z10, Z6, Z10
	VBROADCASTSD tileItem_d+48(SI), Z11
	VBROADCASTSD tileItem_d+16(SI), Z12
	VSUBPD       Z12, Z11, Z11
	VMULPD       Z11, Z5, Z11
	VSUBPD       Z11, Z10, Z10
	VMULPD       VortexBatch_tdipk(AX), Z10, Z10
	DIP512(Z10, Z17)

	// uz = k·(s·(rx·wy − ry·wx) − tf·(D01 − D10))
	VMULPD       Z8, Z0, Z10
	VMULPD       Z7, Z1, Z11
	VSUBPD       Z11, Z10, Z10
	VMULPD       Z10, Z6, Z10
	VBROADCASTSD tileItem_d+8(SI), Z11
	VBROADCASTSD tileItem_d+24(SI), Z12
	VSUBPD       Z12, Z11, Z11
	VMULPD       Z11, Z5, Z11
	VSUBPD       Z11, Z10, Z10
	VMULPD       VortexBatch_tdipk(AX), Z10, Z10
	DIP512(Z10, Z18)
	JMP          next512

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
