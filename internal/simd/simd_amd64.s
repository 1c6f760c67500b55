//go:build amd64 && !noasm

// Real AVX2 kernels behind the runtime dispatch in dispatch_amd64.go. Each
// routine is the hardware form of an operation the pure-Go reference models
// scalar-wise; the parity fuzz tests in parity_test.go assert bit-exact
// agreement. Instruction vocabulary follows the paper's Section IV / Fig. 2:
// VPAND (step 1), VPCMPEQB/W/D against zero + VPMOVMSKB (step 2), with the
// tzcnt extraction of step 3 left to the Go consumers of the mask stream,
// and VPBROADCASTD + VPCMPEQD + VPSUBD for the segment kernels (Fig. 2's
// broadcast-compare idiom).

#include "textflag.h"

// laneMask<> holds nine 8-lane dword masks: entry k (32 bytes at offset
// k*32) has its first k lanes all-ones. Used by VPMASKMOVD bounds-safe loads
// of short element lists and to squash compares against the padding lanes.
GLOBL laneMask<>(SB), RODATA, $288

DATA laneMask<>+0(SB)/8, $0x0000000000000000    // entry 0: no lanes
DATA laneMask<>+8(SB)/8, $0x0000000000000000
DATA laneMask<>+16(SB)/8, $0x0000000000000000
DATA laneMask<>+24(SB)/8, $0x0000000000000000
DATA laneMask<>+32(SB)/8, $0x00000000FFFFFFFF   // entry 1
DATA laneMask<>+40(SB)/8, $0x0000000000000000
DATA laneMask<>+48(SB)/8, $0x0000000000000000
DATA laneMask<>+56(SB)/8, $0x0000000000000000
DATA laneMask<>+64(SB)/8, $0xFFFFFFFFFFFFFFFF   // entry 2
DATA laneMask<>+72(SB)/8, $0x0000000000000000
DATA laneMask<>+80(SB)/8, $0x0000000000000000
DATA laneMask<>+88(SB)/8, $0x0000000000000000
DATA laneMask<>+96(SB)/8, $0xFFFFFFFFFFFFFFFF   // entry 3
DATA laneMask<>+104(SB)/8, $0x00000000FFFFFFFF
DATA laneMask<>+112(SB)/8, $0x0000000000000000
DATA laneMask<>+120(SB)/8, $0x0000000000000000
DATA laneMask<>+128(SB)/8, $0xFFFFFFFFFFFFFFFF  // entry 4
DATA laneMask<>+136(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA laneMask<>+144(SB)/8, $0x0000000000000000
DATA laneMask<>+152(SB)/8, $0x0000000000000000
DATA laneMask<>+160(SB)/8, $0xFFFFFFFFFFFFFFFF  // entry 5
DATA laneMask<>+168(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA laneMask<>+176(SB)/8, $0x00000000FFFFFFFF
DATA laneMask<>+184(SB)/8, $0x0000000000000000
DATA laneMask<>+192(SB)/8, $0xFFFFFFFFFFFFFFFF  // entry 6
DATA laneMask<>+200(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA laneMask<>+208(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA laneMask<>+216(SB)/8, $0x0000000000000000
DATA laneMask<>+224(SB)/8, $0xFFFFFFFFFFFFFFFF  // entry 7
DATA laneMask<>+232(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA laneMask<>+240(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA laneMask<>+248(SB)/8, $0x00000000FFFFFFFF
DATA laneMask<>+256(SB)/8, $0xFFFFFFFFFFFFFFFF  // entry 8: all lanes
DATA laneMask<>+264(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA laneMask<>+272(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA laneMask<>+280(SB)/8, $0xFFFFFFFFFFFFFFFF

// func andSegMask8AVX2(masks *uint32, a, b *uint64, nblocks int) int
//
// Fused bitmap filter for 8-bit segments: per 4-word block, VPAND the 256-bit
// halves, VPCMPEQB against zero, VPMOVMSKB, invert — one bit per live byte
// segment, 32 bits per block. Accumulates the total live-segment popcount.
TEXT ·andSegMask8AVX2(SB), NOSPLIT, $0-40
	MOVQ  masks+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	MOVQ  nblocks+24(FP), CX
	VPXOR Y2, Y2, Y2           // zero for the segment compare
	XORQ  AX, AX               // live-segment accumulator
	XORQ  R8, R8               // block index

seg8loop:
	CMPQ  R8, CX
	JGE   seg8done
	MOVQ  R8, R9
	SHLQ  $5, R9               // byte offset = block * 32
	VMOVDQU   (SI)(R9*1), Y0
	VPAND     (DX)(R9*1), Y0, Y0
	VPCMPEQB  Y2, Y0, Y1       // 0xFF per zero byte
	VPMOVMSKB Y1, R10          // 32-bit zero-byte mask
	NOTL      R10              // live-byte mask
	MOVL      R10, (DI)(R8*4)
	POPCNTL   R10, R11
	ADDQ      R11, AX
	INCQ      R8
	JMP       seg8loop

seg8done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func andSegMask16AVX2(masks *uint32, a, b *uint64, nblocks int) int
//
// 16-bit segments: VPCMPEQW yields a doubled movemask (two identical bits
// per half-word); PEXT with 0x55555555 compresses it to one bit per segment,
// 16 bits per block.
TEXT ·andSegMask16AVX2(SB), NOSPLIT, $0-40
	MOVQ  masks+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	MOVQ  nblocks+24(FP), CX
	VPXOR Y2, Y2, Y2
	MOVL  $0x55555555, R12     // PEXT selector: low bit of each 2-bit pair
	XORQ  AX, AX
	XORQ  R8, R8

seg16loop:
	CMPQ  R8, CX
	JGE   seg16done
	MOVQ  R8, R9
	SHLQ  $5, R9
	VMOVDQU   (SI)(R9*1), Y0
	VPAND     (DX)(R9*1), Y0, Y0
	VPCMPEQW  Y2, Y0, Y1       // 0xFFFF per zero half-word
	VPMOVMSKB Y1, R10
	NOTL      R10
	PEXTL     R12, R10, R10    // 2 bits per segment -> 1
	MOVL      R10, (DI)(R8*4)
	POPCNTL   R10, R11
	ADDQ      R11, AX
	INCQ      R8
	JMP       seg16loop

seg16done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func andSegMask32AVX2(masks *uint32, a, b *uint64, nblocks int) int
//
// 32-bit segments: VPCMPEQD + VMOVMSKPS gives one bit per dword directly,
// 8 bits per block.
TEXT ·andSegMask32AVX2(SB), NOSPLIT, $0-40
	MOVQ  masks+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	MOVQ  nblocks+24(FP), CX
	VPXOR Y2, Y2, Y2
	XORQ  AX, AX
	XORQ  R8, R8

seg32loop:
	CMPQ  R8, CX
	JGE   seg32done
	MOVQ  R8, R9
	SHLQ  $5, R9
	VMOVDQU   (SI)(R9*1), Y0
	VPAND     (DX)(R9*1), Y0, Y0
	VPCMPEQD  Y2, Y0, Y1       // all-ones per zero dword
	VMOVMSKPS Y1, R10          // 8-bit zero-dword mask
	NOTL      R10
	ANDL      $0xFF, R10
	MOVL      R10, (DI)(R8*4)
	POPCNTL   R10, R11
	ADDQ      R11, AX
	INCQ      R8
	JMP       seg32loop

seg32done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func andWordsAVX2(dst, a, b *uint64, nblocks int) int
//
// dst = a & b over 4-word blocks, returning the number of non-zero result
// words (VPCMPEQQ against zero + VMOVMSKPD).
TEXT ·andWordsAVX2(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	MOVQ  nblocks+24(FP), CX
	VPXOR Y2, Y2, Y2
	XORQ  AX, AX               // non-zero word count
	XORQ  R8, R8

andloop:
	CMPQ  R8, CX
	JGE   anddone
	MOVQ  R8, R9
	SHLQ  $5, R9
	VMOVDQU   (SI)(R9*1), Y0
	VPAND     (DX)(R9*1), Y0, Y0
	VMOVDQU   Y0, (DI)(R9*1)
	VPCMPEQQ  Y2, Y0, Y1       // all-ones per zero word
	VMOVMSKPD Y1, R10          // 4-bit zero-word mask
	POPCNTL   R10, R10
	NEGQ      R10
	LEAQ      4(AX)(R10*1), AX // += 4 - zeros
	INCQ      R8
	JMP       andloop

anddone:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func countSmallAVX2(a *uint32, la int, b *uint32, lb int) int
//
// Broadcast-compare-count segment kernel: b (1..8 elements) is masked-loaded
// into one register; each element of a is VPBROADCASTD against it and
// matches accumulate lane-wise via VPSUBD of the compare mask (each match
// adds 1 to its lane). Padding lanes load as zero, so compares are squashed
// with the lane mask before accumulating (a genuine 0 element must not match
// padding). A final horizontal add yields |a ∩ b|.
TEXT ·countSmallAVX2(SB), NOSPLIT, $0-40
	MOVQ  a+0(FP), SI
	MOVQ  la+8(FP), CX
	MOVQ  b+16(FP), DX
	MOVQ  lb+24(FP), R8
	SHLQ  $5, R8
	LEAQ  laneMask<>(SB), R9
	VMOVDQU    (R9)(R8*1), Y3  // lane mask for lb
	VPMASKMOVD (DX), Y3, Y4    // b, padded with zeros
	VPXOR Y5, Y5, Y5           // per-lane match accumulator
	XORQ  R10, R10

cntloop:
	CMPQ  R10, CX
	JGE   cntdone
	VPBROADCASTD (SI)(R10*4), Y0
	VPCMPEQD Y4, Y0, Y1
	VPAND    Y3, Y1, Y1
	VPSUBD   Y1, Y5, Y5
	INCQ     R10
	JMP      cntloop

cntdone:
	VEXTRACTI128 $1, Y5, X1    // horizontal add of 8 lanes
	VPADDD  X1, X5, X5
	VPSHUFD $0x4E, X5, X1
	VPADDD  X1, X5, X5
	VPSHUFD $0xB1, X5, X1
	VPADDD  X1, X5, X5
	VMOVD   X5, AX
	VZEROUPPER
	MOVQ    AX, ret+32(FP)
	RET
