#include "textflag.h"

// func mulAVX2(nib *[32]byte, src, dst []byte)
//
// Split-nibble multiply-accumulate, 32 bytes per step: each source byte's
// low and high nibbles index the coefficient's two 16-entry product tables
// (VPSHUFB looks up 16 bytes per 128-bit lane, so each table is broadcast to
// both lanes), and the two products XOR into dst.
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	MOVQ nib+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	SHRQ $5, CX
	JZ   done

	// Every vector instruction here is VEX-encoded (VMOVQ, not MOVQ): a
	// legacy SSE instruction next to dirty upper YMM halves costs a state
	// transition, measured at ~200 ns per call on a virtualised Intel Xeon.
	MOVQ           $0x0f, DX
	VMOVQ          DX, X2
	VPBROADCASTB   X2, Y2    // nibble mask
	VBROADCASTI128 (AX), Y0  // c * low nibble
	VBROADCASTI128 16(AX), Y1 // c * (high nibble << 4)

loop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
