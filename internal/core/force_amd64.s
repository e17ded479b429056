#include "go_asm.h"
#include "textflag.h"

// {1.0, 1.0}: the corner offset, subtracted from both lanes at once.
DATA one<>+0(SB)/8, $1.0
DATA one<>+8(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $16

// CORNER sets FX, FY to corner's result on two lanes, with corner's
// operations in corner's order: r2 = RX·RX + RY·RY, r = √r2, f = qq/r2,
// FX = f·(RX/r), FY = f·(RY/r). qq is the column at offset QQ in the buffer
// at DI, lanes at byte offset SI. Clobbers X12–X14.
#define CORNER(RX, RY, QQ, FX, FY) \
	MOVAPD RX, X12; \
	MULPD  X12, X12; \
	MOVAPD RY, X13; \
	MULPD  X13, X13; \
	ADDPD  X13, X12; \
	SQRTPD X12, X13; \
	MOVUPD QQ(DI)(SI*1), X14; \
	DIVPD  X12, X14; \
	MOVAPD RX, FX; \
	DIVPD  X13, FX; \
	MULPD  X14, FX; \
	MOVAPD RY, FY; \
	DIVPD  X13, FY; \
	MULPD  X14, FY

// func forceLanes(b *forceBuf, n int)
TEXT ·forceLanes(SB), NOSPLIT, $0-16
	MOVQ   b+0(FP), DI
	MOVQ   n+8(FP), CX
	SHLQ   $3, CX
	XORQ   SI, SI
	MOVUPD one<>(SB), X15
	JMP    test

loop:
	MOVUPD forceBuf_rx(DI)(SI*1), X0 // relx
	MOVUPD forceBuf_ry(DI)(SI*1), X1 // rely
	MOVAPD X0, X2
	SUBPD  X15, X2                   // relx-1
	MOVAPD X1, X3
	SUBPD  X15, X3                   // rely-1
	CORNER(X0, X1, forceBuf_qq00, X4, X5)
	CORNER(X2, X1, forceBuf_qq10, X6, X7)
	CORNER(X0, X3, forceBuf_qq01, X8, X9)
	CORNER(X2, X3, forceBuf_qq11, X10, X11)

	// ((c00 + c10) + (c01 + c11)), per component.
	ADDPD  X6, X4
	ADDPD  X10, X8
	ADDPD  X8, X4
	ADDPD  X7, X5
	ADDPD  X11, X9
	ADDPD  X9, X5
	MOVUPD X4, forceBuf_fx(DI)(SI*1)
	MOVUPD X5, forceBuf_fy(DI)(SI*1)
	ADDQ   $16, SI

test:
	CMPQ SI, CX
	JLT  loop
	RET
