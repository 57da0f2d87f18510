#include "textflag.h"

// Every AVX2 body's hot loops — the term, row, element and lane loops its
// kernel benchmarks spend their time in — start with PCALIGN $64, which also
// aligns the body to 64 bytes: each such loop head sits at the start of a
// 64-byte line wherever the linker puts the function, so Go text added to
// this package moves no loop across a line. CI's "Loop heads stay aligned"
// step checks every head in the benchmark binary.

// func hasAVX2() bool
//
// CPUID leaf 1 must report OSXSAVE and AVX, XCR0 must have the SSE and AVX
// state bits set (the OS saves the YMM registers), and leaf 7 must report
// AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // bit 27 OSXSAVE, bit 28 AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0 bit 1 SSE state, bit 2 AVX state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX // leaf 7 EBX bit 5: AVX2
	JZ   no
	MOVB $1, ret+0(FP)

no:
	RET

// Lane masks of the last, partial vector: eight dwords of ones, then eight of
// zeros. The eight dwords at byte offset 32-4r are r ones followed by zeros.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// Register use of axpyRowsAVX2:
//	DI dst, AX byte offset of the current tile in dst and in every source row,
//	CX elements of dst not yet done, R8 all of them (n),
//	SI/R13 the row table and its length, R12/R10 the ends of the selection
//	and factor lists, R11 minus the term count, BX the same counting up to
//	zero through one tile's terms;
//	DX the current term's source row at the tile, Y8 its factor in every
//	lane, Y9 a product, Y0-Y7 the destination tile, Y10 the tail's lane mask.

// TERM loads the next term: the selected row's address at the tile and the
// factor. A slice header is three words, so row s is at SI+24s. A selection
// outside the table or a row shorter than n ends the call before anything of
// that row is read.
#define TERM \
	MOVLQSX      (R12)(BX*4), DX  \
	CMPQ         DX, R13          \
	JAE          bad              \
	LEAQ         (DX)(DX*2), DX   \
	CMPQ         8(SI)(DX*8), R8 \
	JLT          bad              \
	MOVQ         (SI)(DX*8), DX   \
	ADDQ         AX, DX           \
	VBROADCASTSS (R10)(BX*4), Y8

// NEXT steps to the following term and loops.
#define NEXT(loop) \
	INCQ BX   \
	JNZ  loop

// MAC is acc += round(factor * row[off:off+8]) in eight lanes: the product
// is rounded to float32 by VMULPS before VADDPS adds it. Never a fused
// multiply-add, which rounds once.
#define MAC(off, acc) \
	VMULPS off(DX), Y8, Y9 \
	VADDPS Y9, acc, acc

// func axpyRowsAVX2(dst *float32, n int, rows *[]float32, nrows int, sel *int32, facs *float32, terms int) bool
//
// For each term q in ascending order, dst[j] += round(facs[q] * rows[sel[q]][j])
// for every j < n; needs n > 0 and terms > 0. The destination is cut into
// tiles of 64, then 32, 16 and 8 elements and a masked tail; a tile stays in
// registers while every term is added to it, so each element sees its terms
// in list order whichever tile it falls in. Returns false, with dst partly
// updated, on meeting a selection that is not in the table or a selected row
// shorter than n.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-57
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ rows+16(FP), SI
	MOVQ nrows+24(FP), R13
	MOVQ sel+32(FP), R12
	MOVQ facs+40(FP), R10
	MOVQ terms+48(FP), R11
	LEAQ (R12)(R11*4), R12
	LEAQ (R10)(R11*4), R10
	NEGQ R11
	MOVQ R8, CX
	XORQ AX, AX

tile64:
	CMPQ    CX, $64
	JLT     tile32
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	VMOVUPS 128(DI)(AX*1), Y4
	VMOVUPS 160(DI)(AX*1), Y5
	VMOVUPS 192(DI)(AX*1), Y6
	VMOVUPS 224(DI)(AX*1), Y7
	MOVQ    R11, BX
	PCALIGN $64

term64:
	TERM
	MAC(0, Y0)
	MAC(32, Y1)
	MAC(64, Y2)
	MAC(96, Y3)
	MAC(128, Y4)
	MAC(160, Y5)
	MAC(192, Y6)
	MAC(224, Y7)
	NEXT(term64)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	VMOVUPS Y4, 128(DI)(AX*1)
	VMOVUPS Y5, 160(DI)(AX*1)
	VMOVUPS Y6, 192(DI)(AX*1)
	VMOVUPS Y7, 224(DI)(AX*1)
	ADDQ    $256, AX
	SUBQ    $64, CX
	JMP     tile64

tile32:
	// Fewer than 64 elements are left: the bits of CX name the tiles.
	TESTQ   $32, CX
	JZ      tile16
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	MOVQ    R11, BX
	PCALIGN $64

term32:
	TERM
	MAC(0, Y0)
	MAC(32, Y1)
	MAC(64, Y2)
	MAC(96, Y3)
	NEXT(term32)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ    $128, AX

tile16:
	TESTQ   $16, CX
	JZ      tile8
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	MOVQ    R11, BX
	PCALIGN $64

term16:
	TERM
	MAC(0, Y0)
	MAC(32, Y1)
	NEXT(term16)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	ADDQ    $64, AX

tile8:
	TESTQ   $8, CX
	JZ      tail
	VMOVUPS 0(DI)(AX*1), Y0
	MOVQ    R11, BX
	PCALIGN $64

term8:
	TERM
	MAC(0, Y0)
	NEXT(term8)
	VMOVUPS Y0, 0(DI)(AX*1)
	ADDQ    $32, AX

tail:
	// One to seven elements: masked loads and a masked store touch no
	// memory past the end of dst or of a source row.
	ANDQ        $7, CX
	JZ          done
	LEAQ        tailmask<>+32(SB), DX
	SHLQ        $2, CX
	SUBQ        CX, DX
	VMOVDQU     (DX), Y10
	VMASKMOVPS  (DI)(AX*1), Y10, Y0
	MOVQ        R11, BX
	PCALIGN     $64

termtail:
	TERM
	VMASKMOVPS (DX), Y10, Y9
	VMULPS     Y9, Y8, Y9
	VADDPS     Y9, Y0, Y0
	NEXT(termtail)
	VMASKMOVPS Y0, Y10, (DI)(AX*1)

done:
	VZEROUPPER
	MOVB $1, ret+56(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ret+56(FP)
	RET

// Register use of axpyStridedAVX2: DI, AX, CX, Y0-Y7, Y8, Y9 and Y10 as in
//	axpyRowsAVX2; SI the first source row and R9 the row stride in bytes,
//	R10 the first factor, R13 the factor stride in bytes and R11 the end of
//	the factors, DX the current term's source row at the tile and R12 its
//	factor, BX the factor's bits, R8 the zero factors met in this tile.

// STERM loads the next term's factor, or leaves for zero (with the flags of
// the factor's bits less the sign) when it compares equal to zero.
#define STERM(zero) \
	MOVL         (R12), BX \
	ADDL         BX, BX    \
	JZ           zero      \
	VBROADCASTSS (R12), Y8

// SNEXT steps to the following term's row and factor, and loops.
#define SNEXT(loop) \
	ADDQ R9, DX   \
	ADDQ R13, R12 \
	CMPQ R12, R11 \
	JNE  loop

// SSTART points DX and R12 at the first term for the tile at AX.
#define SSTART \
	LEAQ (SI)(AX*1), DX \
	MOVQ R10, R12       \
	XORL R8, R8

// func axpyStridedAVX2(dst *float32, n int, b *float32, bStride int, a *float32, aStride int, terms int) int
//
// The GEMM kernel on its operands in place: for each term q < terms in
// ascending order whose factor f = a[q*aStride] does not compare equal to
// zero, dst[j] += round(f * b[q*bStride+j]) for every j < n; needs n > 0 and
// terms > 0. A zero factor (+0 or -0) is skipped by a branch, which predicts
// when zeros are rare. The tiles, the masked tail and the chain are
// axpyRowsAVX2's, with no list and no row table. Returns how many factors
// were zero (every tile meets the same ones).
TEXT ·axpyStridedAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ b+16(FP), SI
	MOVQ bStride+24(FP), R9
	MOVQ a+32(FP), R10
	MOVQ aStride+40(FP), R13
	MOVQ terms+48(FP), R11
	SHLQ $2, R9
	SHLQ $2, R13
	IMULQ R13, R11
	ADDQ R10, R11
	XORQ AX, AX

stile64:
	CMPQ    CX, $64
	JLT     stile32
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	VMOVUPS 128(DI)(AX*1), Y4
	VMOVUPS 160(DI)(AX*1), Y5
	VMOVUPS 192(DI)(AX*1), Y6
	VMOVUPS 224(DI)(AX*1), Y7
	SSTART
	PCALIGN $64

sterm64:
	STERM(szero64)
	MAC(0, Y0)
	MAC(32, Y1)
	MAC(64, Y2)
	MAC(96, Y3)
	MAC(128, Y4)
	MAC(160, Y5)
	MAC(192, Y6)
	MAC(224, Y7)

snext64:
	SNEXT(sterm64)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	VMOVUPS Y4, 128(DI)(AX*1)
	VMOVUPS Y5, 160(DI)(AX*1)
	VMOVUPS Y6, 192(DI)(AX*1)
	VMOVUPS Y7, 224(DI)(AX*1)
	ADDQ    $256, AX
	SUBQ    $64, CX
	JMP     stile64

szero64:
	INCQ R8
	JMP  snext64

stile32:
	TESTQ   $32, CX
	JZ      stile16
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	SSTART
	PCALIGN $64

sterm32:
	STERM(szero32)
	MAC(0, Y0)
	MAC(32, Y1)
	MAC(64, Y2)
	MAC(96, Y3)

snext32:
	SNEXT(sterm32)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	JMP     stile16

szero32:
	INCQ R8
	JMP  snext32

stile16:
	TESTQ   $16, CX
	JZ      stile8
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	SSTART
	PCALIGN $64

sterm16:
	STERM(szero16)
	MAC(0, Y0)
	MAC(32, Y1)

snext16:
	SNEXT(sterm16)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	ADDQ    $64, AX
	JMP     stile8

szero16:
	INCQ R8
	JMP  snext16

stile8:
	TESTQ   $8, CX
	JZ      stail
	VMOVUPS 0(DI)(AX*1), Y0
	SSTART
	PCALIGN $64

sterm8:
	STERM(szero8)
	MAC(0, Y0)

snext8:
	SNEXT(sterm8)
	VMOVUPS Y0, 0(DI)(AX*1)
	ADDQ    $32, AX
	JMP     stail

szero8:
	INCQ R8
	JMP  snext8

stail:
	ANDQ       $7, CX
	JZ         sdone
	LEAQ       tailmask<>+32(SB), DX
	SHLQ       $2, CX
	SUBQ       CX, DX
	VMOVDQU    (DX), Y10
	VMASKMOVPS (DI)(AX*1), Y10, Y0
	SSTART
	PCALIGN $64

stermtail:
	STERM(szerotail)
	VMASKMOVPS (DX), Y10, Y9
	VMULPS     Y9, Y8, Y9
	VADDPS     Y9, Y0, Y0

snexttail:
	SNEXT(stermtail)
	VMASKMOVPS Y0, Y10, (DI)(AX*1)

sdone:
	VZEROUPPER
	MOVQ R8, ret+56(FP)
	RET

szerotail:
	INCQ R8
	JMP  snexttail

// Register use of addRowsAVX2: DI, AX, CX, R8, DX, Y0-Y7 and Y10 as above;
//	SI the first row's slice header, R9 the current term's, R11 the term
//	count, BX the same counting down to zero through one tile's terms.

// ROW loads the next row's address at the tile and steps to the following
// header. A row shorter than n ends the call before anything of it is read.
#define ROW \
	CMPQ 8(R9), R8  \
	JLT  addbad     \
	MOVQ (R9), DX   \
	ADDQ AX, DX     \
	ADDQ $24, R9

// MORE counts the term and loops.
#define MORE(loop) \
	DECQ BX   \
	JNZ  loop

// func addRowsAVX2(dst *float32, n int, rows *[]float32, terms int) bool
//
// axpyRowsAVX2 with every factor 1 and no selection: for each row q in
// ascending order, dst[j] += rows[q][j] for every j < n; needs n > 0 and
// terms > 0. The same tiles, the same masked tail, one VADDPS where the
// other has a VMULPS and a VADDPS. Returns false, with dst partly updated,
// on meeting a row shorter than n.
TEXT ·addRowsAVX2(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ rows+16(FP), SI
	MOVQ terms+24(FP), R11
	MOVQ R8, CX
	XORQ AX, AX

add64:
	CMPQ    CX, $64
	JLT     add32
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	VMOVUPS 128(DI)(AX*1), Y4
	VMOVUPS 160(DI)(AX*1), Y5
	VMOVUPS 192(DI)(AX*1), Y6
	VMOVUPS 224(DI)(AX*1), Y7
	MOVQ    SI, R9
	MOVQ    R11, BX
	PCALIGN $64

row64:
	ROW
	VADDPS 0(DX), Y0, Y0
	VADDPS 32(DX), Y1, Y1
	VADDPS 64(DX), Y2, Y2
	VADDPS 96(DX), Y3, Y3
	VADDPS 128(DX), Y4, Y4
	VADDPS 160(DX), Y5, Y5
	VADDPS 192(DX), Y6, Y6
	VADDPS 224(DX), Y7, Y7
	MORE(row64)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	VMOVUPS Y4, 128(DI)(AX*1)
	VMOVUPS Y5, 160(DI)(AX*1)
	VMOVUPS Y6, 192(DI)(AX*1)
	VMOVUPS Y7, 224(DI)(AX*1)
	ADDQ    $256, AX
	SUBQ    $64, CX
	JMP     add64

add32:
	TESTQ   $32, CX
	JZ      add16
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	MOVQ    SI, R9
	MOVQ    R11, BX
	PCALIGN $64

row32:
	ROW
	VADDPS 0(DX), Y0, Y0
	VADDPS 32(DX), Y1, Y1
	VADDPS 64(DX), Y2, Y2
	VADDPS 96(DX), Y3, Y3
	MORE(row32)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ    $128, AX

add16:
	TESTQ   $16, CX
	JZ      add8
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	MOVQ    SI, R9
	MOVQ    R11, BX
	PCALIGN $64

row16:
	ROW
	VADDPS 0(DX), Y0, Y0
	VADDPS 32(DX), Y1, Y1
	MORE(row16)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	ADDQ    $64, AX

add8:
	TESTQ   $8, CX
	JZ      addtail
	VMOVUPS 0(DI)(AX*1), Y0
	MOVQ    SI, R9
	MOVQ    R11, BX
	PCALIGN $64

row8:
	ROW
	VADDPS 0(DX), Y0, Y0
	MORE(row8)
	VMOVUPS Y0, 0(DI)(AX*1)
	ADDQ    $32, AX

addtail:
	ANDQ        $7, CX
	JZ          adddone
	LEAQ        tailmask<>+32(SB), DX
	SHLQ        $2, CX
	SUBQ        CX, DX
	VMOVDQU     (DX), Y10
	VMASKMOVPS  (DI)(AX*1), Y10, Y0
	MOVQ        SI, R9
	MOVQ        R11, BX
	PCALIGN     $64

rowtail:
	ROW
	VMASKMOVPS (DX), Y10, Y9
	VADDPS     Y9, Y0, Y0
	MORE(rowtail)
	VMASKMOVPS Y0, Y10, (DI)(AX*1)

adddone:
	VZEROUPPER
	MOVB $1, ret+32(FP)
	RET

addbad:
	VZEROUPPER
	MOVB $0, ret+32(FP)
	RET

// Register use of addSmallBagsAVX2 and addSmallSegmentsAVX2:
//	DI the current bag's output row, R8 a row's bytes, SI the row matrix,
//	R13 its row count, R10 the current bag's header (its start, for a
//	segment), BX the bag's position; in a bag, R12 the end of its index list,
//	CX minus its length, AX the byte offset of the tile in the output row and
//	in every source row, R9 the row's bytes not yet done; in a tile's loop
//	R11 the current index's offset from R12, counting up to zero, R14 its row
//	at the start; Y0-Y1 the tile, Y9 a masked row, Y10 the tail's lane mask.
//
// A bag's rows are added 16 elements at a time, then 8, then the masked
// tail, each tile held in registers across all the rows. The output tile is
// loaded and added to, never replaced, so every element is the AddRow
// chain's: its own value, then the rows in order. The bag loop's head and
// every row loop's head sit at the start of a 64-byte line (PCALIGN), so
// where the linker puts the function moves no loop across a line.

// SMALLROW loads the next index, at R12 + R11*scale (its low 32 bits,
// unsigned), ends the call at bad if it is not a row of the matrix, and
// points R14 at that row.
#define SMALLROW(scale, bad) \
	MOVLQZX (R12)(R11*scale), R14 \
	CMPQ    R14, R13              \
	JAE     bad                   \
	IMULQ   R8, R14               \
	ADDQ    SI, R14

// SMALLSTART loads the arguments both bodies share and the tail's lane mask
// (its width is the row's, n mod 8 elements).
#define SMALLSTART \
	MOVQ    dst+0(FP), DI         \
	MOVQ    n+8(FP), R8           \
	SHLQ    $2, R8                \
	MOVQ    R8, CX                \
	ANDQ    $28, CX               \
	LEAQ    tailmask<>+32(SB), DX \
	SUBQ    CX, DX                \
	VMOVDQU (DX), Y10             \
	XORQ    BX, BX

// func addSmallBagsAVX2(dst *float32, n int, bags *[]int32, nbags int, w *float32, rows int, need int) int
//
// The embedding bag's small-bag pool: for each bag b from 0 in order while
// its length is below need, dst[b*n+j] += w[ix*n+j] for every index ix of
// the bag, in order, and every j < n; needs n > 0, nbags > 0 and rows > 0.
// A bag's header is three words (data, len, cap), so bag b's is at
// bags+24b. Returns the position of the first bag of need indices or more,
// or -1, with the bags before it pooled, on meeting an index outside
// [0, rows): the index is checked before its row is read.
TEXT ·addSmallBagsAVX2(SB), NOSPLIT, $0-64
	SMALLSTART
	MOVQ    bags+16(FP), R10
	MOVQ    w+32(FP), SI
	MOVQ    rows+40(FP), R13
	PCALIGN $64

bag:
	CMPQ  BX, nbags+24(FP)
	JGE   bagdone
	MOVQ  8(R10), CX
	CMPQ  CX, need+48(FP)
	JGE   bagdone
	TESTQ CX, CX
	JZ    bagnext
	MOVQ  (R10), R12
	LEAQ  (R12)(CX*4), R12
	NEGQ  CX
	XORQ    AX, AX
	MOVQ    R8, R9

bagtile16:
	CMPQ    R9, $64
	JLT     bagtile8
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	MOVQ    CX, R11
	PCALIGN $64

bagrow16:
	SMALLROW(4, bagbad)
	VADDPS  0(R14)(AX*1), Y0, Y0
	VADDPS  32(R14)(AX*1), Y1, Y1
	INCQ    R11
	JNZ     bagrow16
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	ADDQ    $64, AX
	SUBQ    $64, R9
	JMP     bagtile16

bagtile8:
	CMPQ    R9, $32
	JLT     bagtail
	VMOVUPS (DI)(AX*1), Y0
	MOVQ    CX, R11
	PCALIGN $64

bagrow8:
	SMALLROW(4, bagbad)
	VADDPS  (R14)(AX*1), Y0, Y0
	INCQ    R11
	JNZ     bagrow8
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $32, R9

bagtail:
	// One to seven elements: the masked loads read, and the masked store
	// writes, nothing past the end of a row.
	TESTQ      R9, R9
	JZ         bagnext
	VMASKMOVPS (DI)(AX*1), Y10, Y0
	MOVQ       CX, R11
	PCALIGN    $64

bagrowtail:
	SMALLROW(4, bagbad)
	VMASKMOVPS (R14)(AX*1), Y10, Y9
	VADDPS     Y9, Y0, Y0
	INCQ       R11
	JNZ        bagrowtail
	VMASKMOVPS Y0, Y10, (DI)(AX*1)

bagnext:
	ADDQ $24, R10
	ADDQ R8, DI
	INCQ BX
	JMP  bag

bagdone:
	VZEROUPPER
	MOVQ BX, ret+56(FP)
	RET

bagbad:
	VZEROUPPER
	MOVQ $-1, ret+56(FP)
	RET

// func addSmallSegmentsAVX2(dst *float32, n int, src *float32, srcRows int, pairs *int64, npairs int, starts *int32, segs int, need int) int
//
// addSmallBagsAVX2 over the adjoint's pairs: segment i is pairs[starts[i]:
// starts[i+1]], and its rows are src's at the pairs' low 32 bits (the first
// dword of each 8-byte pair); needs n > 0, segs > 0 and srcRows > 0. Returns
// the position of the first segment of need pairs or more, or -1, with the
// segments before it pooled, on meeting a segment end past npairs, a segment
// that ends before it starts, or a row outside [0, srcRows).
TEXT ·addSmallSegmentsAVX2(SB), NOSPLIT, $0-80
	SMALLSTART
	MOVQ    src+16(FP), SI
	MOVQ    srcRows+24(FP), R13
	MOVQ    starts+48(FP), R10
	PCALIGN $64

seg:
	CMPQ    BX, segs+56(FP)
	JGE     segdone
	MOVLQZX (R10), CX
	MOVLQZX 4(R10), R11
	CMPQ    R11, npairs+40(FP)
	JHI     segbad
	SUBQ    R11, CX
	JHI     segbad
	MOVQ    need+64(FP), R9
	ADDQ    CX, R9
	JLE     segdone
	TESTQ   CX, CX
	JZ      segnext
	MOVQ    pairs+32(FP), R12
	LEAQ    (R12)(R11*8), R12
	XORQ    AX, AX
	MOVQ    R8, R9

segtile16:
	CMPQ    R9, $64
	JLT     segtile8
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	MOVQ    CX, R11
	PCALIGN $64

segrow16:
	SMALLROW(8, segbad)
	VADDPS  0(R14)(AX*1), Y0, Y0
	VADDPS  32(R14)(AX*1), Y1, Y1
	INCQ    R11
	JNZ     segrow16
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	ADDQ    $64, AX
	SUBQ    $64, R9
	JMP     segtile16

segtile8:
	CMPQ    R9, $32
	JLT     segtail
	VMOVUPS (DI)(AX*1), Y0
	MOVQ    CX, R11
	PCALIGN $64

segrow8:
	SMALLROW(8, segbad)
	VADDPS  (R14)(AX*1), Y0, Y0
	INCQ    R11
	JNZ     segrow8
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $32, R9

segtail:
	// One to seven elements: the masked loads read, and the masked store
	// writes, nothing past the end of a row.
	TESTQ      R9, R9
	JZ         segnext
	VMASKMOVPS (DI)(AX*1), Y10, Y0
	MOVQ       CX, R11
	PCALIGN    $64

segrowtail:
	SMALLROW(8, segbad)
	VMASKMOVPS (R14)(AX*1), Y10, Y9
	VADDPS     Y9, Y0, Y0
	INCQ       R11
	JNZ        segrowtail
	VMASKMOVPS Y0, Y10, (DI)(AX*1)

segnext:
	ADDQ $4, R10
	ADDQ R8, DI
	INCQ BX
	JMP  seg

segdone:
	VZEROUPPER
	MOVQ BX, ret+72(FP)
	RET

segbad:
	VZEROUPPER
	MOVQ $-1, ret+72(FP)
	RET

// func axpyIntoRowsAVX2(dst *float32, nrows, n int, at *int32, count int, src *float32, a float32) bool
//
// The sparse update's list body: for each i < count in ascending order,
// dst[at[i]*n+j] += round(a * src[i*n+j]) for every j < n, where dst is a
// row-major nrows x n matrix; needs n > 0 and count > 0. One destination row
// per term instead of one destination for all, so nothing stays in
// registers across terms: each row is 32 elements at a time, then 8, then
// the masked tail, with the product rounded by VMULPS before VADDPS adds it
// (MAC). Returns false, with the rows before it updated, on meeting an
// at[i] outside [0, nrows).
//
// DI dst, R13 nrows, R8 n and R9 its bytes, R12 the next at[i], BX the terms
// left, SI the current source row, DX the current destination row, AX the
// byte offset in both, CX the elements of the row not yet done, Y8 the
// factor in every lane, Y10 the tail's lane mask.
TEXT ·axpyIntoRowsAVX2(SB), NOSPLIT, $0-57
	MOVQ         dst+0(FP), DI
	MOVQ         nrows+8(FP), R13
	MOVQ         n+16(FP), R8
	MOVQ         at+24(FP), R12
	MOVQ         count+32(FP), BX
	MOVQ         src+40(FP), SI
	VBROADCASTSS a+48(FP), Y8
	LEAQ         (R8*4), R9
	MOVQ         R8, CX
	ANDQ         $7, CX
	SHLQ         $2, CX
	LEAQ         tailmask<>+32(SB), DX
	SUBQ         CX, DX
	VMOVDQU      (DX), Y10
	PCALIGN      $64

into:
	MOVLQZX (R12), DX
	CMPQ    DX, R13
	JAE     intobad
	IMULQ   R9, DX
	ADDQ    DI, DX
	MOVQ    R8, CX
	XORQ    AX, AX
	PCALIGN $64

into32:
	CMPQ    CX, $32
	JLT     into8
	VMOVUPS 0(DX)(AX*1), Y0
	VMOVUPS 32(DX)(AX*1), Y1
	VMOVUPS 64(DX)(AX*1), Y2
	VMOVUPS 96(DX)(AX*1), Y3
	VMULPS  0(SI)(AX*1), Y8, Y4
	VMULPS  32(SI)(AX*1), Y8, Y5
	VMULPS  64(SI)(AX*1), Y8, Y6
	VMULPS  96(SI)(AX*1), Y8, Y7
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	VMOVUPS Y0, 0(DX)(AX*1)
	VMOVUPS Y1, 32(DX)(AX*1)
	VMOVUPS Y2, 64(DX)(AX*1)
	VMOVUPS Y3, 96(DX)(AX*1)
	ADDQ    $128, AX
	SUBQ    $32, CX
	JMP     into32
	PCALIGN $64

into8:
	CMPQ    CX, $8
	JLT     intotail
	VMOVUPS (DX)(AX*1), Y0
	VMULPS  (SI)(AX*1), Y8, Y4
	VADDPS  Y4, Y0, Y0
	VMOVUPS Y0, (DX)(AX*1)
	ADDQ    $32, AX
	SUBQ    $8, CX
	JMP     into8

intotail:
	TESTQ      CX, CX
	JZ         intonext
	VMASKMOVPS (DX)(AX*1), Y10, Y0
	VMASKMOVPS (SI)(AX*1), Y10, Y4
	VMULPS     Y4, Y8, Y4
	VADDPS     Y4, Y0, Y0
	VMASKMOVPS Y0, Y10, (DX)(AX*1)

intonext:
	ADDQ $4, R12
	ADDQ R9, SI
	DECQ BX
	JNZ  into
	VZEROUPPER
	MOVB $1, ret+56(FP)
	RET

intobad:
	VZEROUPPER
	MOVB $0, ret+56(FP)
	RET

// func maxAbsBitsAVX2(src *float32, n int) uint32
//
// The int8 scan: the largest sign-masked bit pattern among n > 0 elements at
// src, as maxAbsBits computes it — VPAND clears the sign, VPMAXUD keeps the
// unsigned maximum, four accumulators for 32 elements a step, then 8 a step
// and a masked tail whose cleared lanes load as +0 (bits 0, the identity of
// the maximum). The eight lanes of the four accumulators are folded last.
//
// SI the next element, CX the elements left, Y15 0x7fffffff in every lane,
// Y0-Y3 the running maxima, Y10 the tail's lane mask.
TEXT ·maxAbsBitsAVX2(SB), NOSPLIT, $0-20
	MOVQ     src+0(FP), SI
	MOVQ     n+8(FP), CX
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $1, Y15, Y15
	VPXOR    Y0, Y0, Y0
	VPXOR    Y1, Y1, Y1
	VPXOR    Y2, Y2, Y2
	VPXOR    Y3, Y3, Y3
	PCALIGN  $64

scan32:
	CMPQ    CX, $32
	JLT     scan8
	VPAND   0(SI), Y15, Y4
	VPAND   32(SI), Y15, Y5
	VPAND   64(SI), Y15, Y6
	VPAND   96(SI), Y15, Y7
	VPMAXUD Y4, Y0, Y0
	VPMAXUD Y5, Y1, Y1
	VPMAXUD Y6, Y2, Y2
	VPMAXUD Y7, Y3, Y3
	ADDQ    $128, SI
	SUBQ    $32, CX
	JMP     scan32
	PCALIGN $64

scan8:
	CMPQ    CX, $8
	JLT     scantail
	VPAND   (SI), Y15, Y4
	VPMAXUD Y4, Y0, Y0
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     scan8

scantail:
	TESTQ      CX, CX
	JZ         scanfold
	LEAQ       tailmask<>+32(SB), DX
	SHLQ       $2, CX
	SUBQ       CX, DX
	VMOVDQU    (DX), Y10
	VMASKMOVPS (SI), Y10, Y4
	VPAND      Y4, Y15, Y4
	VPMAXUD    Y4, Y0, Y0

scanfold:
	VPMAXUD      Y1, Y0, Y0
	VPMAXUD      Y3, Y2, Y2
	VPMAXUD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPMAXUD      X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, ret+16(FP)
	VZEROUPPER
	RET

// ROUND is the finite round trip of one vector in place: s = v*inv (VMULPS),
// plus 0.5 carrying s's sign (the sign bit masked out of s, OR'd into 0.5),
// truncated to an integer (VCVTTPS2DQ, as Go's int32(f) does; never the
// rounding VCVTPS2DQ, which would send ties to even), back to float32 and
// times scale. Every step rounds as q8Finite's float32 operations do.
#define ROUND(r, t) \
	VMULPS     r, Y8, r  \
	VPAND      r, Y10, t \
	VPOR       t, Y11, t \
	VADDPS     t, r, r   \
	VCVTTPS2DQ r, r      \
	VCVTDQ2PS  r, r      \
	VMULPS     r, Y9, r

// func roundTripI8AVX2(dst, src *float32, n int, inv, scale float32)
//
// RoundTripI8's finite path over n > 0 elements: 32 elements a step, then 8,
// then a masked tail. Every vector is loaded before its result is stored, so
// dst may be src.
//
// DI dst, SI src, AX the byte offset in both, CX the elements left, Y8 inv
// and Y9 scale in every lane, Y10 the sign bit, Y11 0.5, Y12 the tail's lane
// mask.
TEXT ·roundTripI8AVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y8
	VBROADCASTSS scale+28(FP), Y9
	VPCMPEQD     Y10, Y10, Y10
	VPSLLD       $31, Y10, Y10
	MOVL         $0x3f000000, DX
	VMOVD        DX, X11
	VPBROADCASTD X11, Y11
	XORQ         AX, AX
	PCALIGN      $64

round32:
	CMPQ    CX, $32
	JLT     round8
	VMOVUPS 0(SI)(AX*1), Y0
	VMOVUPS 32(SI)(AX*1), Y1
	VMOVUPS 64(SI)(AX*1), Y2
	VMOVUPS 96(SI)(AX*1), Y3
	ROUND(Y0, Y4)
	ROUND(Y1, Y5)
	ROUND(Y2, Y6)
	ROUND(Y3, Y7)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	SUBQ    $32, CX
	JMP     round32
	PCALIGN $64

round8:
	CMPQ    CX, $8
	JLT     roundtail
	VMOVUPS (SI)(AX*1), Y0
	ROUND(Y0, Y4)
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $8, CX
	JMP     round8

roundtail:
	// One to seven elements: the masked load reads, and the masked store
	// writes, nothing past the end of src or dst.
	TESTQ      CX, CX
	JZ         rounddone
	LEAQ       tailmask<>+32(SB), DX
	SHLQ       $2, CX
	SUBQ       CX, DX
	VMOVDQU    (DX), Y12
	VMASKMOVPS (SI)(AX*1), Y12, Y0
	ROUND(Y0, Y4)
	VMASKMOVPS Y0, Y12, (DI)(AX*1)

rounddone:
	VZEROUPPER
	RET

// DOT is acc += round(a * b) in eight lanes, a in Y8: the product is rounded
// to float32 by VMULPS before VADDPS adds it, as in MAC.
#define DOT(b, acc) \
	VMULPS b, Y8, Y9 \
	VADDPS Y9, acc, acc

// func dotLanesAVX2(dst *float32, a *float32, b *float32, stride int, pairs int, comps int)
//
// DotLanes for pairs > 0 blocks of comps > 0 rows: eight blocks at a time,
// then the one to seven left over. A row of a is loaded once and multiplied
// by the same row of every block of the tile; each accumulator is one
// block's eight chains, started from +0 and fed its rows in order.
//
// DI dst, R10 a, BX the tile's first block of b, R8 stride and R12 three
// strides in bytes, DX the blocks left, R11 comps; in a tile's loop SI the
// current row of a, AX the same row of the tile's first block and R9 of its
// fifth, CX the rows left, Y8 a's row, Y9 a product, Y0-Y7 the accumulators.
// A block past the last is never read: R9 may point beyond b.
TEXT ·dotLanesAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R10
	MOVQ b+16(FP), BX
	MOVQ stride+24(FP), R8
	MOVQ pairs+32(FP), DX
	MOVQ comps+40(FP), R11
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R12

dottile:
	CMPQ   DX, $8
	JLT    dotrest
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   R10, SI
	MOVQ   BX, AX
	LEAQ   (BX)(R8*4), R9
	MOVQ   R11, CX
	PCALIGN $64

dot8:
	VMOVUPS (SI), Y8
	DOT((AX), Y0)
	DOT((AX)(R8*1), Y1)
	DOT((AX)(R8*2), Y2)
	DOT((AX)(R12*1), Y3)
	DOT((R9), Y4)
	DOT((R9)(R8*1), Y5)
	DOT((R9)(R8*2), Y6)
	DOT((R9)(R12*1), Y7)
	ADDQ    $32, SI
	ADDQ    $32, AX
	ADDQ    $32, R9
	DECQ    CX
	JNZ     dot8
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	LEAQ    (BX)(R8*8), BX
	SUBQ    $8, DX
	JMP     dottile

dotrest:
	// One to seven blocks: the same loop, leaving it after the DX-th
	// accumulator (the same branch every row, so it predicts).
	TESTQ  DX, DX
	JZ     dotdone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	MOVQ   R10, SI
	MOVQ   BX, AX
	LEAQ   (BX)(R8*4), R9
	MOVQ   R11, CX
	PCALIGN $64

dotn:
	VMOVUPS (SI), Y8
	DOT((AX), Y0)
	CMPQ    DX, $2
	JLT     dotnext
	DOT((AX)(R8*1), Y1)
	CMPQ    DX, $3
	JLT     dotnext
	DOT((AX)(R8*2), Y2)
	CMPQ    DX, $4
	JLT     dotnext
	DOT((AX)(R12*1), Y3)
	CMPQ    DX, $5
	JLT     dotnext
	DOT((R9), Y4)
	CMPQ    DX, $6
	JLT     dotnext
	DOT((R9)(R8*1), Y5)
	CMPQ    DX, $7
	JLT     dotnext
	DOT((R9)(R8*2), Y6)

dotnext:
	ADDQ    $32, SI
	ADDQ    $32, AX
	ADDQ    $32, R9
	DECQ    CX
	JNZ     dotn
	VMOVUPS Y0, 0(DI)
	CMPQ    DX, $2
	JLT     dotdone
	VMOVUPS Y1, 32(DI)
	CMPQ    DX, $3
	JLT     dotdone
	VMOVUPS Y2, 64(DI)
	CMPQ    DX, $4
	JLT     dotdone
	VMOVUPS Y3, 96(DI)
	CMPQ    DX, $5
	JLT     dotdone
	VMOVUPS Y4, 128(DI)
	CMPQ    DX, $6
	JLT     dotdone
	VMOVUPS Y5, 160(DI)
	CMPQ    DX, $7
	JLT     dotdone
	VMOVUPS Y6, 192(DI)

dotdone:
	VZEROUPPER
	RET

// FACTOR loads the next term's factor row into Y8, the lanes whose factor
// compares equal to zero (+0 or -0; never a NaN) as a mask into Y10 and as
// bits into DX. A factor row outside facs ends the call before it is read.
#define FACTOR \
	MOVLQSX   (R12)(BX*4), DX \
	CMPQ      DX, R13         \
	JAE       lanebad         \
	SHLQ      $5, DX          \
	VMOVUPS   (R10)(DX*1), Y8 \
	VCMPPS    $0, Y11, Y8, Y10 \
	VMOVMSKPS Y10, DX

// LMAC is acc += round(factor * x) in eight lanes, as MAC with the factor
// row in Y8 in place of one broadcast factor.
#define LMAC(off, acc) \
	VMULPS off(SI), Y8, Y9 \
	VADDPS Y9, acc, acc

// LSEL is LMAC with -0 (Y12) selected in place of the product in the lanes
// Y10 marks: a zero factor's lane adds -0, which leaves every value as it
// is, where multiplying by the zero could make a NaN or turn -0 into +0.
#define LSEL(off, acc) \
	VMULPS    off(SI), Y8, Y9  \
	VBLENDVPS Y10, Y12, Y9, Y9 \
	VADDPS    Y9, acc, acc

// func axpyLanesAVX2(dst *float32, start *float32, rows int, x *float32, stride int, facs *float32, nfacs int, at *int32, terms int) bool
//
// AxpyLanes for rows > 0 rows of dst and terms > 0 terms: dst is cut into
// tiles of eight rows, then single rows; a tile is loaded from start (or is
// +0 when start is nil) and stays in registers while every term is added to
// it, in order, then is stored to dst. A term whose eight factors are all
// zero is skipped, one with none zero takes the plain products, and the rest
// select -0 in their zero lanes. Returns false, with dst partly updated, on
// meeting an at[u] outside [0, nfacs).
//
// DI the current tile of dst, AX the same tile of start (0 throughout when
// start is nil), CX the rows not yet done, R9 the tile in x's first block,
// R8 stride in bytes, R10 facs, R13 nfacs, R12 the end of at, R11 minus the
// term count, BX the same counting up to zero through one tile's terms, SI
// the tile in the current term's block; Y8 the factor row, Y10 its zero
// lanes, Y11 +0 and Y12 -0 in every lane, Y0-Y7 the tile.
TEXT ·axpyLanesAVX2(SB), NOSPLIT, $0-73
	MOVQ     dst+0(FP), DI
	MOVQ     start+8(FP), AX
	MOVQ     rows+16(FP), CX
	MOVQ     x+24(FP), R9
	MOVQ     stride+32(FP), R8
	MOVQ     facs+40(FP), R10
	MOVQ     nfacs+48(FP), R13
	MOVQ     at+56(FP), R12
	MOVQ     terms+64(FP), R11
	SHLQ     $2, R8
	LEAQ     (R12)(R11*4), R12
	NEGQ     R11
	VXORPS   Y11, Y11, Y11
	VPCMPEQD Y12, Y12, Y12
	VPSLLD   $31, Y12, Y12

lanetile:
	CMPQ    CX, $8
	JLT     lanerow
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	VXORPS  Y4, Y4, Y4
	VXORPS  Y5, Y5, Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7
	TESTQ   AX, AX
	JZ      lanestart
	VMOVUPS 0(AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVUPS 64(AX), Y2
	VMOVUPS 96(AX), Y3
	VMOVUPS 128(AX), Y4
	VMOVUPS 160(AX), Y5
	VMOVUPS 192(AX), Y6
	VMOVUPS 224(AX), Y7
	ADDQ    $256, AX

lanestart:
	MOVQ R9, SI
	MOVQ R11, BX
	PCALIGN $64

laneterm:
	FACTOR
	CMPL  DX, $0xff
	JEQ   lanenext
	TESTL DX, DX
	JNZ   lanemixed
	LMAC(0, Y0)
	LMAC(32, Y1)
	LMAC(64, Y2)
	LMAC(96, Y3)
	LMAC(128, Y4)
	LMAC(160, Y5)
	LMAC(192, Y6)
	LMAC(224, Y7)
	JMP   lanenext

lanemixed:
	LSEL(0, Y0)
	LSEL(32, Y1)
	LSEL(64, Y2)
	LSEL(96, Y3)
	LSEL(128, Y4)
	LSEL(160, Y5)
	LSEL(192, Y6)
	LSEL(224, Y7)

lanenext:
	ADDQ    R8, SI
	INCQ    BX
	JNZ     laneterm
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, R9
	SUBQ    $8, CX
	JMP     lanetile

lanerow:
	// One to seven rows, one at a time; the select of no lanes is the
	// plain product, so every term that is not all zero takes it.
	TESTQ   CX, CX
	JZ      laneok
	VXORPS  Y0, Y0, Y0
	TESTQ   AX, AX
	JZ      rowstart
	VMOVUPS (AX), Y0
	ADDQ    $32, AX

rowstart:
	MOVQ R9, SI
	MOVQ R11, BX
	PCALIGN $64

rowterm:
	FACTOR
	CMPL DX, $0xff
	JEQ  rownext
	LSEL(0, Y0)

rownext:
	ADDQ    R8, SI
	INCQ    BX
	JNZ     rowterm
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R9
	DECQ    CX
	JMP     lanerow

laneok:
	VZEROUPPER
	MOVB $1, ret+72(FP)
	RET

lanebad:
	VZEROUPPER
	MOVB $0, ret+72(FP)
	RET

// TR4 transposes the 4x4 block in each 128-bit half of a, b, c, d (a row
// each) in place, through t0-t3: VUNPCKLPS/VUNPCKHPS interleave the rows
// pairwise; then for each pair of result rows one VSHUFPS swaps the middle
// of the two interleaved rows and two VBLENDPS pick the halves, which keeps
// two of the shuffle port's four steps on the blend ports.
#define TR4(a, b, c, d, t0, t1, t2, t3) \
	VUNPCKLPS b, a, t0          \
	VUNPCKHPS b, a, t1          \
	VUNPCKLPS d, c, t2          \
	VUNPCKHPS d, c, t3          \
	VSHUFPS   $0x4e, t2, t0, b \
	VBLENDPS  $0xcc, b, t0, a  \
	VBLENDPS  $0xcc, t2, b, b  \
	VSHUFPS   $0x4e, t3, t1, d \
	VBLENDPS  $0xcc, d, t1, c  \
	VBLENDPS  $0xcc, t3, d, d

// func transpose8AVX2(dst *float32, dstStride int, src *float32, srcStride int, rowTiles, colTiles int)
//
// TransposeBlock's body for a block of rowTiles x colTiles whole 8x8 tiles:
// tile (r, k) is rows 8r to 8r+7 of src from column 8k, written as rows 8k
// to 8k+7 of dst from column 8r. Each register is loaded with four columns
// of a row j in its low half and of row j+4 in its high half, so the
// in-half 4x4 transposes leave every register holding one whole row of the
// result and no shuffle crosses the halves.
//
// SI and BX src's rows 0 and 4 of the tile, R9 srcStride and R11 three of
// it in bytes; DI and DX dst's rows 0 and 4 of the tile, R8 dstStride and
// R10 three of it in bytes; CX the tiles left in the strip, R12 the strips
// left; AX and R13 the strip's start in src and in dst.
TEXT ·transpose8AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), R9
	MOVQ rowTiles+32(FP), R12
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (R8)(R8*2), R10
	LEAQ (R9)(R9*2), R11

trstrip:
	MOVQ colTiles+40(FP), CX
	MOVQ SI, AX
	MOVQ DI, R13
	LEAQ (SI)(R9*4), BX
	LEAQ (DI)(R8*4), DX
	PCALIGN $64

tr8:
	VMOVUPS     (SI), X0
	VINSERTF128 $1, (BX), Y0, Y0
	VMOVUPS     (SI)(R9*1), X1
	VINSERTF128 $1, (BX)(R9*1), Y1, Y1
	VMOVUPS     (SI)(R9*2), X2
	VINSERTF128 $1, (BX)(R9*2), Y2, Y2
	VMOVUPS     (SI)(R11*1), X3
	VINSERTF128 $1, (BX)(R11*1), Y3, Y3
	VMOVUPS     16(SI), X4
	VINSERTF128 $1, 16(BX), Y4, Y4
	VMOVUPS     16(SI)(R9*1), X5
	VINSERTF128 $1, 16(BX)(R9*1), Y5, Y5
	VMOVUPS     16(SI)(R9*2), X6
	VINSERTF128 $1, 16(BX)(R9*2), Y6, Y6
	VMOVUPS     16(SI)(R11*1), X7
	VINSERTF128 $1, 16(BX)(R11*1), Y7, Y7
	TR4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	TR4(Y4, Y5, Y6, Y7, Y12, Y13, Y14, Y15)
	VMOVUPS     Y0, (DI)
	VMOVUPS     Y1, (DI)(R8*1)
	VMOVUPS     Y2, (DI)(R8*2)
	VMOVUPS     Y3, (DI)(R10*1)
	VMOVUPS     Y4, (DX)
	VMOVUPS     Y5, (DX)(R8*1)
	VMOVUPS     Y6, (DX)(R8*2)
	VMOVUPS     Y7, (DX)(R10*1)
	ADDQ        $32, SI
	ADDQ        $32, BX
	LEAQ        (DI)(R8*8), DI
	LEAQ        (DX)(R8*8), DX
	DECQ        CX
	JNZ         tr8
	LEAQ        (AX)(R9*8), SI
	LEAQ        32(R13), DI
	DECQ        R12
	JNZ         trstrip
	VZEROUPPER
	RET

// GSEL is acc += round(x * s) in eight lanes, x loaded from off(DX) and s
// in every lane of Y8, with -0 (Y12) selected in place of the product in
// the lanes where x compares equal to zero (+0 or -0, against Y11): such a
// lane adds nothing, as LSEL's zero-factor lanes do.
#define GSEL(off, acc) \
	VMOVUPS   off(DX), Y9      \
	VCMPPS    $0, Y11, Y9, Y10 \
	VMULPS    Y8, Y9, Y9       \
	VBLENDVPS Y10, Y12, Y9, Y9 \
	VADDPS    Y9, acc, acc

// GTERM broadcasts the next term's scale.
#define GTERM \
	VBROADCASTSS (R11)(BX*1), Y8

// GNEXT steps to the following term's row and scale, and loops.
#define GNEXT(loop) \
	ADDQ R9, DX \
	ADDQ $4, BX \
	JNZ  loop

// GSTART points DX and BX at the first term for the tile at AX.
#define GSTART \
	LEAQ (SI)(AX*1), DX \
	MOVQ R10, BX

// func gemvLanesAVX2(dst *float32, n int, x *float32, stride int, s *float32, terms int)
//
// The one-column GEMM with its elements in the lanes: for each term t <
// terms in ascending order, dst[j] += round(x[t*stride+j] * s[t]) for every j
// < n whose x[t*stride+j] does not compare equal to zero; needs n > 0 and
// terms > 0. The lane is the element: a row of x holds one factor per output
// element, and the zero test is per lane, by -0 selected in place of the
// product (x + -0 is x for every x). The destination is cut into
// axpyRowsAVX2's tiles and masked tail, each held in registers across every
// term.
//
// DI dst, AX the byte offset of the tile in dst and in every row of x, CX
// the elements left, SI x, R9 stride in bytes, R11 the end of s and R10
// minus its length in bytes; in a tile's loop DX the current row at the tile
// and BX its scale's offset from R11, counting up to zero; Y8 the
// scale in every lane, Y9 x and then the product, Y10 x's zero lanes, Y11
// +0 and Y12 -0 in every lane, Y13 the tail's lane mask, Y0-Y7 the tile.
TEXT ·gemvLanesAVX2(SB), NOSPLIT, $0-48
	MOVQ     dst+0(FP), DI
	MOVQ     n+8(FP), CX
	MOVQ     x+16(FP), SI
	MOVQ     stride+24(FP), R9
	MOVQ     s+32(FP), R11
	MOVQ     terms+40(FP), R10
	SHLQ     $2, R9
	SHLQ     $2, R10
	ADDQ     R10, R11
	NEGQ     R10
	XORQ     AX, AX
	VXORPS   Y11, Y11, Y11
	VPCMPEQD Y12, Y12, Y12
	VPSLLD   $31, Y12, Y12

gtile64:
	CMPQ    CX, $64
	JLT     gtile32
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	VMOVUPS 128(DI)(AX*1), Y4
	VMOVUPS 160(DI)(AX*1), Y5
	VMOVUPS 192(DI)(AX*1), Y6
	VMOVUPS 224(DI)(AX*1), Y7
	GSTART
	PCALIGN $64

gterm64:
	GTERM
	GSEL(0, Y0)
	GSEL(32, Y1)
	GSEL(64, Y2)
	GSEL(96, Y3)
	GSEL(128, Y4)
	GSEL(160, Y5)
	GSEL(192, Y6)
	GSEL(224, Y7)
	GNEXT(gterm64)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	VMOVUPS Y4, 128(DI)(AX*1)
	VMOVUPS Y5, 160(DI)(AX*1)
	VMOVUPS Y6, 192(DI)(AX*1)
	VMOVUPS Y7, 224(DI)(AX*1)
	ADDQ    $256, AX
	SUBQ    $64, CX
	JMP     gtile64

gtile32:
	TESTQ   $32, CX
	JZ      gtile16
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	GSTART
	PCALIGN $64

gterm32:
	GTERM
	GSEL(0, Y0)
	GSEL(32, Y1)
	GSEL(64, Y2)
	GSEL(96, Y3)
	GNEXT(gterm32)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ    $128, AX

gtile16:
	TESTQ   $16, CX
	JZ      gtile8
	VMOVUPS 0(DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	GSTART
	PCALIGN $64

gterm16:
	GTERM
	GSEL(0, Y0)
	GSEL(32, Y1)
	GNEXT(gterm16)
	VMOVUPS Y0, 0(DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	ADDQ    $64, AX

gtile8:
	TESTQ   $8, CX
	JZ      gtail
	VMOVUPS 0(DI)(AX*1), Y0
	GSTART
	PCALIGN $64

gterm8:
	GTERM
	GSEL(0, Y0)
	GNEXT(gterm8)
	VMOVUPS Y0, 0(DI)(AX*1)
	ADDQ    $32, AX

gtail:
	// One to seven elements: masked loads read, and the masked store
	// writes, nothing past the end of dst or of a row of x. A masked-off
	// lane loads as +0 and adds -0 to a destination lane that is not stored.
	ANDQ       $7, CX
	JZ         gdone
	LEAQ       tailmask<>+32(SB), DX
	SHLQ       $2, CX
	SUBQ       CX, DX
	VMOVDQU    (DX), Y13
	VMASKMOVPS (DI)(AX*1), Y13, Y0
	GSTART
	PCALIGN $64

gtermtail:
	GTERM
	VMASKMOVPS (DX), Y13, Y9
	VCMPPS     $0, Y11, Y9, Y10
	VMULPS     Y8, Y9, Y9
	VBLENDVPS  Y10, Y12, Y9, Y9
	VADDPS     Y9, Y0, Y0
	GNEXT(gtermtail)
	VMASKMOVPS Y0, Y13, (DI)(AX*1)

gdone:
	VZEROUPPER
	RET

// func prefetchLines(p *float32, n int)
//
// PREFETCHT0 on every 64-byte line from the one holding p[0] to the one
// holding p[n-1]: a row about to be read, requested ahead of its loads so its
// cache misses overlap other work. A prefetch is a hint — it cannot fault and
// loads nothing into a register — and it uses no vector register.
TEXT ·prefetchLines(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
	LEAQ (AX)(CX*4), CX
	ANDQ $-64, AX

line:
	PREFETCHT0 (AX)
	ADDQ       $64, AX
	CMPQ       AX, CX
	JB         line
	RET
