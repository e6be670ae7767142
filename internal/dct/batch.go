package dct

// Batch-of-blocks transforms: the same butterflies as the per-block API,
// restructured over a contiguous run of 64-float blocks ("flat plane")
// so the hot loops compile to straight-line code the hardware can
// pipeline. The per-block kernels (fdctAAN1D/idctAAN1D) index through a
// closure with a runtime stride, which costs a bounds check per element
// access and defeats instruction scheduling; the batch kernels below are
// stride-free — the row pass walks eight-float rows with constant
// indices, the column pass walks the 8 column lanes of one block with
// constant row offsets — so every bounds check is provably dead and each
// lane iteration is an independent dependency chain.
//
// The arithmetic is the per-block arithmetic, expression for expression,
// in the same order. That is a contract, not an accident: the codec
// requires batch and per-block pipelines to emit byte-identical streams,
// which for float64 means bit-identical intermediate values, which means
// the same IEEE operations in the same order (see batch_test.go, which
// pins bit equality, and the jpegcodec equivalence suites downstream).
//
// Layout: a plane is a []float64 whose length is a multiple of 64; block
// k occupies p[64k : 64k+64] in row-major order, exactly a *Block laid
// end to end. Callers gather whole runs (a block row of a component, a
// restart segment) into a pooled plane, run one batch call, and fuse the
// quantizer pass over the same run — no per-block dispatch remains.

// Blocks returns the number of 64-float blocks in p, panicking if p is
// not block-aligned. Every batch entry point funnels through it.
func Blocks(p []float64) int {
	if len(p)%BlockSize2 != 0 {
		panic("dct: batch plane length is not a multiple of 64")
	}
	return len(p) / BlockSize2
}

// BlockSize2 is the flat length of one block (BlockSize²).
const BlockSize2 = BlockSize * BlockSize

// fdctAANRowsFlat runs the forward AAN butterfly over the 8 rows of one
// block. It mirrors fdctAAN1D with off = 8y, stride = 1; the (*[8])
// re-slice pins the row length so the body indexes with constants.
func fdctAANRowsFlat(b *Block) {
	for o := 0; o <= 56; o += 8 {
		r := (*[8]float64)(b[o:])
		tmp0 := r[0] + r[7]
		tmp7 := r[0] - r[7]
		tmp1 := r[1] + r[6]
		tmp6 := r[1] - r[6]
		tmp2 := r[2] + r[5]
		tmp5 := r[2] - r[5]
		tmp3 := r[3] + r[4]
		tmp4 := r[3] - r[4]

		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		r[0] = tmp10 + tmp11
		r[4] = tmp10 - tmp11

		z1 := (tmp12 + tmp13) * aanC4
		r[2] = tmp13 + z1
		r[6] = tmp13 - z1

		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7

		z5 := (tmp10 - tmp12) * aanC5
		z2 := aanC2*tmp10 + z5
		z4 := aanC6*tmp12 + z5
		z3 := tmp11 * aanC4

		z11 := tmp7 + z3
		z13 := tmp7 - z3

		r[5] = z13 + z2
		r[3] = z13 - z2
		r[1] = z11 + z4
		r[7] = z11 - z4
	}
}

// fdctAANColsFlat runs the forward AAN butterfly down the 8 columns of
// one block: lane x of the loop is fdctAAN1D with off = x, stride = 8,
// written with constant row offsets so each lane is branch- and
// bounds-check-free and independent of its neighbours.
func fdctAANColsFlat(b *Block) {
	for x := 0; x < 8; x++ {
		tmp0 := b[x] + b[x+56]
		tmp7 := b[x] - b[x+56]
		tmp1 := b[x+8] + b[x+48]
		tmp6 := b[x+8] - b[x+48]
		tmp2 := b[x+16] + b[x+40]
		tmp5 := b[x+16] - b[x+40]
		tmp3 := b[x+24] + b[x+32]
		tmp4 := b[x+24] - b[x+32]

		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		b[x] = tmp10 + tmp11
		b[x+32] = tmp10 - tmp11

		z1 := (tmp12 + tmp13) * aanC4
		b[x+16] = tmp13 + z1
		b[x+48] = tmp13 - z1

		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7

		z5 := (tmp10 - tmp12) * aanC5
		z2 := aanC2*tmp10 + z5
		z4 := aanC6*tmp12 + z5
		z3 := tmp11 * aanC4

		z11 := tmp7 + z3
		z13 := tmp7 - z3

		b[x+40] = z13 + z2
		b[x+24] = z13 - z2
		b[x+8] = z11 + z4
		b[x+56] = z11 - z4
	}
}

// idctAANColsFlat runs the inverse AAN butterfly down the 8 columns of
// one block (idctAAN1D with off = x, stride = 8).
func idctAANColsFlat(b *Block) {
	for x := 0; x < 8; x++ {
		tmp0 := b[x]
		tmp1 := b[x+16]
		tmp2 := b[x+32]
		tmp3 := b[x+48]

		tmp10 := tmp0 + tmp2
		tmp11 := tmp0 - tmp2
		tmp13 := tmp1 + tmp3
		tmp12 := (tmp1-tmp3)*(2*aanC4) - tmp13

		tmp0 = tmp10 + tmp13
		tmp3 = tmp10 - tmp13
		tmp1 = tmp11 + tmp12
		tmp2 = tmp11 - tmp12

		tmp4 := b[x+8]
		tmp5 := b[x+24]
		tmp6 := b[x+40]
		tmp7 := b[x+56]

		z13 := tmp6 + tmp5
		z10 := tmp6 - tmp5
		z11 := tmp4 + tmp7
		z12 := tmp4 - tmp7

		tmp7 = z11 + z13
		tmp11 = (z11 - z13) * (2 * aanC4)

		z5 := (z10 + z12) * 1.847759065022573
		tmp10 = 1.082392200292394*z12 - z5
		tmp12 = -2.613125929752753*z10 + z5

		tmp6 = tmp12 - tmp7
		tmp5 = tmp11 - tmp6
		tmp4 = tmp10 + tmp5

		b[x] = tmp0 + tmp7
		b[x+56] = tmp0 - tmp7
		b[x+8] = tmp1 + tmp6
		b[x+48] = tmp1 - tmp6
		b[x+16] = tmp2 + tmp5
		b[x+40] = tmp2 - tmp5
		b[x+32] = tmp3 + tmp4
		b[x+24] = tmp3 - tmp4
	}
}

// idctAANRowsFlat runs the inverse AAN butterfly over the 8 rows of one
// block (idctAAN1D with off = 8y, stride = 1).
func idctAANRowsFlat(b *Block) {
	for o := 0; o <= 56; o += 8 {
		r := (*[8]float64)(b[o:])
		tmp0 := r[0]
		tmp1 := r[2]
		tmp2 := r[4]
		tmp3 := r[6]

		tmp10 := tmp0 + tmp2
		tmp11 := tmp0 - tmp2
		tmp13 := tmp1 + tmp3
		tmp12 := (tmp1-tmp3)*(2*aanC4) - tmp13

		tmp0 = tmp10 + tmp13
		tmp3 = tmp10 - tmp13
		tmp1 = tmp11 + tmp12
		tmp2 = tmp11 - tmp12

		tmp4 := r[1]
		tmp5 := r[3]
		tmp6 := r[5]
		tmp7 := r[7]

		z13 := tmp6 + tmp5
		z10 := tmp6 - tmp5
		z11 := tmp4 + tmp7
		z12 := tmp4 - tmp7

		tmp7 = z11 + z13
		tmp11 = (z11 - z13) * (2 * aanC4)

		z5 := (z10 + z12) * 1.847759065022573
		tmp10 = 1.082392200292394*z12 - z5
		tmp12 = -2.613125929752753*z10 + z5

		tmp6 = tmp12 - tmp7
		tmp5 = tmp11 - tmp6
		tmp4 = tmp10 + tmp5

		r[0] = tmp0 + tmp7
		r[7] = tmp0 - tmp7
		r[1] = tmp1 + tmp6
		r[6] = tmp1 - tmp6
		r[2] = tmp2 + tmp5
		r[5] = tmp2 - tmp5
		r[4] = tmp3 + tmp4
		r[3] = tmp3 - tmp4
	}
}

// ForwardAANRawBatch runs the raw forward AAN butterflies over every
// block of p: each block ends up as its orthonormal 2-D DCT divided by
// AANForwardDescale per band, exactly as ForwardAANRaw leaves a single
// block. Callers that quantize fold the factor into their divisors.
func ForwardAANRawBatch(p []float64) {
	n := Blocks(p)
	for k := 0; k < n; k++ {
		b := (*Block)(p[k*BlockSize2:])
		fdctAANRowsFlat(b)
		fdctAANColsFlat(b)
	}
}

// InverseAANRawBatch runs the raw inverse AAN butterflies over every
// block of p. Input blocks must carry the scaled convention
// (orthonormal × AANInversePrescale per band), as for InverseAANRaw.
func InverseAANRawBatch(p []float64) {
	n := Blocks(p)
	for k := 0; k < n; k++ {
		b := (*Block)(p[k*BlockSize2:])
		idctAANColsFlat(b)
		idctAANRowsFlat(b)
	}
}

// ForwardAANBatch computes the orthonormal 2-D DCT of every block of p
// using the AAN fast algorithm plus the flat descaling pass — the batch
// form of ForwardAAN.
func ForwardAANBatch(p []float64) {
	ForwardAANRawBatch(p)
	for o := 0; o < len(p); o += BlockSize2 {
		b := (*Block)(p[o:])
		for i := 0; i < BlockSize2; i++ {
			b[i] *= aanDescale2D[i]
		}
	}
}

// InverseAANBatch inverts ForwardAANBatch (and ForwardBatch): the batch
// form of InverseAAN.
func InverseAANBatch(p []float64) {
	for o := 0; o < len(p); o += BlockSize2 {
		b := (*Block)(p[o:])
		for i := 0; i < BlockSize2; i++ {
			b[i] *= aanPrescale2D[i]
		}
	}
	InverseAANRawBatch(p)
}

// ForwardBatch runs the naive separable forward transform over every
// block of p — the batch form of Forward, sharing its kernel so the two
// are bit-identical by construction.
func ForwardBatch(p []float64) {
	n := Blocks(p)
	for k := 0; k < n; k++ {
		Forward((*Block)(p[k*BlockSize2:]))
	}
}

// InverseBatch runs the naive separable inverse transform over every
// block of p — the batch form of Inverse.
func InverseBatch(p []float64) {
	n := Blocks(p)
	for k := 0; k < n; k++ {
		Inverse((*Block)(p[k*BlockSize2:]))
	}
}

// ForwardScaledBatch is the batch form of Transform.ForwardScaled: the
// forward transform of every block of p in the engine's native scaled
// basis. Pair with divisors built for the same engine
// (qtable.Table.FwdScaled), exactly as for the per-block call.
func (t Transform) ForwardScaledBatch(p []float64) {
	if t == TransformAAN {
		ForwardAANRawBatch(p)
		return
	}
	ForwardBatch(p)
}

// InverseScaledBatch is the batch form of Transform.InverseScaled: input
// blocks must be dequantized with multipliers built for the same engine
// (qtable.Table.InvScaled).
func (t Transform) InverseScaledBatch(p []float64) {
	if t == TransformAAN {
		InverseAANRawBatch(p)
		return
	}
	InverseBatch(p)
}
