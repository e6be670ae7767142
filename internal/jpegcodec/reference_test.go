package jpegcodec

// Per-block reference pipeline. The codec runs whole block rows through
// the AAN batch kernels (batch.go); these one-tile forms, with the
// engine as an argument, are the oracles the batch helpers, the folded
// tables and the AAN kernels are pinned against — bit for bit under the
// same engine, and naive against AAN through the quantizer.

import (
	"math"

	"repro/internal/dct"
	"repro/internal/qtable"
)

// quantize rounds coef/step half away from zero, the quantizer in T.81 and
// Eq. (1) of the paper's JPEG description, one coefficient at a time.
// q is a fused divisor — the quantization step with any transform scale
// factor already folded in — so every engine funnels through this one
// division. Ties within quantizeTieEps of the boundary round
// deterministically away from zero regardless of which transform engine
// (or folding) produced c and q. roundQuantized is its branch-free batch
// form.
func quantize(c float64, q float64) int32 {
	v := c / q
	neg := v < 0
	if neg {
		v = -v
	}
	r := v + 0.5
	m := math.Floor(r)
	if r-m > 1-quantizeTieEps {
		m++
	}
	out := int32(m)
	if neg {
		out = -out
	}
	return out
}

// blockCoefficients runs the forward path for one 8×8 tile: level shift,
// DCT in the engine's scaled basis, fused quantization, and optional
// zero-masking. tbl carries the engine's scale factors folded into its
// divisors, so the loop is one divide per coefficient — no descale pass.
// samples is the tile in row-major order; the result is in natural order.
func blockCoefficients(samples *[64]uint8, tbl *qtable.FwdScaled, mask *qtable.ZeroMask, xf dct.Transform) [64]int32 {
	var blk dct.Block
	dct.LevelShift(samples[:], &blk)
	xf.ForwardScaled(&blk)
	var out [64]int32
	for i := 0; i < 64; i++ {
		if mask != nil && mask[i] {
			continue
		}
		out[i] = quantize(blk[i], tbl[i])
	}
	return out
}

// reconstructBlock runs the inverse path: fused dequantize (the engine's
// prescale factors live in tbl's multipliers — one multiply per
// coefficient), IDCT in the scaled basis, level unshift.
func reconstructBlock(coefs *[64]int32, tbl *qtable.InvScaled, dst *[64]uint8, xf dct.Transform) {
	var blk dct.Block
	for i := 0; i < 64; i++ {
		blk[i] = float64(coefs[i]) * tbl[i]
	}
	xf.InverseScaled(&blk)
	dct.LevelUnshift(&blk, dst[:])
}
