package dct

import "fmt"

// Transform names a forward/inverse block-transform engine. The codec
// runs TransformAAN, the zero value, on every production path; the naive
// separable transform stays as the reference the AAN kernels are tested
// against. Tools that replay the codec's stages (and qtable's folded
// tables) take a Transform so they time and fold for the same engine the
// codec runs.
//
// Both engines compute the same orthonormal 2-D DCT; they differ only in
// operation count and floating-point rounding (bounded by ~1e-12 per
// coefficient, which the codec's quantizer absorbs — see the golden
// stream digests and the block-level equivalence tests in
// internal/jpegcodec).
type Transform int

const (
	// TransformAAN is the Arai–Agui–Nakajima fast transform
	// (ForwardAAN/InverseAAN): 5 multiplications per 1-D pass instead of
	// 64, roughly halving block-transform cost. It is the zero value.
	TransformAAN Transform = iota
	// TransformNaive is the separable row–column transform
	// (Forward/Inverse), the reference implementation.
	TransformNaive
)

func (t Transform) String() string {
	switch t {
	case TransformNaive:
		return "naive"
	case TransformAAN:
		return "aan"
	default:
		return fmt.Sprintf("transform(%d)", int(t))
	}
}

// Forward replaces b (spatial samples) with its 2-D DCT coefficients
// using the selected engine. Unknown engines fall back to the naive
// path.
func (t Transform) Forward(b *Block) {
	if t == TransformAAN {
		ForwardAAN(b)
		return
	}
	Forward(b)
}

// Inverse replaces b (DCT coefficients) with spatial samples using the
// selected engine.
func (t Transform) Inverse(b *Block) {
	if t == TransformAAN {
		InverseAAN(b)
		return
	}
	Inverse(b)
}

// ForwardScaled runs the forward transform in the engine's native scaled
// basis: TransformAAN runs only the raw butterflies (output divided by
// AANForwardDescale per band), TransformNaive is already orthonormal and
// runs Forward unchanged. Callers must quantize with divisors built for
// the same engine (qtable.Table.FwdScaled), which fold the residual scale
// back in — that pairing is what removes the per-block descale pass.
func (t Transform) ForwardScaled(b *Block) {
	if t == TransformAAN {
		ForwardAANRaw(b)
		return
	}
	Forward(b)
}

// InverseScaled is the inverse counterpart: input must be dequantized
// with multipliers built for the same engine (qtable.Table.InvScaled),
// which pre-apply AANInversePrescale for TransformAAN; TransformNaive
// takes orthonormal coefficients and runs Inverse unchanged.
func (t Transform) InverseScaled(b *Block) {
	if t == TransformAAN {
		InverseAANRaw(b)
		return
	}
	Inverse(b)
}
