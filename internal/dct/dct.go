// Package dct implements the 8×8 two-dimensional type-II discrete cosine
// transform and its inverse with the orthonormal scaling used by JPEG
// (ITU-T T.81 §A.3.3):
//
//	F(u,v) = ¼·C(u)·C(v)·Σₓ Σ_y f(x,y)·cos((2x+1)uπ/16)·cos((2y+1)vπ/16)
//
// with C(0)=1/√2 and C(k)=1 otherwise. Three implementations are provided:
// a direct O(N⁴) reference used as a test oracle, a separable row–column
// transform (Forward/Inverse), and the Arai–Agui–Nakajima fast transform
// (ForwardAAN/InverseAAN). The codec runs AAN; the separable transform is
// its reference. The Transform enum (TransformAAN, the zero value, and
// TransformNaive) names one of the two wherever a caller must say which
// — the reference tests, stage replays, qtable's folded tables. All
// implementations compute the same orthonormal transform and differ
// only in floating-point rounding at the ~1e-12 level.
//
// The AAN transform is natively *scaled*: its butterflies produce the
// orthonormal result times a fixed per-band factor. Codecs that
// quantize anyway never pay to undo that scaling — ForwardAANRaw and
// InverseAANRaw expose the bare butterflies (reached through
// Transform.ForwardScaled/InverseScaled), and AANForwardDescale/
// AANInversePrescale export the factors so quantization tables can fold
// them into their divisors and multipliers (see qtable.Table.FwdScaled
// and InvScaled). That turns the per-block hot loop into exactly one
// multiply or divide per coefficient.
package dct

import "math"

// BlockSize is the linear dimension of a JPEG transform block.
const BlockSize = 8

// Block holds an 8×8 tile in row-major order. Depending on context it
// contains level-shifted samples (spatial domain) or DCT coefficients
// (frequency domain).
type Block [BlockSize * BlockSize]float64

// cosTable[u][x] = cos((2x+1)·u·π/16) scaled by C(u)/2, so that a row pass
// followed by a column pass yields the orthonormal 2-D transform.
var cosTable [BlockSize][BlockSize]float64

// basisTable[u][x] = cos((2x+1)·u·π/16) unscaled, used by the reference
// implementation and by BasisFunction.
var basisTable [BlockSize][BlockSize]float64

func init() {
	for u := 0; u < BlockSize; u++ {
		cu := 1.0
		if u == 0 {
			cu = math.Sqrt2 / 2 // 1/√2
		}
		for x := 0; x < BlockSize; x++ {
			c := math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
			basisTable[u][x] = c
			cosTable[u][x] = c * cu / 2
		}
	}
}

// Forward replaces b (spatial samples) with its 2-D DCT coefficients in
// place. b[0] becomes the DC coefficient.
func Forward(b *Block) {
	var tmp Block
	// Row pass: tmp[y][u] = Σₓ b[y][x]·cos[u][x]·C(u)/2
	for y := 0; y < BlockSize; y++ {
		row := b[y*BlockSize : y*BlockSize+BlockSize]
		for u := 0; u < BlockSize; u++ {
			s := 0.0
			ct := &cosTable[u]
			for x := 0; x < BlockSize; x++ {
				s += row[x] * ct[x]
			}
			tmp[y*BlockSize+u] = s
		}
	}
	// Column pass: b[v][u] = Σ_y tmp[y][u]·cos[v][y]·C(v)/2
	for u := 0; u < BlockSize; u++ {
		for v := 0; v < BlockSize; v++ {
			s := 0.0
			ct := &cosTable[v]
			for y := 0; y < BlockSize; y++ {
				s += tmp[y*BlockSize+u] * ct[y]
			}
			b[v*BlockSize+u] = s
		}
	}
}

// Inverse replaces b (DCT coefficients) with spatial samples in place.
func Inverse(b *Block) {
	var tmp Block
	// Column pass: tmp[y][u] = Σ_v b[v][u]·cos[v][y]·C(v)/2
	for u := 0; u < BlockSize; u++ {
		for y := 0; y < BlockSize; y++ {
			s := 0.0
			for v := 0; v < BlockSize; v++ {
				s += b[v*BlockSize+u] * cosTable[v][y]
			}
			tmp[y*BlockSize+u] = s
		}
	}
	// Row pass: b[y][x] = Σ_u tmp[y][u]·cos[u][x]·C(u)/2
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			s := 0.0
			for u := 0; u < BlockSize; u++ {
				s += tmp[y*BlockSize+u] * cosTable[u][x]
			}
			b[y*BlockSize+x] = s
		}
	}
}

// ForwardReference computes the transform by the O(N⁴) textbook definition.
// It is the oracle for Forward in tests.
func ForwardReference(b *Block) {
	var out Block
	for v := 0; v < BlockSize; v++ {
		for u := 0; u < BlockSize; u++ {
			s := 0.0
			for y := 0; y < BlockSize; y++ {
				for x := 0; x < BlockSize; x++ {
					s += b[y*BlockSize+x] * basisTable[u][x] * basisTable[v][y]
				}
			}
			cu, cv := 1.0, 1.0
			if u == 0 {
				cu = math.Sqrt2 / 2
			}
			if v == 0 {
				cv = math.Sqrt2 / 2
			}
			out[v*BlockSize+u] = s * cu * cv / 4
		}
	}
	*b = out
}

// InverseReference computes the inverse transform by the textbook
// definition.
func InverseReference(b *Block) {
	var out Block
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			s := 0.0
			for v := 0; v < BlockSize; v++ {
				for u := 0; u < BlockSize; u++ {
					cu, cv := 1.0, 1.0
					if u == 0 {
						cu = math.Sqrt2 / 2
					}
					if v == 0 {
						cv = math.Sqrt2 / 2
					}
					s += cu * cv * b[v*BlockSize+u] * basisTable[u][x] * basisTable[v][y]
				}
			}
			out[y*BlockSize+x] = s / 4
		}
	}
	*b = out
}

// BasisFunction returns the value of the (u,v) DCT basis at pixel (x,y),
// matching b(i,j) in Eq. 1 of the DeepN-JPEG paper.
func BasisFunction(u, v, x, y int) float64 {
	return basisTable[u][x] * basisTable[v][y]
}

// LevelShift subtracts 128 from unsigned 8-bit samples, mapping them to the
// signed range expected by the forward transform.
func LevelShift(samples []uint8, dst *Block) {
	for i, s := range samples {
		dst[i] = float64(s) - 128
	}
}

// LevelUnshift adds 128, rounds, and clamps spatial samples back to [0,255].
func LevelUnshift(b *Block, dst []uint8) {
	for i := range b {
		v := math.Round(b[i] + 128)
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		dst[i] = uint8(v)
	}
}
