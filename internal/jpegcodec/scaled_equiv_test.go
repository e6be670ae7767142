package jpegcodec

// Fused-vs-unfused equivalence: the scaled-table hot loops (one divide
// or multiply per coefficient, scale factors folded into the table) must
// produce exactly what the textbook two-pass formulation produces — the
// orthonormal transform followed by plain integer-step quantization.
// These property tests are the layer below the golden stream digests in
// golden_test.go: they pin the arithmetic per block, under the AAN
// engine the codec runs and its naive oracle, so a folding bug is
// caught at the coefficient where it happens rather than as an opaque
// byte diff.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/qtable"
)

// unfusedCoefficients is the reference forward path: full orthonormal
// DCT (descale pass included), then quantization by the raw integer
// steps through the same tie-snapping quantizer.
func unfusedCoefficients(samples *[64]uint8, tbl *qtable.Table, xf dct.Transform) [64]int32 {
	var blk dct.Block
	dct.LevelShift(samples[:], &blk)
	xf.Forward(&blk)
	var out [64]int32
	for i := 0; i < 64; i++ {
		out[i] = quantize(blk[i], float64(tbl[i]))
	}
	return out
}

func TestFusedQuantizationMatchesUnfused(t *testing.T) {
	tables := []qtable.Table{
		qtable.StdLuminance,
		qtable.StdChrominance,
		qtable.MustScale(qtable.StdLuminance, 100), // all-ones: maximal tie exposure
		qtable.Uniform(16),
		qtable.Uniform(255),
	}
	rng := rand.New(rand.NewSource(47))
	for _, xf := range []dct.Transform{dct.TransformNaive, dct.TransformAAN} {
		for trial := 0; trial < 1500; trial++ {
			tile := randTile(rng)
			tbl := tables[trial%len(tables)]
			fused := blockCoefficients(&tile, tbl.FwdScaled(xf), nil, xf)
			unfused := unfusedCoefficients(&tile, &tbl, xf)
			if fused != unfused {
				for i := range fused {
					if fused[i] != unfused[i] {
						t.Fatalf("%v trial %d: band %d quantizes to %d fused vs %d unfused",
							xf, trial, i, fused[i], unfused[i])
					}
				}
			}
		}
	}
}

// randCoefs draws plausible quantized coefficients: mostly small values
// with the DC allowed the full baseline range.
func randCoefs(rng *rand.Rand) [64]int32 {
	var c [64]int32
	c[0] = int32(rng.Intn(2047) - 1023)
	for i := 1; i < 64; i++ {
		if rng.Intn(4) == 0 { // sparse, like real AC bands
			c[i] = int32(rng.Intn(255) - 127)
		}
	}
	return c
}

func TestFusedDequantizationMatchesUnfused(t *testing.T) {
	tables := []qtable.Table{qtable.StdLuminance, qtable.Uniform(3), qtable.MustScale(qtable.StdLuminance, 90)}
	rng := rand.New(rand.NewSource(53))
	for _, xf := range []dct.Transform{dct.TransformNaive, dct.TransformAAN} {
		for trial := 0; trial < 800; trial++ {
			coefs := randCoefs(rng)
			tbl := tables[trial%len(tables)]

			var fused [64]uint8
			reconstructBlock(&coefs, tbl.InvScaled(xf), &fused, xf)

			// Unfused reference: dequantize by the raw steps, full
			// orthonormal inverse (prescale pass included).
			var blk dct.Block
			for i := 0; i < 64; i++ {
				blk[i] = float64(coefs[i]) * float64(tbl[i])
			}
			xf.Inverse(&blk)
			var unfused [64]uint8
			dct.LevelUnshift(&blk, unfused[:])

			// The folded path reassociates one multiplication per
			// coefficient ((c·q)·p vs c·(q·p)), so pixels may straddle a
			// rounding boundary by at most one grey level; the naive
			// engine folds nothing and must match exactly.
			worst := 0
			for i := range fused {
				d := int(fused[i]) - int(unfused[i])
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
			limit := 0
			if xf == dct.TransformAAN {
				limit = 1
			}
			if worst > limit {
				t.Fatalf("%v trial %d: fused reconstruction differs by %d grey levels (limit %d)",
					xf, trial, worst, limit)
			}
		}
	}
}

// TestEncodeHonorsPrecomputedScaled pins the cache fast path end to end:
// attaching a matching precomputed cache must not change a single output
// byte, and a stale cache (tables swapped after precompute) must degrade
// to fresh derivation — same bytes again — rather than encode through
// the wrong divisors.
func TestEncodeHonorsPrecomputedScaled(t *testing.T) {
	img := testImageRGB(48, 40, 21)
	luma := qtable.MustScale(qtable.StdLuminance, 60)
	chroma := qtable.MustScale(qtable.StdChrominance, 60)
	base := Options{LumaTable: luma, ChromaTable: chroma}
	want := encodeToBytes(t, img, &base)

	t.Run("matching-cache", func(t *testing.T) {
		opts := base
		opts.Scaled = PrecomputeScaled(luma, chroma)
		if got := encodeToBytes(t, img, &opts); !bytes.Equal(got, want) {
			t.Fatal("a matching precomputed cache changed the emitted stream")
		}
	})
	t.Run("stale-tables", func(t *testing.T) {
		opts := base
		opts.Scaled = PrecomputeScaled(qtable.StdLuminance, qtable.StdChrominance)
		if got := encodeToBytes(t, img, &opts); !bytes.Equal(got, want) {
			t.Fatal("a stale cache must be ignored, not trusted")
		}
	})
}
