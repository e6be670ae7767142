package jpegcodec

// Transform-engine equivalence: the codec runs the AAN fast DCT, and the
// naive separable DCT is its oracle. Their floating-point outputs differ
// by ~1e-12 per coefficient, and the tie-snapping quantizer rounds both
// sides of that difference to the same integer, so quantized blocks —
// and with them the golden streams in golden_test.go — are identical
// under either engine. Decoding reconstructs pixels (no quantizer
// downstream), so there the engines may differ by one grey level from
// IDCT rounding.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// randTile fills an 8×8 sample tile with uniform noise — the worst case
// for knife-edge quantizer ties, since integer-valued inputs make the
// rational DCT bands (u,v ∈ {0,4}) land on exact multiples of 1/8.
func randTile(rng *rand.Rand) [64]uint8 {
	var tile [64]uint8
	for i := range tile {
		tile[i] = uint8(rng.Intn(256))
	}
	return tile
}

func TestBlockCoefficientsEngineEquivalence(t *testing.T) {
	tables := []qtable.Table{
		qtable.StdLuminance,
		qtable.StdChrominance,
		qtable.MustScale(qtable.StdLuminance, 100), // all-ones: maximal tie exposure
		qtable.Uniform(16),
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 2000; trial++ {
		tile := randTile(rng)
		tbl := tables[trial%len(tables)]
		// Each engine quantizes through its own folded divisors — the
		// production pairing, where the AAN scale lives in the table.
		naive := blockCoefficients(&tile, tbl.FwdScaled(dct.TransformNaive), nil, dct.TransformNaive)
		aan := blockCoefficients(&tile, tbl.FwdScaled(dct.TransformAAN), nil, dct.TransformAAN)
		if naive != aan {
			for i := range naive {
				if naive[i] != aan[i] {
					t.Fatalf("trial %d: band %d quantizes to %d (naive) vs %d (aan)",
						trial, i, naive[i], aan[i])
				}
			}
		}
	}
}

// TestDecodeEngineAgreement bounds the codec's reconstruction against
// the naive per-block reference: every decoded plane may differ from
// reconstructBlock under the naive engine only by the one grey level
// that IDCT rounding can move.
func TestDecodeEngineAgreement(t *testing.T) {
	img := testImageRGB(56, 35, 13)
	stream := encodeToBytes(t, img, &Options{})
	var dec Decoded
	if err := DecodeInto(bytes.NewReader(stream), &dec, nil); err != nil {
		t.Fatal(err)
	}
	dec.RGB() // reconstructs every plane
	worst := 0
	for ci := 0; ci < dec.Components; ci++ {
		p := &dec.planes[ci]
		inv := dec.QuantTables[p.tq].InvScaled(dct.TransformNaive)
		coefs, blocksX, blocksY := dec.Coefficients(ci)
		want := make([]uint8, p.w*p.h)
		for by := 0; by < blocksY; by++ {
			for bx := 0; bx < blocksX; bx++ {
				var tile [64]uint8
				reconstructBlock(&coefs[by*blocksX+bx], inv, &tile, dct.TransformNaive)
				imgutil.StoreBlock(want, p.w, p.h, bx, by, &tile)
			}
		}
		for i := range want {
			d := int(p.pix[i]) - int(want[i])
			if d < 0 {
				d = -d
			}
			worst = max(worst, d)
		}
	}
	if worst > 1 {
		t.Fatalf("decode disagrees with the naive reference by up to %d grey levels", worst)
	}
}

// TestDecodeIntoReuseMatchesFreshDecode drives one Decoded through a
// sequence of different streams (shrinking and growing, color and gray)
// and checks every reused decode against a fresh one.
func TestDecodeIntoReuseMatchesFreshDecode(t *testing.T) {
	streams := [][]byte{
		encodeToBytes(t, testImageRGB(64, 48, 1), &Options{}),
		encodeToBytes(t, testImageRGB(16, 16, 2), &Options{Subsampling: Sub444}),
		encodeToBytes(t, testImageRGB(80, 24, 3), &Options{OptimizeHuffman: true}),
	}
	{
		var buf bytes.Buffer
		if err := EncodeGray(&buf, testImageGray(33, 57, 4), nil); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, buf.Bytes())
	}

	var reused Decoded
	for round := 0; round < 2; round++ {
		for si, stream := range streams {
			if err := DecodeInto(bytes.NewReader(stream), &reused, nil); err != nil {
				t.Fatalf("round %d stream %d: %v", round, si, err)
			}
			fresh, err := Decode(bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			if reused.W != fresh.W || reused.H != fresh.H || reused.Components != fresh.Components {
				t.Fatalf("round %d stream %d: metadata %dx%d/%d, want %dx%d/%d",
					round, si, reused.W, reused.H, reused.Components, fresh.W, fresh.H, fresh.Components)
			}
			if !bytes.Equal(reused.RGB().Pix, fresh.RGB().Pix) {
				t.Fatalf("round %d stream %d: reused decode diverges from fresh decode", round, si)
			}
			for ci := 0; ci < fresh.Components; ci++ {
				rc, rx, ry := reused.Coefficients(ci)
				fc, fx, fy := fresh.Coefficients(ci)
				if rx != fx || ry != fy || len(rc) != len(fc) {
					t.Fatalf("round %d stream %d comp %d: grid %dx%d/%d, want %dx%d/%d",
						round, si, ci, rx, ry, len(rc), fx, fy, len(fc))
				}
				for bi := range fc {
					if rc[bi] != fc[bi] {
						t.Fatalf("round %d stream %d comp %d block %d: coefficients diverge", round, si, ci, bi)
					}
				}
			}
		}
	}
}

// TestDecodeIntoRejectsBadInput covers the new API's argument checks.
func TestDecodeIntoRejectsBadInput(t *testing.T) {
	stream := encodeToBytes(t, testImageRGB(8, 8, 5), nil)
	if err := DecodeInto(bytes.NewReader(stream), nil, nil); err == nil {
		t.Fatal("nil destination must be rejected")
	}
}

// TestDecodedReset verifies Reset clears content but keeps capacity.
func TestDecodedReset(t *testing.T) {
	stream := encodeToBytes(t, testImageRGB(32, 32, 8), nil)
	var dec Decoded
	if err := DecodeInto(bytes.NewReader(stream), &dec, nil); err != nil {
		t.Fatal(err)
	}
	dec.GrayInto(nil) // pixels are reconstructed on demand
	pixCap := cap(dec.planes[0].pix)
	if pixCap == 0 {
		t.Fatal("GrayInto did not reconstruct the luma plane")
	}
	dec.Reset()
	if dec.W != 0 || dec.H != 0 || dec.Components != 0 || len(dec.QuantTables) != 0 {
		t.Fatalf("Reset left metadata behind: %+v", dec)
	}
	if len(dec.planes[0].pix) != 0 || cap(dec.planes[0].pix) != pixCap {
		t.Fatalf("Reset must keep buffer capacity (len=%d cap=%d, want 0/%d)",
			len(dec.planes[0].pix), cap(dec.planes[0].pix), pixCap)
	}
}
