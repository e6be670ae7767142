package dct

// Batch-vs-block identity: the batch kernels restructure the loops, not
// the arithmetic, so their output must be BIT-identical to running the
// per-block API over each 64-float run — not merely close. Bit equality
// is what lets the codec swap whole pipelines between the two forms
// without a single emitted byte changing; these tests are the foundation
// the jpegcodec stream-equivalence suites stand on.

import (
	"math"
	"math/rand"
	"testing"
)

// randPlane draws n blocks of spatial-range samples (level-shifted
// pixels live in [-128, 127]) plus a few adversarial values.
func randPlane(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n*BlockSize2)
	for i := range p {
		switch rng.Intn(16) {
		case 0:
			p[i] = 0
		case 1:
			p[i] = 127
		case 2:
			p[i] = -128
		default:
			p[i] = float64(rng.Intn(256) - 128)
		}
	}
	return p
}

// randCoefPlane draws n blocks of dequantized-coefficient-range values.
func randCoefPlane(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n*BlockSize2)
	for i := range p {
		if rng.Intn(4) == 0 {
			p[i] = float64(rng.Intn(2047)-1023) * (1 + rng.Float64())
		}
	}
	return p
}

// batchPairs enumerates every batch entry point against its per-block
// oracle.
var batchPairs = []struct {
	name   string
	batch  func([]float64)
	block  func(*Block)
	coefIn bool // input is coefficient-domain (inverse direction)
}{
	{"ForwardAANRawBatch", ForwardAANRawBatch, ForwardAANRaw, false},
	{"InverseAANRawBatch", InverseAANRawBatch, InverseAANRaw, true},
	{"ForwardAANBatch", ForwardAANBatch, ForwardAAN, false},
	{"InverseAANBatch", InverseAANBatch, InverseAAN, true},
	{"ForwardBatch", ForwardBatch, Forward, false},
	{"InverseBatch", InverseBatch, Inverse, true},
}

func TestBatchBitIdentityWithPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sizes := []int{1, 2, 3, 7, 16, 33, 128}
	for _, pair := range batchPairs {
		t.Run(pair.name, func(t *testing.T) {
			for _, n := range sizes {
				var plane []float64
				if pair.coefIn {
					plane = randCoefPlane(rng, n)
				} else {
					plane = randPlane(rng, n)
				}
				want := make([]float64, len(plane))
				copy(want, plane)
				for k := 0; k < n; k++ {
					pair.block((*Block)(want[k*BlockSize2:]))
				}
				pair.batch(plane)
				for i := range plane {
					if math.Float64bits(plane[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%d blocks: element %d (block %d band %d) = %v batch vs %v per-block (bit mismatch)",
							n, i, i/BlockSize2, i%BlockSize2, plane[i], want[i])
					}
				}
			}
		})
	}
}

// TestScaledBatchBitIdentity pins the engine-dispatching batch methods
// against their per-block counterparts.
func TestScaledBatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, xf := range []Transform{TransformNaive, TransformAAN} {
		for _, dir := range []string{"forward", "inverse"} {
			n := 5 + rng.Intn(20)
			var plane []float64
			if dir == "forward" {
				plane = randPlane(rng, n)
			} else {
				plane = randCoefPlane(rng, n)
			}
			want := make([]float64, len(plane))
			copy(want, plane)
			for k := 0; k < n; k++ {
				b := (*Block)(want[k*BlockSize2:])
				if dir == "forward" {
					xf.ForwardScaled(b)
				} else {
					xf.InverseScaled(b)
				}
			}
			if dir == "forward" {
				xf.ForwardScaledBatch(plane)
			} else {
				xf.InverseScaledBatch(plane)
			}
			for i := range plane {
				if math.Float64bits(plane[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v %s: element %d = %v batch vs %v per-block", xf, dir, i, plane[i], want[i])
				}
			}
		}
	}
}

// TestBatchRoundTrip drives forward-then-inverse through the orthonormal
// batch API and checks the plane reproduces its input.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, eng := range []struct {
		name             string
		forward, inverse func([]float64)
	}{
		{"naive", ForwardBatch, InverseBatch},
		{"aan", ForwardAANBatch, InverseAANBatch},
	} {
		plane := randPlane(rng, 9)
		orig := make([]float64, len(plane))
		copy(orig, plane)
		eng.forward(plane)
		eng.inverse(plane)
		for i := range plane {
			if math.Abs(plane[i]-orig[i]) > 1e-9 {
				t.Fatalf("%s: element %d round-trips to %v, want %v", eng.name, i, plane[i], orig[i])
			}
		}
	}
}

// TestBatchCrossEngineAgreement checks the two engines' batch forwards
// agree to the same tolerance as their per-block forms.
func TestBatchCrossEngineAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a := randPlane(rng, 12)
	b := make([]float64, len(a))
	copy(b, a)
	ForwardBatch(a)
	ForwardAANBatch(b)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("element %d: naive %v vs aan %v", i, a[i], b[i])
		}
	}
}

func TestBlocksRejectsMisalignedPlane(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a plane whose length is not a multiple of 64 must panic")
		}
	}()
	ForwardAANRawBatch(make([]float64, 65))
}

func TestBlocksEmptyPlane(t *testing.T) {
	// Zero blocks is a valid (empty) run: nothing to transform, no panic.
	ForwardAANRawBatch(nil)
	if got := Blocks(make([]float64, 128)); got != 2 {
		t.Fatalf("Blocks(128 floats) = %d, want 2", got)
	}
}
