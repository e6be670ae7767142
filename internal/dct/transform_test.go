package dct

import (
	"math/rand"
	"testing"
)

func TestTransformDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		src := randBlock(rng)

		naive, direct := src, src
		TransformNaive.Forward(&naive)
		Forward(&direct)
		if naive != direct {
			t.Fatalf("trial %d: TransformNaive.Forward diverges from Forward", trial)
		}
		TransformNaive.Inverse(&naive)
		Inverse(&direct)
		if naive != direct {
			t.Fatalf("trial %d: TransformNaive.Inverse diverges from Inverse", trial)
		}

		aan, directAAN := src, src
		TransformAAN.Forward(&aan)
		ForwardAAN(&directAAN)
		if aan != directAAN {
			t.Fatalf("trial %d: TransformAAN.Forward diverges from ForwardAAN", trial)
		}
		TransformAAN.Inverse(&aan)
		InverseAAN(&directAAN)
		if aan != directAAN {
			t.Fatalf("trial %d: TransformAAN.Inverse diverges from InverseAAN", trial)
		}
	}
}

func TestTransformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, xf := range []Transform{TransformNaive, TransformAAN} {
		for trial := 0; trial < 50; trial++ {
			orig := randBlock(rng)
			b := orig
			xf.Forward(&b)
			xf.Inverse(&b)
			if d := maxAbsDiff(&b, &orig); d > 1e-9 {
				t.Fatalf("%v trial %d: round-trip error %g", xf, trial, d)
			}
		}
	}
}

func TestTransformEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		src := randBlock(rng)
		naive, aan := src, src
		TransformNaive.Forward(&naive)
		TransformAAN.Forward(&aan)
		if d := maxAbsDiff(&naive, &aan); d > 1e-9 {
			t.Fatalf("trial %d: forward engines differ by %g", trial, d)
		}
		TransformNaive.Inverse(&naive)
		TransformAAN.Inverse(&aan)
		if d := maxAbsDiff(&naive, &aan); d > 1e-9 {
			t.Fatalf("trial %d: inverse engines differ by %g", trial, d)
		}
	}
}

func TestTransformString(t *testing.T) {
	if got := TransformNaive.String(); got != "naive" {
		t.Fatalf("TransformNaive.String() = %q", got)
	}
	if got := TransformAAN.String(); got != "aan" {
		t.Fatalf("TransformAAN.String() = %q", got)
	}
	if got := Transform(42).String(); got != "transform(42)" {
		t.Fatalf("Transform(42).String() = %q", got)
	}
	var zero Transform
	if zero != TransformAAN {
		t.Fatalf("zero Transform = %v, want aan (the engine the codec runs)", zero)
	}
}

func BenchmarkTransformForward(b *testing.B) {
	for _, xf := range []Transform{TransformNaive, TransformAAN} {
		b.Run(xf.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			blk := randBlock(rng)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work := blk
				xf.Forward(&work)
			}
		})
	}
}

func BenchmarkTransformInverse(b *testing.B) {
	for _, xf := range []Transform{TransformNaive, TransformAAN} {
		b.Run(xf.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			blk := randBlock(rng)
			Forward(&blk)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work := blk
				xf.Inverse(&work)
			}
		})
	}
}
