package jpegcodec

// Benchmarks for the pluggable block-transform engine and the pooled
// decode path — the numbers behind the ROADMAP's throughput claims. Run
// with:
//
//	go test ./internal/jpegcodec -run XXX -bench 'Transform|DecodePooled' -benchmem
//
// EncodeTransform/DecodeTransform isolate the engine choice on otherwise
// identical pipelines (the streams are byte-identical, so byte counts
// cancel out); DecodePooled isolates output-buffer reuse.

import (
	"bytes"
	"testing"

	"repro/internal/dct"
	"repro/internal/imgutil"
)

func benchStream(b *testing.B, w, h int) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, testImageRGB(w, h, 23), nil); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkEncodeTransform compares the forward engines on the full
// encode pipeline (color conversion, DCT, quantization, entropy coding).
func BenchmarkEncodeTransform(b *testing.B) {
	img := testImageRGB(256, 256, 20)
	for _, xf := range bothEngines {
		b.Run(xf.String(), func(b *testing.B) {
			opts := &Options{Transform: xf}
			var buf bytes.Buffer
			b.ReportAllocs()
			b.SetBytes(int64(len(img.Pix)))
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := EncodeRGB(&buf, img, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeTransform compares the inverse engines on the full
// decode pipeline with pooled output, so the IDCT dominates. Pixels are
// reconstructed on demand, so each iteration materializes them with
// RGBInto into a reused image.
func BenchmarkDecodeTransform(b *testing.B) {
	stream := benchStream(b, 256, 256)
	for _, xf := range bothEngines {
		b.Run(xf.String(), func(b *testing.B) {
			opts := &DecodeOptions{Transform: xf}
			var dec Decoded
			rgb := &imgutil.RGB{}
			r := bytes.NewReader(stream)
			b.ReportAllocs()
			b.SetBytes(int64(3 * 256 * 256))
			for i := 0; i < b.N; i++ {
				r.Reset(stream)
				if err := DecodeInto(r, &dec, opts); err != nil {
					b.Fatal(err)
				}
				rgb = dec.RGBInto(rgb)
			}
		})
	}
}

// BenchmarkDecodePooled isolates the output-buffer strategy: a fresh
// Decoded per call (the escape-heavy path Decode takes) against one
// reused through DecodeInto. Both materialize pixels with RGBInto into a
// reused image, so only the Decoded's own buffers differ.
func BenchmarkDecodePooled(b *testing.B) {
	stream := benchStream(b, 256, 256)
	b.Run("fresh", func(b *testing.B) {
		rgb := &imgutil.RGB{}
		b.ReportAllocs()
		b.SetBytes(int64(3 * 256 * 256))
		for i := 0; i < b.N; i++ {
			dec, err := Decode(bytes.NewReader(stream))
			if err != nil {
				b.Fatal(err)
			}
			rgb = dec.RGBInto(rgb)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		var dec Decoded
		rgb := &imgutil.RGB{}
		r := bytes.NewReader(stream)
		b.ReportAllocs()
		b.SetBytes(int64(3 * 256 * 256))
		for i := 0; i < b.N; i++ {
			r.Reset(stream)
			if err := DecodeInto(r, &dec, nil); err != nil {
				b.Fatal(err)
			}
			rgb = dec.RGBInto(rgb)
		}
	})
}

// BenchmarkTransformAANFullLoop measures the paper-relevant training-loop
// shape: decode to pixels and re-encode, everything pooled, under each
// engine.
func BenchmarkTransformAANFullLoop(b *testing.B) {
	stream := benchStream(b, 128, 128)
	for _, xf := range []dct.Transform{dct.TransformNaive, dct.TransformAAN} {
		b.Run(xf.String(), func(b *testing.B) {
			dopts := &DecodeOptions{Transform: xf}
			eopts := &Options{Transform: xf}
			var dec Decoded
			r := bytes.NewReader(stream)
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Reset(stream)
				if err := DecodeInto(r, &dec, dopts); err != nil {
					b.Fatal(err)
				}
				buf.Reset()
				if err := EncodeRGB(&buf, dec.RGB(), eopts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
