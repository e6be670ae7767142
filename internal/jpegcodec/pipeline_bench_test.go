package jpegcodec

// Whole-pipeline benchmarks on a 256×256 4:2:0 image at default options,
// and the pooled decode path. Run with:
//
//	go test ./internal/jpegcodec -run XXX -bench 'Default|DecodePooled|DecodeEncodeLoop' -benchmem
//
// EncodeDefault/DecodeDefault time the full encode and decode pipelines
// with reused output; DecodePooled isolates output-buffer reuse.

import (
	"bytes"
	"testing"

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

// BenchmarkEncodeDefault times the full encode pipeline (color
// conversion, DCT, quantization, entropy coding) into a reused buffer.
func BenchmarkEncodeDefault(b *testing.B) {
	img := testImageRGB(256, 256, 20)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(int64(len(img.Pix)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := EncodeRGB(&buf, img, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeDefault times the full decode pipeline with pooled
// output. Pixels are reconstructed on demand, so each iteration
// materializes them with RGBInto into a reused image.
func BenchmarkDecodeDefault(b *testing.B) {
	stream := benchStream(b, 256, 256)
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

// BenchmarkDecodeEncodeLoop measures the paper-relevant training-loop
// shape: decode to pixels and re-encode, everything pooled.
func BenchmarkDecodeEncodeLoop(b *testing.B) {
	stream := benchStream(b, 128, 128)
	var dec Decoded
	r := bytes.NewReader(stream)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(stream)
		if err := DecodeInto(r, &dec, nil); err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		if err := EncodeRGB(&buf, dec.RGB(), nil); err != nil {
			b.Fatal(err)
		}
	}
}
