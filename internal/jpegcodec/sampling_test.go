package jpegcodec

// Chroma-sampling matrix tests: every supported layout must round-trip
// through encode → decode → requantize with the same guarantees the
// 4:2:0/4:4:4 paths always had — stdlib-agreeing pixels, byte-stable
// requantization, sharded ≡ sequential — plus the SOF-level guards the
// full matrix makes reachable (the T.81 blocks-per-MCU bound, single
// component factor normalization).

import (
	"bytes"
	"image"
	"image/jpeg"
	"strings"
	"testing"

	"repro/internal/qtable"
)

// samplingLayouts is the encode-side chroma matrix under test.
var samplingLayouts = []Subsampling{Sub444, Sub420, Sub422, Sub440, Sub411}

// maxPixelDelta returns the largest per-channel difference between two
// equal-size pixel buffers.
func maxPixelDelta(t *testing.T, a, b []uint8) int {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("pixel buffers differ in size: %d vs %d", len(a), len(b))
	}
	worst := 0
	for i := range a {
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// stdlibPix decodes a stream with image/jpeg and flattens it to
// interleaved RGB.
func stdlibPix(t *testing.T, data []byte) []uint8 {
	t.Helper()
	img, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("stdlib rejects the stream: %v", err)
	}
	b := img.Bounds()
	out := make([]uint8, 0, 3*b.Dx()*b.Dy())
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bl, _ := img.At(x, y).RGBA()
			out = append(out, uint8(r>>8), uint8(g>>8), uint8(bl>>8))
		}
	}
	return out
}

// TestRGBIntoMatchesStdlibOn422Family is the regression the fixed 2×2
// upsampler fails: on 4:2:2, 4:4:0 and 4:1:1 streams the old replicator
// stretched the chroma planes with the wrong ratio, decoding without
// error but with grossly wrong colors (deltas of tens of grey levels).
// The generic upsampler must agree with stdlib image/jpeg within IDCT
// and color-conversion rounding on the same stream. Odd dimensions
// exercise the edge-clamped tails of the ceil-division plane sizes.
func TestRGBIntoMatchesStdlibOn422Family(t *testing.T) {
	for _, sub := range []Subsampling{Sub422, Sub440, Sub411} {
		for _, dims := range [][2]int{{64, 48}, {21, 13}, {9, 9}} {
			img := testImageRGB(dims[0], dims[1], 31)
			data := encodeToBytes(t, img, &Options{
				LumaTable:   qtable.MustScale(qtable.StdLuminance, 90),
				ChromaTable: qtable.MustScale(qtable.StdChrominance, 90),
				Subsampling: sub,
			})
			dec, err := Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%v %dx%d: %v", sub, dims[0], dims[1], err)
			}
			if dec.Sampling != sub {
				t.Fatalf("%v %dx%d: classified as %v", sub, dims[0], dims[1], dec.Sampling)
			}
			// Both decoders read identical quantized coefficients and use
			// nearest-sample chroma upsampling; they differ only in IDCT
			// rounding and fixed- vs floating-point color conversion, the
			// same ≤ 2-level envelope the gray interop test pins. The old
			// 2×2-only upsampler fails this by tens of levels.
			if worst := maxPixelDelta(t, stdlibPix(t, data), dec.RGB().Pix); worst > 2 {
				t.Fatalf("%v %dx%d: decoders disagree by up to %d levels, want ≤ 2",
					sub, dims[0], dims[1], worst)
			}
		}
	}
}

// TestSamplingMatrix drives every chroma layout through the full
// pipeline matrix — restart structure × shard workers — and holds
// requantization to its contracts: sharded output bytes identical to
// sequential, a second requantize under the same tables byte-stable,
// and the result decodable at the source geometry.
func TestSamplingMatrix(t *testing.T) {
	img := testImageRGB(72, 56, 33)
	newLuma := qtable.MustScale(qtable.StdLuminance, 60)
	newChroma := qtable.MustScale(qtable.StdChrominance, 60)
	for _, sub := range samplingLayouts {
		for _, restart := range []int{0, 3} {
			// Subtests carry the name of the transform the codec runs.
			name := sub.String() + "/aan"
			if restart > 0 {
				name += "/restart"
			}
			t.Run(name, func(t *testing.T) {
				data := encodeToBytes(t, img, &Options{
					LumaTable:       qtable.MustScale(qtable.StdLuminance, 90),
					ChromaTable:     qtable.MustScale(qtable.StdChrominance, 90),
					Subsampling:     sub,
					RestartInterval: restart,
				})
				var seq, shard Decoded
				if err := DecodeInto(bytes.NewReader(data), &seq, &DecodeOptions{ShardWorkers: 1}); err != nil {
					t.Fatal(err)
				}
				if err := DecodeInto(bytes.NewReader(data), &shard, &DecodeOptions{ShardWorkers: 4}); err != nil {
					t.Fatal(err)
				}
				decodedEqual(t, &seq, &shard, "sharded decode")

				requant := func(opts *Options) []byte {
					var buf bytes.Buffer
					if err := Requantize(&buf, &seq, newLuma, newChroma, opts); err != nil {
						t.Fatalf("requantize: %v", err)
					}
					return buf.Bytes()
				}
				out := requant(nil)
				if shardOut := requant(&Options{ShardWorkers: 4}); !bytes.Equal(out, shardOut) {
					t.Fatal("sharded requantize bytes differ from sequential")
				}
				var mid Decoded
				if err := DecodeInto(bytes.NewReader(out), &mid, nil); err != nil {
					t.Fatalf("requantized stream does not decode: %v", err)
				}
				if mid.W != seq.W || mid.H != seq.H || mid.Sampling != seq.Sampling {
					t.Fatalf("requantized geometry %dx%d %v, source %dx%d %v",
						mid.W, mid.H, mid.Sampling, seq.W, seq.H, seq.Sampling)
				}
				var buf2 bytes.Buffer
				if err := Requantize(&buf2, &mid, newLuma, newChroma, nil); err != nil {
					t.Fatalf("second requantize: %v", err)
				}
				if !bytes.Equal(out, buf2.Bytes()) {
					t.Fatal("requantize is not byte-stable under the same tables")
				}
				// The emitted stream must stay plain baseline JFIF.
				if _, err := jpeg.Decode(bytes.NewReader(out)); err != nil {
					t.Fatalf("stdlib rejects the requantized stream: %v", err)
				}
			})
		}
	}
}

// TestSOFBaselineBlocksPerMCULimit pins the T.81 B.2.2 bound: an
// interleaved baseline MCU carries at most 10 data units, so a hostile
// header declaring three 4×4 components (48 blocks/MCU — a 4.8×
// CPU/memory amplification per declared pixel) must be rejected at SOF
// parse time, before any buffer is sized from it.
func TestSOFBaselineBlocksPerMCULimit(t *testing.T) {
	stream := func(factors [3]byte) []byte {
		var b bytes.Buffer
		b.Write([]byte{0xFF, mSOI})
		sof := []byte{8, 0, 64, 0, 64, 3}
		for i, f := range factors {
			sof = append(sof, byte(i+1), f, 0)
		}
		b.Write([]byte{0xFF, mSOF0, byte((len(sof) + 2) >> 8), byte(len(sof) + 2)})
		b.Write(sof)
		return b.Bytes()
	}
	var dec Decoded
	err := DecodeInto(bytes.NewReader(stream([3]byte{0x44, 0x44, 0x44})), &dec, nil)
	if err == nil || !strings.Contains(err.Error(), "blocks per MCU") {
		t.Fatalf("48 blocks/MCU header: err %v, want the baseline-limit rejection", err)
	}
	// 4×2 + 1×1 + 1×1 = 10 blocks sits exactly at the bound: it must pass
	// the SOF check and fail later (no tables, no scan), proving the
	// rejection above came from the bound and not the parser.
	err = DecodeInto(bytes.NewReader(stream([3]byte{0x42, 0x11, 0x11})), &dec, nil)
	if err == nil || strings.Contains(err.Error(), "blocks per MCU") {
		t.Fatalf("10 blocks/MCU header: err %v, want a non-bound parse failure", err)
	}
}

// TestSingleComponentFactorsNormalized: a single-component scan is
// non-interleaved per T.81 A.2, so its declared sampling factors do not
// shape the scan. Real files keep 2×2 luma factors after grayscale
// conversion; honoring them would misplace every block. The decoder
// must produce identical pixels whatever the declared factors say, and
// the bound check must not fire on a single 4×4 component (16 blocks
// nominal, 1 block actual).
func TestSingleComponentFactorsNormalized(t *testing.T) {
	img := testImageGray(40, 24, 35)
	var buf bytes.Buffer
	if err := EncodeGray(&buf, img, nil); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	want, err := Decode(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, factors := range []byte{0x22, 0x44} {
		patched := bytes.Clone(base)
		// SOF0 layout: marker(2) len(2) precision(1) dims(4) nf(1) then
		// per-component id, factors, tq — patch the factors byte.
		i := bytes.Index(patched, []byte{0xFF, mSOF0})
		if i < 0 {
			t.Fatal("no SOF0 in the encoded stream")
		}
		patched[i+11] = factors
		got, err := Decode(bytes.NewReader(patched))
		if err != nil {
			t.Fatalf("factors %#02x: %v", factors, err)
		}
		if !bytes.Equal(want.Gray().Pix, got.Gray().Pix) {
			t.Fatalf("factors %#02x changed decoded pixels", factors)
		}
		// stdlib normalizes the same way; both decoders must agree.
		stdImg, err := jpeg.Decode(bytes.NewReader(patched))
		if err != nil {
			t.Fatalf("stdlib rejects the %#02x-factor stream: %v", factors, err)
		}
		if _, ok := stdImg.(*image.Gray); !ok {
			t.Fatalf("stdlib decoded %T, want *image.Gray", stdImg)
		}
	}
}

func bench422Stream(b *testing.B) []byte {
	img := testImageRGB(256, 256, 37)
	var buf bytes.Buffer
	opts := &Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 85),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 85),
		Subsampling: Sub422,
	}
	if err := EncodeRGB(&buf, img, opts); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkDecode422(b *testing.B) {
	data := bench422Stream(b)
	var dec Decoded
	b.ReportAllocs()
	b.SetBytes(int64(3 * 256 * 256))
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(bytes.NewReader(data), &dec, nil); err != nil {
			b.Fatal(err)
		}
		_ = dec.RGBInto(nil)
	}
}

func BenchmarkRequantize422(b *testing.B) {
	data := bench422Stream(b)
	var dec Decoded
	if err := DecodeInto(bytes.NewReader(data), &dec, nil); err != nil {
		b.Fatal(err)
	}
	luma := qtable.MustScale(qtable.StdLuminance, 60)
	chroma := qtable.MustScale(qtable.StdChrominance, 60)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Requantize(&buf, &dec, luma, chroma, nil); err != nil {
			b.Fatal(err)
		}
	}
}
