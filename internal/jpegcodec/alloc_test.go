package jpegcodec

// Allocation-regression tests for the pooled encode and decode paths.
// Before the sync.Pool scratch landed, every encode allocated its YCbCr
// planes, subsampled chroma, per-component coefficient grids and entropy
// buffers — hundreds of allocations and ~100 KB per 64×64 image — and
// every decode re-allocated its parse state and output working set. The
// pooled steady states must stay down to the handful of small slices
// that genuinely escape. Bounds are deliberately loose (~2–4× observed)
// so they catch a lost pool, not allocator noise.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/imgutil"
)

func allocTestImage() *imgutil.RGB {
	im := imgutil.NewRGB(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			im.Set(x, y, uint8(x*4), uint8(y*4), uint8((x+y)*2))
		}
	}
	return im
}

func TestEncodeRGBAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	img := allocTestImage()
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		if err := EncodeRGB(&buf, img, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		encode() // warm the scratch pools and the cached Huffman tables
	}
	allocs := testing.AllocsPerRun(100, encode)
	t.Logf("pooled EncodeRGB: %.1f allocs/op", allocs)
	if allocs > 64 {
		t.Fatalf("steady-state EncodeRGB makes %.1f allocs/op, want ≤ 64 (pooling regressed)", allocs)
	}
}

func TestEncodeGrayAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	img := allocTestImage().ToGray()
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		if err := EncodeGray(&buf, img, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		encode()
	}
	allocs := testing.AllocsPerRun(100, encode)
	t.Logf("pooled EncodeGray: %.1f allocs/op", allocs)
	if allocs > 44 {
		t.Fatalf("steady-state EncodeGray makes %.1f allocs/op, want ≤ 44 (pooling regressed)", allocs)
	}
}

// TestDecodeAllocsBounded keeps the fresh-decode path honest: its output
// (planes, coefficient grids, the Decoded itself) must be allocated
// fresh — it escapes to the caller — but with the decoder parse state
// pooled, that output is all that remains. Before the pooled decoder the
// same loop made ~100 allocs/op; it now makes ~10.
func TestDecodeAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, allocTestImage(), nil); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	decode := func() {
		if _, err := Decode(bytes.NewReader(stream)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		decode()
	}
	allocs := testing.AllocsPerRun(50, decode)
	t.Logf("Decode: %.1f allocs/op", allocs)
	if allocs > 24 {
		t.Fatalf("Decode makes %.1f allocs/op, want ≤ 24 (decoder pooling regressed)", allocs)
	}
}

// TestDecodeIntoAllocsSteadyState mirrors the encode bounds for the
// pooled decode path: with the destination's planes, coefficient grids
// and table map reused and the decoder parse state drawn from the pool,
// a steady-state DecodeInto must make no allocations at all (observed
// 0.0; the bound leaves room for allocator noise only).
func TestDecodeIntoAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, allocTestImage(), nil); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	var dec Decoded
	r := bytes.NewReader(stream)
	decode := func() {
		r.Reset(stream)
		if err := DecodeInto(r, &dec, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		decode() // warm the destination buffers and the decoder pool
	}
	allocs := testing.AllocsPerRun(100, decode)
	t.Logf("pooled DecodeInto: %.1f allocs/op", allocs)
	if allocs > 4 {
		t.Fatalf("steady-state DecodeInto makes %.1f allocs/op, want ≤ 4 (decode pooling regressed)", allocs)
	}
}

// TestDecodeIntoRGBIntoAllocsSteadyState extends the bound across pixel
// reconstruction: reusing both the Decoded and the output image keeps
// the full stream→RGB loop allocation-free at steady state.
func TestDecodeIntoRGBIntoAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, allocTestImage(), nil); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	var dec Decoded
	img := &imgutil.RGB{}
	r := bytes.NewReader(stream)
	decode := func() {
		r.Reset(stream)
		if err := DecodeInto(r, &dec, nil); err != nil {
			t.Fatal(err)
		}
		img = dec.RGBInto(img)
	}
	for i := 0; i < 8; i++ {
		decode()
	}
	allocs := testing.AllocsPerRun(100, decode)
	t.Logf("pooled DecodeInto+RGBInto: %.1f allocs/op", allocs)
	if allocs > 4 {
		t.Fatalf("steady-state DecodeInto+RGBInto makes %.1f allocs/op, want ≤ 4", allocs)
	}
}

// TestDecodeReconstructZeroAllocs pins the on-demand reconstruction
// steady state exactly: DecodeInto followed by the pixel accessor that
// reconstructs the planes, into a reused Decoded and a reused output
// image, makes no allocations on the sequential paths — baseline colour,
// a restart-interval stream decoded without sharding, a progressive
// stream, and luma-only GrayInto.
func TestDecodeReconstructZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	prog, err := os.ReadFile(filepath.Join("testdata", "progressive", "rgb420-standard.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		stream []byte
		opts   *DecodeOptions
		gray   bool
	}{
		{name: "rgb420", stream: encodeToBytes(t, allocTestImage(), nil)},
		{name: "rgb444-dri", stream: encodeToBytes(t, allocTestImage(), &Options{Subsampling: Sub444, RestartInterval: 2}), opts: &DecodeOptions{ShardWorkers: 1}},
		{name: "progressive", stream: prog},
		{name: "gray", stream: encodeToBytes(t, allocTestImage(), nil), gray: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var dec Decoded
			rgb := &imgutil.RGB{}
			gray := &imgutil.Gray{}
			r := bytes.NewReader(tc.stream)
			decode := func() {
				r.Reset(tc.stream)
				if err := DecodeInto(r, &dec, tc.opts); err != nil {
					t.Fatal(err)
				}
				if tc.gray {
					gray = dec.GrayInto(gray)
				} else {
					rgb = dec.RGBInto(rgb)
				}
			}
			for i := 0; i < 8; i++ {
				decode()
			}
			if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
				t.Fatalf("steady-state DecodeInto+reconstruct makes %.1f allocs/op, want 0", allocs)
			}
		})
	}
}
