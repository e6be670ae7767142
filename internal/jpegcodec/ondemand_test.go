package jpegcodec

// On-demand reconstruction contract: DecodeInto stops at the
// coefficients and every error surfaces there; GrayInto/RGBInto
// reconstruct the planes they need once per decode; coefficient-domain
// consumers (Requantize) never touch pixel memory.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// onDemandCase is one source stream with the decode options it runs
// under.
type onDemandCase struct {
	name   string
	stream []byte
	opts   *DecodeOptions
	// sharded requires the entropy data to decode sharded, so the
	// reconstruction fan-out is covered too.
	sharded bool
}

func onDemandCases(t *testing.T) []onDemandCase {
	t.Helper()
	prog, err := os.ReadFile(filepath.Join("testdata", "progressive", "rgb420-standard.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	return []onDemandCase{
		{name: "420", stream: encodeToBytes(t, testImageRGB(72, 56, 41), &Options{Subsampling: Sub420})},
		{
			name:    "444-dri-sharded",
			stream:  encodeToBytes(t, testImageRGB(160, 128, 42), &Options{Subsampling: Sub444, RestartInterval: 4}),
			opts:    &DecodeOptions{ShardWorkers: 2},
			sharded: true,
		},
		{name: "progressive", stream: prog},
	}
}

// TestRequantizeNeverReconstructs pins the tentpole contract: on a fresh
// Decoded, DecodeInto followed by Requantize allocates no pixel plane.
func TestRequantizeNeverReconstructs(t *testing.T) {
	luma := qtable.MustScale(qtable.StdLuminance, 40)
	chroma := qtable.MustScale(qtable.StdChrominance, 40)
	for _, tc := range onDemandCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var dec Decoded
			if err := DecodeInto(bytes.NewReader(tc.stream), &dec, tc.opts); err != nil {
				t.Fatal(err)
			}
			if tc.sharded && dec.reconWorkers < 2 {
				t.Fatalf("stream decoded with %d workers, want a sharded decode", dec.reconWorkers)
			}
			var out bytes.Buffer
			if err := Requantize(&out, &dec, luma, chroma, nil); err != nil {
				t.Fatal(err)
			}
			for i := range dec.planes {
				if c := cap(dec.planes[i].pix); c != 0 {
					t.Fatalf("plane %d holds %d bytes of pixel memory after DecodeInto+Requantize", i, c)
				}
			}
		})
	}
}

// TestGrayIntoReconstructsLumaOnly checks that GrayInto on a colour
// stream leaves chroma in the coefficient domain, and that its luma
// matches the plane a full RGBInto reconstruction produces.
func TestGrayIntoReconstructsLumaOnly(t *testing.T) {
	for _, tc := range onDemandCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var dec Decoded
			if err := DecodeInto(bytes.NewReader(tc.stream), &dec, tc.opts); err != nil {
				t.Fatal(err)
			}
			if dec.Components != 3 {
				t.Fatalf("want a 3-component stream, got %d", dec.Components)
			}
			gray := dec.GrayInto(nil)
			if len(dec.planes[0].pix) == 0 {
				t.Fatal("GrayInto did not reconstruct the luma plane")
			}
			for i := 1; i < 3; i++ {
				if cap(dec.planes[i].pix) != 0 {
					t.Fatalf("GrayInto reconstructed chroma plane %d", i)
				}
			}
			var full Decoded
			if err := DecodeInto(bytes.NewReader(tc.stream), &full, tc.opts); err != nil {
				t.Fatal(err)
			}
			full.RGBInto(nil)
			if !bytes.Equal(gray.Pix, full.planes[0].pix) {
				t.Fatal("luma from GrayInto differs from the luma RGBInto reconstructs")
			}
		})
	}
}

// TestRGBIntoReconstructsOnce poisons the reconstructed planes after the
// first RGBInto: a second call must convert the poisoned planes as they
// are rather than reconstruct them again.
func TestRGBIntoReconstructsOnce(t *testing.T) {
	stream := encodeToBytes(t, testImageRGB(40, 24, 43), &Options{Subsampling: Sub444})
	var dec Decoded
	if err := DecodeInto(bytes.NewReader(stream), &dec, nil); err != nil {
		t.Fatal(err)
	}
	dec.RGBInto(nil)
	for i, v := range [3]uint8{77, 90, 200} {
		for k := range dec.planes[i].pix {
			dec.planes[i].pix[k] = v
		}
	}
	p := imgutil.Planes{W: dec.W, H: dec.H, Y: dec.planes[0].pix, Cb: dec.planes[1].pix, Cr: dec.planes[2].pix}
	want := p.ToRGBInto(nil)
	if got := dec.RGBInto(nil); !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("second RGBInto re-ran reconstruction over the poisoned planes")
	}
	if g := dec.GrayInto(nil); g.Pix[0] != 77 || g.Pix[len(g.Pix)-1] != 77 {
		t.Fatal("GrayInto re-ran reconstruction over the poisoned luma plane")
	}
}

// TestDecodeIntoDropsReconstruction reuses one Decoded across streams:
// after RGBInto of stream A, DecodeInto of stream B must invalidate A's
// planes so the next RGBInto equals a fresh decode of B, for
// same-geometry and shrinking follow-ups, sequential and sharded.
func TestDecodeIntoDropsReconstruction(t *testing.T) {
	cases := onDemandCases(t)
	pairs := [][2]onDemandCase{
		{cases[0], {name: "420-b", stream: encodeToBytes(t, testImageRGB(72, 56, 44), &Options{Subsampling: Sub420})}},
		{cases[1], {name: "444-dri-b", stream: encodeToBytes(t, testImageRGB(160, 128, 45), &Options{Subsampling: Sub444, RestartInterval: 4}), opts: cases[1].opts}},
		{cases[1], cases[0]},
		{cases[2], cases[0]},
	}
	for _, pair := range pairs {
		a, b := pair[0], pair[1]
		t.Run(a.name+"-then-"+b.name, func(t *testing.T) {
			var dec Decoded
			if err := DecodeInto(bytes.NewReader(a.stream), &dec, a.opts); err != nil {
				t.Fatal(err)
			}
			img := dec.RGBInto(nil)
			if err := DecodeInto(bytes.NewReader(b.stream), &dec, b.opts); err != nil {
				t.Fatal(err)
			}
			img = dec.RGBInto(img)
			var fresh Decoded
			if err := DecodeInto(bytes.NewReader(b.stream), &fresh, b.opts); err != nil {
				t.Fatal(err)
			}
			want := fresh.RGBInto(nil)
			if img.W != want.W || img.H != want.H || !bytes.Equal(img.Pix, want.Pix) {
				t.Fatal("RGBInto after a second DecodeInto differs from a fresh decode of the second stream")
			}
		})
	}
}

// TestUndefinedDQTFailsInDecodeInto keeps the accept/reject set where it
// was: a frame whose SOF names a quantization table no DQT defined fails
// in DecodeInto, not later when pixels are first requested.
func TestUndefinedDQTFailsInDecodeInto(t *testing.T) {
	stream := encodeToBytes(t, testImageRGB(16, 16, 46), nil)
	sof := bytes.Index(stream, []byte{0xFF, mSOF0})
	if sof < 0 {
		t.Fatal("no SOF0 in encoded stream")
	}
	bad := bytes.Clone(stream)
	bad[sof+12] = 3 // component 0's Tq: tables 0 and 1 are the only ones defined
	var dec Decoded
	err := DecodeInto(bytes.NewReader(bad), &dec, nil)
	if err == nil || !strings.Contains(err.Error(), "missing quantization table 3") {
		t.Fatalf("DecodeInto = %v, want the missing quantization table error", err)
	}
}
