package main

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"

	"repro/internal/imgutil"
)

// The output checks run outside every timed region. Each failure counts
// against error_rate.

// maxLevels is the interop pin the test suite holds the decoder to: on
// the same stream its decoded samples agree with image/jpeg's within
// IDCT rounding.
const maxLevels = 2

// stdlibRGB decodes a stream with image/jpeg into interleaved RGB (the
// stdlib twin of a decode), converting image/jpeg's planes directly so
// the twin's time is image/jpeg's work, not per-pixel interface calls.
func stdlibRGB(data []byte) (*imgutil.RGB, error) {
	img, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	b := img.Bounds()
	out := imgutil.NewRGB(b.Dx(), b.Dy())
	o := 0
	switch im := img.(type) {
	case *image.YCbCr:
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x++ {
				ci := im.COffset(x, y)
				out.Pix[o], out.Pix[o+1], out.Pix[o+2] = color.YCbCrToRGB(im.Y[im.YOffset(x, y)], im.Cb[ci], im.Cr[ci])
				o += 3
			}
		}
	case *image.Gray:
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for _, v := range im.Pix[im.PixOffset(b.Min.X, y):im.PixOffset(b.Max.X, y)] {
				out.Pix[o], out.Pix[o+1], out.Pix[o+2] = v, v, v
				o += 3
			}
		}
	default:
		return nil, fmt.Errorf("image/jpeg decoded an unexpected %T", img)
	}
	return out, nil
}

// checkJPEG requires out to decode with image/jpeg at w×h.
func checkJPEG(out []byte, w, h int) error {
	if len(out) == 0 {
		return fmt.Errorf("empty output")
	}
	img, err := jpeg.Decode(bytes.NewReader(out))
	if err != nil {
		return fmt.Errorf("image/jpeg rejects the output: %w", err)
	}
	if b := img.Bounds(); b.Dx() != w || b.Dy() != h {
		return fmt.Errorf("output is %dx%d, source is %dx%d", b.Dx(), b.Dy(), w, h)
	}
	return nil
}

// checkPixels requires got to be src decoded: the source geometry, and
// every pixel within maxLevels of image/jpeg's decoded samples on the
// same stream. The comparison is in the sample domain the pin is stated
// in: an RGB pixel maps back to Y, Cb and Cr through the JFIF matrix,
// exactly up to the output's own rounding (half a level), and must meet
// image/jpeg's samples at that pixel. Comparing RGB directly would count
// rounding as errors: the matrix turns a one-level chroma IDCT rounding
// difference into three levels of blue on a few pixels in a million.
// A pixel with a channel clamped at 0 or 255 does not map back, so it is
// compared in RGB against image/jpeg's samples converted by the same
// matrix, within what maxLevels per sample can become through it.
func checkPixels(src []byte, got *imgutil.RGB) error {
	if got == nil {
		return fmt.Errorf("no output")
	}
	img, err := jpeg.Decode(bytes.NewReader(src))
	if err != nil {
		return fmt.Errorf("image/jpeg rejects the source: %w", err)
	}
	b := img.Bounds()
	if got.W != b.Dx() || got.H != b.Dy() || len(got.Pix) != 3*got.W*got.H {
		return fmt.Errorf("decoded %dx%d, image/jpeg %dx%d", got.W, got.H, b.Dx(), b.Dy())
	}
	const clampedLevels = maxLevels*(1+1.772) + 0.5
	for y := 0; y < got.H; y++ {
		for x := 0; x < got.W; x++ {
			o := 3 * (y*got.W + x)
			r, g, bl := float64(got.Pix[o]), float64(got.Pix[o+1]), float64(got.Pix[o+2])
			var sy, scb, scr float64
			switch im := img.(type) {
			case *image.YCbCr:
				yi, ci := im.YOffset(b.Min.X+x, b.Min.Y+y), im.COffset(b.Min.X+x, b.Min.Y+y)
				sy, scb, scr = float64(im.Y[yi]), float64(im.Cb[ci]), float64(im.Cr[ci])
			case *image.Gray:
				sy, scb, scr = float64(im.Pix[im.PixOffset(b.Min.X+x, b.Min.Y+y)]), 128, 128
			default:
				return fmt.Errorf("image/jpeg decoded an unexpected %T", img)
			}
			var d, limit float64
			if min(r, g, bl) > 0 && max(r, g, bl) < 255 {
				d = max(
					abs(0.299*r+0.587*g+0.114*bl-sy),
					abs(-0.168736*r-0.331264*g+0.5*bl+128-scb),
					abs(0.5*r-0.418688*g-0.081312*bl+128-scr))
				limit = maxLevels + 0.5
			} else {
				cb, cr := scb-128, scr-128
				d = max(
					abs(r-clampF(sy+1.402*cr)),
					abs(g-clampF(sy-0.344136*cb-0.714136*cr)),
					abs(bl-clampF(sy+1.772*cb)))
				limit = clampedLevels
			}
			if d > limit {
				return fmt.Errorf("pixel (%d,%d) differs from image/jpeg's samples by %.2f levels (limit %d per sample)", x, y, d, maxLevels)
			}
		}
	}
	return nil
}

func clampF(v float64) float64 { return min(max(v, 0), 255) }

func abs(v float64) float64 { return max(v, -v) }
