package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"image"
	"image/jpeg"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/dataset"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/qtable"
)

// Every input is derived from the workload seed through rngFor, keyed by
// what the input is for, so inputs do not depend on generation order.
func rngFor(seed int64, salt ...int64) *rand.Rand {
	h := seed*1_000_003 + 17
	for _, s := range salt {
		h = h*7_919 + s
	}
	return rand.New(rand.NewSource(h))
}

// synthRGB draws a seeded w×h frame with the ingredients that decide
// JPEG cost: smooth gradients and soft blobs (low frequencies), a
// grating (a mid-frequency band), an edge, and sensor noise. The seed
// places them and picks colours and phases; their sizes, amplitudes and
// frequencies are fixed, so frames of one size code to similar byte
// counts and per-seed averages stay close.
func synthRGB(w, h int, rng *rand.Rand) *imgutil.RGB {
	im := imgutil.NewRGB(w, h)
	var base, gx, gy [3]float64
	for c := range base {
		base[c] = 80 + rng.Float64()*80
		gx[c] = sign(rng) * 25 / float64(w)
		gy[c] = sign(rng) * 25 / float64(h)
	}
	type blob struct{ cx, cy, r2, amp float64 }
	blobs := make([]blob, 5)
	for i := range blobs {
		r := (0.08 + 0.04*float64(i)) * float64(min(w, h))
		blobs[i] = blob{rng.Float64() * float64(w), rng.Float64() * float64(h), r * r, sign(rng) * 40}
	}
	const (
		freq    = 0.7 * math.Pi / 8
		gAmp    = 13
		edgeAmp = 18
		noise   = 3.5
	)
	phase := rng.Float64() * 2 * math.Pi
	edgeX := int(float64(w) * (0.2 + 0.6*rng.Float64()))
	edge := sign(rng) * edgeAmp
	rowG := make([]float64, w)
	for y := 0; y < h; y++ {
		fy := float64(y)
		for x := range rowG {
			rowG[x] = gAmp * math.Cos(freq*(float64(x)+fy)+phase)
		}
		for x := 0; x < w; x++ {
			fx := float64(x)
			v := rowG[x]
			for _, b := range blobs {
				d2 := (fx-b.cx)*(fx-b.cx) + (fy-b.cy)*(fy-b.cy)
				v += b.amp / (1 + d2/b.r2)
			}
			if x >= edgeX {
				v += edge
			}
			n := rng.NormFloat64() * noise
			o := 3 * (y*w + x)
			for c := 0; c < 3; c++ {
				im.Pix[o+c] = clamp8(base[c] + gx[c]*fx + gy[c]*fy + v*(0.8+0.1*float64(c)) + n)
			}
		}
	}
	return im
}

func sign(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

func clamp8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// toRGBA converts an imgutil frame to the stdlib image type whose
// encoder fast path stdlib twins use.
func toRGBA(im *imgutil.RGB) *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for i, j := 0, 0; i < len(im.Pix); i, j = i+3, j+4 {
		out.Pix[j], out.Pix[j+1], out.Pix[j+2], out.Pix[j+3] = im.Pix[i], im.Pix[i+1], im.Pix[i+2], 255
	}
	return out
}

// stdlibJPEG encodes a frame with image/jpeg (4:2:0) at quality q.
func stdlibJPEG(im *imgutil.RGB, q int) ([]byte, error) {
	var b bytes.Buffer
	if err := jpeg.Encode(&b, toRGBA(im), &jpeg.Options{Quality: q}); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// jpegItem is one JPEG input stream with its source geometry. Origin
// says who produced it: "stdlib" (image/jpeg), "repo" (this module's
// encoder, for streams image/jpeg cannot write) or "fixture" (a
// checked-in file).
type jpegItem struct {
	Data   []byte
	W, H   int
	Origin string
}

func (it jpegItem) mpix() float64 { return float64(it.W*it.H) / 1e6 }

// calibrationSet is the SynthNet set every workload calibrates its codec
// on during set-up.
func calibrationSet(seed int64, size, perClass int) ([]*imgutil.RGB, []int, error) {
	train, _, err := dataset.Generate(dataset.Config{
		Classes: 8, Size: size, TrainPerClass: perClass, TestPerClass: 1,
		Color: true, NoiseStd: 5, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	return train.Images, train.Labels, nil
}

// archiveBatch lays out one requantize-archive batch: eleven stdlib
// 4:2:0 streams spanning 224²–1024² at QF 60–95, one 4:4:4 and one
// 4:2:2 stream from this module's encoder with a one-MCU-row restart
// interval and an APP1 blob (both above 1024 MCUs), and three of the
// checked-in progressive fixtures.
var archiveSizes = []int{224, 256, 288, 320, 384, 448, 512, 576, 640, 768, 1024}

const (
	archiveBatches    = 4
	archiveFixtureDir = "internal/jpegcodec/testdata/progressive"
)

// archiveInputs builds the requantize-archive batches. sizeScale shrinks
// every frame (1 for the benchmark; tests use a fraction); root is the
// repository root the fixtures are read from.
func archiveInputs(root string, seed int64, sizeScale float64) ([][]jpegItem, error) {
	fixtures, err := loadFixtures(root)
	if err != nil {
		return nil, err
	}
	batches := make([][]jpegItem, archiveBatches)
	for b := range batches {
		for k, s := range archiveSizes {
			s = scaled(s, sizeScale)
			im := synthRGB(s, s, rngFor(seed, 1, int64(b), int64(k)))
			data, err := stdlibJPEG(im, archiveQuality(b, k))
			if err != nil {
				return nil, err
			}
			batches[b] = append(batches[b], jpegItem{data, s, s, "stdlib"})
		}
		for k, sub := range []jpegcodec.Subsampling{jpegcodec.Sub444, jpegcodec.Sub422} {
			s := scaled([]int{384, 512}[k], sizeScale)
			rng := rngFor(seed, 2, int64(b), int64(k))
			it, err := repoJPEG(synthRGB(s, s, rng), sub, archiveQuality(b, len(archiveSizes)+k), rng)
			if err != nil {
				return nil, err
			}
			batches[b] = append(batches[b], it)
		}
		for k := 0; k < 3; k++ {
			batches[b] = append(batches[b], fixtures[(b*3+k)%len(fixtures)])
		}
	}
	return batches, nil
}

// archiveQuality spreads QF 60–95 over the items of a batch, rotating
// per batch, so every seed encodes the same sizes at the same qualities
// and only the content varies.
func archiveQuality(b, k int) int {
	const steps = 13
	return 60 + 35*((k+5*b)%steps)/(steps-1)
}

func scaled(s int, f float64) int {
	return max(16, int(float64(s)*f)/8*8)
}

// repoJPEG encodes a frame with this module's encoder at Annex-K tables
// scaled to qf: a restart interval of one MCU row and an APP1 (Exif)
// blob, which image/jpeg cannot write.
func repoJPEG(im *imgutil.RGB, sub jpegcodec.Subsampling, qf int, rng *rand.Rand) (jpegItem, error) {
	mcuW := 16
	if sub == jpegcodec.Sub444 {
		mcuW = 8
	}
	exif := make([]byte, 2048)
	copy(exif, "Exif\x00\x00")
	for i := 6; i < len(exif); i++ {
		exif[i] = byte(rng.Intn(256))
	}
	var b bytes.Buffer
	err := jpegcodec.EncodeRGB(&b, im, &jpegcodec.Options{
		LumaTable:       qtable.MustScale(qtable.StdLuminance, qf),
		ChromaTable:     qtable.MustScale(qtable.StdChrominance, qf),
		Subsampling:     sub,
		RestartInterval: (im.W + mcuW - 1) / mcuW,
		Metadata:        []jpegcodec.MetaSegment{{Marker: 0xE1, Payload: exif}},
	})
	if err != nil {
		return jpegItem{}, err
	}
	return jpegItem{b.Bytes(), im.W, im.H, "repo"}, nil
}

// loadFixtures reads the checked-in progressive corpus in name order.
func loadFixtures(root string) ([]jpegItem, error) {
	names, err := filepath.Glob(filepath.Join(root, archiveFixtureDir, "*.jpg"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no progressive fixtures under %s", filepath.Join(root, archiveFixtureDir))
	}
	sort.Strings(names)
	var out []jpegItem
	for _, n := range names {
		data, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		cfg, err := jpeg.DecodeConfig(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		out = append(out, jpegItem{data, cfg.Width, cfg.Height, "fixture"})
	}
	return out, nil
}

// trainImages renders the decode-train SynthNet images, shuffled so
// every batch mixes classes.
func trainImages(seed int64, size, n int) ([]*imgutil.RGB, error) {
	const classes = 8
	train, _, err := dataset.Generate(dataset.Config{
		Classes: classes, Size: size, TrainPerClass: (n + classes - 1) / classes, TestPerClass: 1,
		Color: true, NoiseStd: 5, Seed: seed + 7,
	})
	if err != nil {
		return nil, err
	}
	imgs := train.Images[:n]
	rngFor(seed, 3).Shuffle(len(imgs), func(i, j int) { imgs[i], imgs[j] = imgs[j], imgs[i] })
	return imgs, nil
}

// digest accumulates two SHA-256 sums over length-prefixed inputs: one
// over every input, one over the inputs only this module's encoder can
// produce (a change to that encoder changes them); the second reads
// "none" when a workload has no such inputs.
type digest struct {
	all, repo hash.Hash
	repoN     int
}

func newDigest() *digest { return &digest{all: sha256.New(), repo: sha256.New()} }

func (d *digest) add(b []byte, repo bool) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	d.all.Write(n[:])
	d.all.Write(b)
	if repo {
		d.repo.Write(n[:])
		d.repo.Write(b)
		d.repoN++
	}
}

func (d *digest) sums() (all, repo string) {
	repo = "none"
	if d.repoN > 0 {
		repo = hex.EncodeToString(d.repo.Sum(nil))
	}
	return hex.EncodeToString(d.all.Sum(nil)), repo
}
