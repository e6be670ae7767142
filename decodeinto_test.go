package deepnjpeg

// Public-surface tests for the decode reuse APIs: the Into-variants must
// reproduce their allocating counterparts exactly.

import (
	"bytes"
	"context"
	"testing"
)

// reuseCodec calibrates one codec and returns it with its corpus.
func reuseCodec(t *testing.T) (*Codec, []*Image) {
	t.Helper()
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{Chroma: true})
	if err != nil {
		t.Fatal(err)
	}
	return codec, images
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	codec, images := reuseCodec(t)
	stream, err := codec.Encode(images[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh (nil dst) and reused decodes of the same stream.
	got, err := DecodeInto(nil, stream, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("DecodeInto(nil) diverges from Decode")
	}
	reuse := NewImage(1, 1) // deliberately too small; must grow
	got2, err := DecodeInto(reuse, stream, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got2 != reuse {
		t.Fatal("DecodeInto must return the reuse buffer it filled")
	}
	if !bytes.Equal(got2.Pix, want.Pix) {
		t.Fatal("DecodeInto(reuse) diverges from Decode")
	}
}

func TestDecodeBatchIntoMatchesDecodeBatch(t *testing.T) {
	codec, images := reuseCodec(t)
	streams, err := codec.EncodeBatch(context.Background(), images, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeBatch(context.Background(), streams, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// nil dst allocates, non-nil dst is reused and returned.
	got, err := DecodeBatchInto(context.Background(), streams, nil, BatchOptions{}, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]*Image, len(streams))
	for i := range dst {
		dst[i] = NewImage(1, 1)
	}
	reused, err := DecodeBatchInto(context.Background(), streams, dst, BatchOptions{Workers: 2}, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(reused) != len(want) {
		t.Fatalf("batch lengths diverge: %d/%d/%d", len(got), len(reused), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Pix, want[i].Pix) {
			t.Fatalf("item %d: DecodeBatchInto(nil dst) diverges from DecodeBatch", i)
		}
		if reused[i] != dst[i] {
			t.Fatalf("item %d: DecodeBatchInto must fill the provided buffers", i)
		}
		if !bytes.Equal(reused[i].Pix, want[i].Pix) {
			t.Fatalf("item %d: DecodeBatchInto(reused dst) diverges from DecodeBatch", i)
		}
	}
	// Mismatched reuse-slice length is an error, not a silent reallocation.
	if _, err := DecodeBatchInto(context.Background(), streams, dst[:1], BatchOptions{}, DecodeOptions{}); err == nil {
		t.Fatal("short dst slice must be rejected")
	}
}
