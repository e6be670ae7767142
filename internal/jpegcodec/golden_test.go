package jpegcodec

// Golden stream digests: the SHA-256 of every emitted stream below was
// recorded when the codec still offered a naive and an AAN engine, and
// both engines produced these exact bytes. The codec now runs AAN only,
// so this table is what keeps encode and requantize output pinned to the
// pre-existing streams — any change to the transform, the folded
// divisors or the tie-snapping quantizer that moves one byte fails here.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/qtable"
)

func TestGoldenStreamDigests(t *testing.T) {
	qf100 := Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 100),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 100),
	}
	encodeRGB := func(w, h int, seed int64, o Options) func(t *testing.T) []byte {
		return func(t *testing.T) []byte {
			return encodeToBytes(t, testImageRGB(w, h, seed), &o)
		}
	}
	requantize := func(src func(t *testing.T) []byte, o Options) func(t *testing.T) []byte {
		return func(t *testing.T) []byte {
			dec, err := Decode(bytes.NewReader(src(t)))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			luma := qtable.MustScale(qtable.StdLuminance, 40)
			chroma := qtable.MustScale(qtable.StdChrominance, 40)
			if err := Requantize(&buf, dec, luma, chroma, &o); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
	}
	fixture := func(name string) func(t *testing.T) []byte {
		return func(t *testing.T) []byte {
			b, err := os.ReadFile(filepath.Join("testdata", "progressive", name))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}

	cases := []struct {
		name   string
		stream func(t *testing.T) []byte
		sha256 string
	}{
		{"rgb420-qf50", encodeRGB(67, 45, 101, Options{}), "1277090465a9717e56ddf4afaedb88e4550f4faf55bb0c9aa3617235c9dc61f2"},
		{"rgb444-qf50", encodeRGB(67, 45, 102, Options{Subsampling: Sub444}), "6b0850d4055b538e83d2053e8765cbf0581c11ee0aad8aaceef588dca6f17040"},
		{"rgb422-qf50", encodeRGB(67, 45, 103, Options{Subsampling: Sub422}), "de870f2c1dd6c388ef35a7b0bea6581b9278a4c596ec3cdfc6fbe91fe6d5c144"},
		{"rgb420-qf100", encodeRGB(67, 45, 104, qf100), "ea029ed425bf2c83c29e92390e3d82ac9a57969f2660a6d7fe556272e0f7363b"},
		{"rgb444-qf100", encodeRGB(33, 40, 105, Options{Subsampling: Sub444, LumaTable: qf100.LumaTable, ChromaTable: qf100.ChromaTable}), "ec0c8fe37021deb6e4674c1a92b9e04ae4f1ce5996f1b553c3148efe91f208ea"},
		{"rgb420-optimized", encodeRGB(67, 45, 106, Options{OptimizeHuffman: true}), "ed0ce82021885ebf3e6c6ff38901f87dc29b649576e6c36007bf907bad03dc40"},
		{"rgb420-dri", encodeRGB(67, 45, 107, Options{RestartInterval: 2}), "6356432610cf57813510460c49495dd9cdca8a612896884e5536f45c070edf17"},
		{"rgb422-dri-optimized", encodeRGB(67, 45, 108, Options{Subsampling: Sub422, RestartInterval: 3, OptimizeHuffman: true}), "da8b7c3db060456600c20a426e6fc48537ba87ab608e288543390ce832891b56"},
		{"gray-qf50", func(t *testing.T) []byte {
			var buf bytes.Buffer
			if err := EncodeGray(&buf, testImageGray(48, 31, 109), nil); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}, "bf4694e8daabc469f7db7b42589c18bf4b1271fc0588c733f8e233562b168477"},
		{"gray-qf100-dri", func(t *testing.T) []byte {
			var buf bytes.Buffer
			o := Options{LumaTable: qf100.LumaTable, RestartInterval: 1}
			if err := EncodeGray(&buf, testImageGray(48, 31, 110), &o); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}, "ad593a9071e3db7591d3afadebcc2b9b24f26eb47fd2da6e7f7ebc0c16c7f81d"},
		{"requantize-baseline", requantize(encodeRGB(40, 40, 9, Options{}), Options{OptimizeHuffman: true}), "ffa272e34481033da61cd0f20a7ceae048e4ee3b06368c8a80621c94cb143dc3"},
		{"requantize-progressive", requantize(fixture("rgb420-standard.jpg"), Options{}), "d7402c0c80d0807bef718ec35fd87b521c6a52ea77fed0984742d7941b209fa6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := sha256.Sum256(tc.stream(t))
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Fatalf("stream digest %s, want %s", got, tc.sha256)
			}
		})
	}
}
