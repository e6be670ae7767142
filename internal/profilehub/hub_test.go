package profilehub

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/freqstat"
	"repro/internal/plm"
	"repro/internal/profile"
)

// testProfile builds a deterministic, valid profile and its encoded
// bytes. Versions get distinct table bytes so distinct blobs have
// distinct content addresses.
func testProfile(tb testing.TB, name string, version uint32) (*profile.Profile, []byte) {
	tb.Helper()
	stats := &freqstat.Stats{Blocks: 4096}
	for i := 0; i < 64; i++ {
		f := float64(i)
		stats.Mean[i] = 1 + f/8
		stats.Std[i] = 80 - f
		stats.Min[i] = -(1 + 2*f)
		stats.Max[i] = 1 + 2*f
	}
	p := &profile.Profile{
		Name:         name,
		Version:      version,
		CreatedUnix:  1700000000,
		SampledCount: 512,
		Params: plm.Params{
			A: 255, B: 80, C: 240,
			K1: 9.75, K2: 1, K3: 3,
			T1: 20, T2: 60,
			QMin: 5, QMax: 255,
		},
		LumaStats: stats,
	}
	for i := range p.Luma {
		p.Luma[i] = uint16(1 + (i*3)%255)
		p.Chroma[i] = uint16(1 + (i*7)%255)
	}
	p.Luma[0] = uint16(1 + version%255)
	data, err := p.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return p, data
}

func testHubKey(tb testing.TB) (ed25519.PublicKey, ed25519.PrivateKey) {
	tb.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	return pub, priv
}

// testIndex builds a small valid index over synthetic entries.
func testIndex(tb testing.TB, refs ...string) *Index {
	tb.Helper()
	ix := &Index{Format: ProtocolVersion, GeneratedUnix: 1700000100}
	for _, ref := range refs {
		name, version, hasVersion, err := profile.ParseRef(ref)
		if err != nil || !hasVersion {
			tb.Fatalf("bad test ref %q", ref)
		}
		_, data := testProfile(tb, name, version)
		ix.Profiles = append(ix.Profiles, Entry{
			Name:    name,
			Version: version,
			SHA256:  profile.BlobSHA256(data),
			Size:    int64(len(data)),
			CRC32:   fmt.Sprintf("%08x", blobCRC(data)),
		})
	}
	return ix
}

func TestIndexResolve(t *testing.T) {
	ix := testIndex(t, "a@1", "a@3", "b@2")
	e, err := ix.Resolve("a", 1)
	if err != nil || e.Ref() != "a@1" {
		t.Fatalf("explicit resolve: %v %v", e, err)
	}
	e, err = ix.Resolve("a", 0)
	if err != nil || e.Ref() != "a@3" {
		t.Fatalf("bare resolve should pick highest: %v %v", e, err)
	}
	if _, err := ix.Resolve("a", 2); !errors.Is(err, profile.ErrNotFound) {
		t.Fatalf("missing version: %v", err)
	}
	if _, err := ix.Resolve("zzz", 0); !errors.Is(err, profile.ErrNotFound) {
		t.Fatalf("missing name: %v", err)
	}
}

func TestIndexSignVerifyAndTamper(t *testing.T) {
	pub, priv := testHubKey(t)
	otherPub, _ := testHubKey(t)
	ix := testIndex(t, "a@1", "b@1")
	// Give one entry an inline signature so the manifest covers it.
	_, data := testProfile(t, "a", 1)
	rec := profile.Sign(priv, "a@1", data)
	ix.Profiles[0].Sig, ix.Profiles[0].SigKeyID = rec.Sig, rec.KeyID

	if err := ix.VerifySignature(pub); err == nil {
		t.Fatal("unsigned index verified against a trust key")
	}
	ix.Sign(priv)
	if err := ix.VerifySignature(pub); err != nil {
		t.Fatalf("signed index: %v", err)
	}
	if err := ix.VerifySignature(otherPub); err == nil {
		t.Fatal("index verified against the wrong key")
	}

	// Tampering with any covered field invalidates the signature —
	// including stripping a per-entry signature (a downgrade attack).
	tampered := *ix
	tampered.Profiles = append([]Entry(nil), ix.Profiles...)
	tampered.Profiles[1].SHA256 = strings.Repeat("0", 64)
	if err := tampered.VerifySignature(pub); err == nil {
		t.Fatal("sha swap survived signature verification")
	}
	stripped := *ix
	stripped.Profiles = append([]Entry(nil), ix.Profiles...)
	stripped.Profiles[0].Sig, stripped.Profiles[0].SigKeyID = nil, ""
	if err := stripped.VerifySignature(pub); err == nil {
		t.Fatal("stripping an entry signature survived verification")
	}
}

func TestIndexEncodeCanonical(t *testing.T) {
	a := testIndex(t, "b@2", "a@1", "a@3")
	b := testIndex(t, "a@3", "b@2", "a@1")
	ea, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("entry order leaks into encoded index")
	}
	back, err := ParseIndex(ea)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Profiles) != 3 || back.Profiles[0].Ref() != "a@1" {
		t.Fatalf("round trip: %+v", back.Profiles)
	}
}

func TestParseIndexRejectsMalformed(t *testing.T) {
	valid := testIndex(t, "a@1")
	encode := func(mutate func(*Index)) []byte {
		ix := *valid
		ix.Profiles = append([]Entry(nil), valid.Profiles...)
		mutate(&ix)
		data, err := ix.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"not json":      []byte("][ nope"),
		"wrong format":  encode(func(ix *Index) { ix.Format = 99 }),
		"dup ref":       encode(func(ix *Index) { ix.Profiles = append(ix.Profiles, ix.Profiles[0]) }),
		"version zero":  encode(func(ix *Index) { ix.Profiles[0].Version = 0 }),
		"bad name":      encode(func(ix *Index) { ix.Profiles[0].Name = "no spaces allowed" }),
		"short sha":     encode(func(ix *Index) { ix.Profiles[0].SHA256 = "abcd" }),
		"upper sha":     encode(func(ix *Index) { ix.Profiles[0].SHA256 = strings.Repeat("A", 64) }),
		"zero size":     encode(func(ix *Index) { ix.Profiles[0].Size = 0 }),
		"huge size":     encode(func(ix *Index) { ix.Profiles[0].Size = MaxBlobBytes + 1 }),
		"bad crc":       encode(func(ix *Index) { ix.Profiles[0].CRC32 = "xyzw1234" }),
		"short crc":     encode(func(ix *Index) { ix.Profiles[0].CRC32 = "ab" }),
		"short sig":     encode(func(ix *Index) { ix.Profiles[0].Sig = []byte{1, 2, 3} }),
		"short idx sig": encode(func(ix *Index) { ix.Sig = []byte{1} }),
		"oversized doc": append(encode(func(ix *Index) {}), bytes.Repeat([]byte(" "), MaxIndexBytes)...),
	}
	for name, data := range cases {
		if _, err := ParseIndex(data); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
	if _, err := ParseIndex(encode(func(ix *Index) {})); err != nil {
		t.Fatalf("control case should parse: %v", err)
	}
}
