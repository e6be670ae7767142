package deepnjpeg

// End-to-end acceptance of the persistent-calibration subsystem: a
// profile written from a calibrated Codec must restore to a codec whose
// streams are byte-identical to the original's (encode and
// requantize), and a server booted from a profile directory
// must answer without any calibration having run.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
)

func TestProfileRoundTripByteIdentical(t *testing.T) {
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{Chroma: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "set@7.dnp")
	if err := codec.SaveProfile(path, ProfileMeta{Name: "set", Version: 7, Comment: "round trip"}); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ref() != "set@7" || p.CreatedUnix == 0 {
		t.Fatalf("loaded profile %+v", p)
	}
	restored, err := NewCodecFromProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if restored.LumaTable() != codec.LumaTable() || restored.ChromaTable() != codec.ChromaTable() {
		t.Fatal("restored tables differ")
	}
	for i, img := range images[:4] {
		want, err := codec.Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("image %d: restored codec stream differs", i)
		}
	}
	// Requantization shares the tables too.
	src, err := EncodeJPEG(images[0], 90)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Requantize(src, RequantizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Requantize(src, RequantizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("restored requantize stream differs")
	}
}

func TestServerBootsFromProfileWithoutCodec(t *testing.T) {
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{Chroma: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := codec.SaveProfile(filepath.Join(dir, "boot@1.dnp"), ProfileMeta{Name: "boot", Version: 1}); err != nil {
		t.Fatal(err)
	}
	// nil Codec: the profile is the only table source — serve without
	// any boot-time calibration.
	srv, err := NewServer(nil, ServerOptions{ProfileDir: dir, DefaultProfile: "boot"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	src, err := EncodeJPEG(images[0], 90)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/requantize?optimize=false", "image/jpeg", bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request answered %d", resp.StatusCode)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	want, err := codec.Requantize(src, RequantizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("profile-booted server stream differs from the calibrated codec")
	}
}
