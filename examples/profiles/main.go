// Profiles example: the full lifecycle of a persistent calibration
// profile — calibrate once, save it as a named versioned artifact,
// restore it into a byte-identical codec, and boot an HTTP server from
// a profile directory with no startup calibration at all. Everything
// happens in a temp directory on a loopback port, so the example is
// self-contained.
//
//	go run ./examples/profiles
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	deepnjpeg "repro"
	"repro/internal/dataset"
)

func main() {
	// 1. Calibrate — the expensive step you want to pay exactly once.
	cfg := dataset.Quick()
	cfg.Color = true
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	codec, err := deepnjpeg.Calibrate(train.Images, train.Labels, deepnjpeg.CalibrateConfig{Chroma: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated in %v\n", time.Since(start).Round(time.Millisecond))

	// 2. Persist it as a named, versioned artifact.
	dir, err := os.MkdirTemp("", "deepn-profiles-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "synthnet@1.dnp")
	if err := codec.SaveProfile(path, deepnjpeg.ProfileMeta{
		Name: "synthnet", Version: 1, Comment: "example calibration",
	}); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("profile saved to %s (%d bytes)\n", path, st.Size())

	// 3. Restore — the loaded codec is byte-identical to the original.
	p, err := deepnjpeg.LoadProfile(path)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	restored, err := deepnjpeg.NewCodecFromProfile(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profile %s restored in %v\n", p.Ref(), time.Since(start))
	a, err := codec.Encode(train.Images[0])
	if err != nil {
		log.Fatal(err)
	}
	b, err := restored.Encode(train.Images[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored codec streams byte-identical: %v (%d bytes)\n", bytes.Equal(a, b), len(a))

	// 4. Serve straight from the profile directory: nil Codec, no
	// boot-time calibration — the profile is the table source, requests
	// can pick any profile in the directory with ?profile=.
	srv, err := deepnjpeg.NewServer(nil, deepnjpeg.ServerOptions{
		ProfileDir:     dir,
		DefaultProfile: "synthnet",
	})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("healthz: %s", health)

	// Hot reload after dropping a new profile version into the directory.
	if err := codec.SaveProfile(filepath.Join(dir, "synthnet@2.dnp"), deepnjpeg.ProfileMeta{
		Name: "synthnet", Version: 2, Comment: "recalibrated",
	}); err != nil {
		log.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/admin/profiles/reload", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	reload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("reload: %s", reload)
}
