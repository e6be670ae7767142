package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"image/jpeg"
	"io"
	"math"
	"math/rand"
	"mime"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	deepnjpeg "repro"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/pipeline"
)

// serve-mixed drives `deepn-jpeg serve` in its own process with seeded
// Poisson arrivals over two keep-alive connections, at a fixed ladder of
// rates, then in a closed loop for throughput against an in-process
// image/jpeg twin.

// The ladder and its limits are fixed: they are part of the benchmark.
// The lag bound sits above the queueing a rung that keeps up shows (a
// wait behind the largest requests or a host stall, up to about 200 ms
// at 40 rps on a slow host), and below the wait a backlog builds over
// the top rung (5 s in a 25 s run) when the server serves less than
// about 94% of its rate. The top rung is the longest, so its lag p99 is
// not just its worst wait. A phase over the bound is printed as invalid
// and does not score.
var (
	serveRates      = []float64{10, 20, 40} // requests per second
	serveLatencyMax = 500.0                 // ms, p99 limit at every rate
	serveLagMax     = 300.0                 // ms, p99 bound on send start minus due time
	serveConns      = 2
	serveTenants    = []string{"tenant-a", "tenant-b"}
)

// One cycle of the mix is 20 requests: 40% requantize, 25% decode
// (PPM out), 20% encode (PPM in), 15% batch requantize of 8 items. Each
// route has one body per slot of the cycle, so every cycle sends every
// body once and all cycles carry the same work. Sizes span 224²–1024²
// but most requests are small, as tenant traffic is, so that enough
// requests fit a run: one request in twenty is 1024².
var serveSizes = map[string][]int{
	"requantize": {224, 224, 224, 256, 256, 288, 320, 1024},
	"decode":     {224, 224, 256, 288, 512},
	"encode":     {224, 224, 256, 288, 384},
}

var (
	serveBatchSizes = []int{224, 224, 224, 224, 256, 256, 288, 288}
	serveBatchSets  = 3
	serveRoutes     = []string{"requantize", "decode", "encode", "batch"}
)

// serveCycle lists the routes of one cycle, one entry per body.
func serveCycle() []string {
	var c []string
	for _, r := range serveRoutes[:3] {
		for range serveSizes[r] {
			c = append(c, r)
		}
	}
	for range serveBatchSets {
		c = append(c, "batch")
	}
	return c
}

// body is one distinct request body with what its response must be.
type body struct {
	route   string
	path    string
	data    []byte
	ctype   string
	srcJPEG [][]byte // source streams (one, or the batch items)
	w, h    []int    // source geometry per item
	mpix    float64
	inBytes int // what the server accounts as bytes_in
}

type serveInputs struct {
	byRoute map[string][]*body
}

func serveBodies(seed int64) (*serveInputs, error) {
	in := &serveInputs{byRoute: map[string][]*body{}}
	for ri, r := range serveRoutes[:3] {
		for k, s := range serveSizes[r] {
			rng := rngFor(seed, 5, int64(ri), int64(k))
			im := synthRGB(s, s, rng)
			b := &body{route: r, w: []int{s}, h: []int{s}, mpix: float64(s*s) / 1e6}
			if r == "encode" {
				var ppm bytes.Buffer
				fmt.Fprintf(&ppm, "P6\n%d %d\n255\n", s, s)
				ppm.Write(im.Pix)
				b.path, b.data, b.ctype = "/v1/encode", ppm.Bytes(), "image/x-portable-pixmap"
			} else {
				data, err := stdlibJPEG(im, archiveQuality(ri, k))
				if err != nil {
					return nil, err
				}
				b.path, b.data, b.ctype, b.srcJPEG = "/v1/"+r, data, "image/jpeg", [][]byte{data}
				if r == "decode" {
					b.path += "?format=ppm"
				}
			}
			b.inBytes = len(b.data)
			in.byRoute[r] = append(in.byRoute[r], b)
		}
	}
	for k := 0; k < serveBatchSets; k++ {
		b := &body{route: "batch", path: "/v1/batch?op=requantize"}
		var mp bytes.Buffer
		mw := multipart.NewWriter(&mp)
		if err := mw.SetBoundary(fmt.Sprintf("perfbench-%d-%d", seed, k)); err != nil {
			return nil, err
		}
		for j, s := range serveBatchSizes {
			data, err := stdlibJPEG(synthRGB(s, s, rngFor(seed, 7, int64(k), int64(j))), archiveQuality(k, j))
			if err != nil {
				return nil, err
			}
			hdr := textproto.MIMEHeader{}
			hdr.Set("Content-Type", "image/jpeg")
			hdr.Set("Content-Disposition", fmt.Sprintf(`form-data; name="item"; filename="%d.jpg"`, j))
			pw, err := mw.CreatePart(hdr)
			if err != nil {
				return nil, err
			}
			pw.Write(data)
			b.srcJPEG = append(b.srcJPEG, data)
			b.w, b.h = append(b.w, s), append(b.h, s)
			b.mpix += float64(s*s) / 1e6
			b.inBytes += len(data)
		}
		if err := mw.Close(); err != nil {
			return nil, err
		}
		b.data, b.ctype = mp.Bytes(), mw.FormDataContentType()
		in.byRoute["batch"] = append(in.byRoute["batch"], b)
	}
	return in, nil
}

// request is one planned request.
type request struct {
	id     int
	due    time.Duration // from the phase start
	b      *body
	tenant string
}

// plan lays out n requests: the route mix as a shuffled stratified cycle,
// bodies cycling per route in seeded order, and Poisson arrivals at rate
// (no arrival times when rate is 0).
func plan(in *serveInputs, rng *rand.Rand, n int, rate float64) []request {
	next := map[string]int{}
	order := map[string][]int{}
	for _, r := range serveRoutes {
		order[r] = rng.Perm(len(in.byRoute[r]))
	}
	var out []request
	var t float64
	for len(out) < n {
		cycle := serveCycle()
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for _, r := range cycle {
			if len(out) == n {
				break
			}
			if rate > 0 {
				t += rng.ExpFloat64() / rate
			}
			k := order[r][next[r]%len(order[r])]
			next[r]++
			out = append(out, request{id: len(out), due: time.Duration(t * float64(time.Second)),
				b: in.byRoute[r][k], tenant: serveTenants[rng.Intn(len(serveTenants))]})
		}
	}
	return out
}

// outcome is what the client saw for one request.
type outcome struct {
	req          request
	start, end   time.Duration // send start and response end, from the phase start
	status       int
	ctype        string
	hdrW, hdrH   string
	sum          [32]byte
	n            int64
	body         []byte // kept for the first response of each body only
	err          error
	tracedParent int64
}

// server is the deepn-jpeg serve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// boot starts the server and returns once /healthz answers 200.
func boot(e *env, profileDir string) (*server, time.Duration, error) {
	t0 := time.Now()
	keys := serveTenants[0] + ":8," + serveTenants[1] + ":8"
	cmd := exec.Command(e.serverBin, "serve", "-addr", "127.0.0.1:0", "-profile-dir", profileDir,
		"-profile", "bench", "-api-keys", keys, "-drain", "5s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	cmd.Stderr = os.Stderr
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", e.serverBin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				f := strings.Fields(line[i+len("listening on "):])
				if len(f) > 0 {
					addr <- f[0]
					sent = true
				}
			}
		}
		if !sent {
			close(addr)
		}
	}()
	var a string
	select {
	case v, ok := <-addr:
		if !ok {
			s.stop()
			return nil, 0, fmt.Errorf("server exited before listening")
		}
		a = v
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("server did not report its address")
	}
	s.base = "http://" + a
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("server /healthz did not answer 200")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down and waits for the process to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() { _ = s.cmd.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
	<-s.done
}

// counters are the /metrics totals the generator cross-checks.
type counters struct {
	Requests int64 `json:"requests"`
	Rejected int64 `json:"rejected"`
	Failures int64 `json:"failures"`
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	InFlight int64 `json:"in_flight"`
}

func (s *server) counters() (counters, error) {
	var c counters
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

// settled reads /metrics once the server has finished accounting n
// requests since before: a handler adds its failures and bytes out after
// the client has its response, and leaves in_flight only after that.
func (s *server) settled(before counters, n int64) (counters, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := s.counters()
		if err != nil || c.Requests-before.Requests >= n && c.InFlight == 0 || time.Now().After(deadline) {
			return c, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// client runs requests over at most serveConns keep-alive connections.
type client struct {
	hc   *http.Client
	base string
	mu   sync.Mutex
	kept map[*body][]byte // first response body per distinct request body
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, kept: map[*body][]byte{}}
}

func (c *client) do(r request, t0 time.Time, o *outcome) {
	o.req = r
	o.start = time.Since(t0)
	defer func() { o.end = time.Since(t0) }()
	req, err := http.NewRequest(http.MethodPost, c.base+r.b.path, bytes.NewReader(r.b.data))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", r.b.ctype)
	req.Header.Set("X-API-Key", r.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	o.status, o.n, o.err = resp.StatusCode, int64(len(data)), err
	o.ctype = resp.Header.Get("Content-Type")
	o.hdrW, o.hdrH = resp.Header.Get("X-Image-Width"), resp.Header.Get("X-Image-Height")
	if r.b.route == "batch" {
		o.sum = sha256.Sum256(batchPayload(data))
	} else {
		o.sum = sha256.Sum256(data)
	}
	if o.status/100 != 2 {
		return
	}
	c.mu.Lock()
	if _, ok := c.kept[r.b]; !ok {
		c.kept[r.b] = data
		o.body = data
	}
	c.mu.Unlock()
}

// openLoop sends reqs at their due times; up to serveConns requests are
// in flight, later ones wait, and each is timed from when it was due.
// A request's lag, send start minus due time, is the generator's own
// delay plus its wait for a free connection: it stays small while the
// server keeps up and grows through the phase when a backlog builds.
func (c *client) openLoop(reqs []request, tr *tracer) []outcome {
	out := make([]outcome, len(reqs))
	ch := make(chan int, len(reqs)) // sized to the plan: the generator never blocks
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < serveConns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				c.traced(tr, reqs[i], t0, &out[i])
			}
		}()
	}
	for i, r := range reqs {
		if d := r.due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out
}

// sequential sends reqs one at a time over one connection.
func (c *client) sequential(reqs []request) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	t0 := time.Now()
	for i := range reqs {
		c.do(reqs[i], t0, &out[i])
	}
	return out, time.Since(t0)
}

// closedLoop sends reqs back to back over serveConns connections.
func (c *client) closedLoop(reqs []request, tr *tracer) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	t0 := time.Now()
	d := parallel(serveConns, len(reqs), func(i int) { c.traced(tr, reqs[i], t0, &out[i]) })
	return out, d
}

// traced runs one request, inside a span when tr is set.
func (c *client) traced(tr *tracer, r request, t0 time.Time, o *outcome) {
	if tr == nil {
		c.do(r, t0, o)
		return
	}
	sp := tr.start("server."+r.b.route, 0, r.id, true).covering(r.b.mpix)
	c.do(r, t0, o)
	sp.end()
}

// verifier checks responses outside the timed phases: the first 2xx
// response of each distinct body in full, every other response by its
// SHA-256 against that one.
type verifier struct {
	good    map[*body][32]byte
	bad     map[*body]error
	payload map[*body]int // response payload bytes (batch: the parts')
}

func newVerifier() *verifier {
	return &verifier{good: map[*body][32]byte{}, bad: map[*body]error{}, payload: map[*body]int{}}
}

// checkAll checks a phase's outcomes, counting each in rep, and returns
// how many failed. Full checks run first, so every response meets a
// verified reference whatever order the responses arrived in.
func (v *verifier) checkAll(outs []outcome, rep *report) int {
	for i := range outs {
		if o := &outs[i]; o.body != nil {
			if n, err := checkResponse(o.req.b, o); err != nil {
				v.bad[o.req.b] = err
			} else {
				v.good[o.req.b], v.payload[o.req.b] = o.sum, n
			}
		}
	}
	failed := 0
	for i := range outs {
		err := v.check(&outs[i])
		rep.check(err)
		if err != nil {
			failed++
		}
	}
	return failed
}

func (v *verifier) check(o *outcome) error {
	if o.err != nil {
		return fmt.Errorf("request %d %s: %w", o.req.id, o.req.b.route, o.err)
	}
	if o.status < 200 || o.status > 299 {
		return fmt.Errorf("request %d %s: status %d", o.req.id, o.req.b.route, o.status)
	}
	b := o.req.b
	if err, ok := v.bad[b]; ok {
		return fmt.Errorf("request %d %s: %w", o.req.id, b.route, err)
	}
	want, ok := v.good[b]
	if !ok {
		return fmt.Errorf("request %d %s: no verified response to compare with", o.req.id, b.route)
	}
	if want != o.sum {
		return fmt.Errorf("request %d %s: response differs from the first verified response", o.req.id, b.route)
	}
	return nil
}

// checkResponse checks one full response — content type, decode headers
// and pixels for decode, image/jpeg decodability at the source size for
// JPEG outputs, every part of a batch — and returns its payload size:
// the body, or for a batch the sum of its parts.
func checkResponse(b *body, o *outcome) (int, error) {
	switch b.route {
	case "decode":
		if o.ctype != "image/x-portable-pixmap" {
			return 0, fmt.Errorf("content type %q", o.ctype)
		}
		if o.hdrW != strconv.Itoa(b.w[0]) || o.hdrH != strconv.Itoa(b.h[0]) {
			return 0, fmt.Errorf("X-Image-Width/Height %s×%s, source %d×%d", o.hdrW, o.hdrH, b.w[0], b.h[0])
		}
		img, err := imgutil.ReadPPM(bytes.NewReader(o.body))
		if err != nil {
			return 0, err
		}
		if !bytes.HasSuffix(o.body, img.Pix) {
			return 0, fmt.Errorf("bytes after the PPM raster")
		}
		return len(o.body), checkPixels(b.srcJPEG[0], img)
	case "requantize", "encode":
		if o.ctype != "image/jpeg" {
			return 0, fmt.Errorf("content type %q", o.ctype)
		}
		return len(o.body), checkJPEG(o.body, b.w[0], b.h[0])
	case "batch":
		mt, params, err := mime.ParseMediaType(o.ctype)
		if err != nil || mt != "multipart/mixed" {
			return 0, fmt.Errorf("content type %q", o.ctype)
		}
		mr := multipart.NewReader(bytes.NewReader(o.body), params["boundary"])
		n := 0
		for i := range b.srcJPEG {
			p, err := mr.NextPart()
			if err != nil {
				return 0, fmt.Errorf("part %d: %w", i, err)
			}
			if p.Header.Get("X-Batch-Error") != "" || p.Header.Get("Content-Type") != "image/jpeg" {
				return 0, fmt.Errorf("part %d failed (%s)", i, p.Header.Get("Content-Type"))
			}
			data, err := io.ReadAll(p)
			if err != nil {
				return 0, err
			}
			if err := checkJPEG(data, b.w[i], b.h[i]); err != nil {
				return 0, fmt.Errorf("part %d: %w", i, err)
			}
			n += len(data)
		}
		if _, err := mr.NextPart(); err != io.EOF {
			return 0, fmt.Errorf("more parts than items")
		}
		return n, nil
	}
	return 0, fmt.Errorf("unknown route %q", b.route)
}

// phase is one rung of the ladder as measured.
type phase struct {
	rate         float64
	lat          []float64
	lagP99       float64
	errors       int
	valid, meets bool
	sent         int
	delta        counters
	outs         []outcome
}

func runServe(e *env) error {
	codec, _, _, err := calibrateSetup(e)
	if err != nil {
		return err
	}
	in, err := serveBodies(e.seed)
	if err != nil {
		return err
	}
	d := newDigest()
	for _, r := range serveRoutes {
		for _, b := range in.byRoute[r] {
			d.add(b.data, false)
		}
	}
	e.inputDigests(d.sums())

	dir := filepath.Join(e.workDir, fmt.Sprintf("profiles-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := codec.SaveProfile(filepath.Join(dir, "bench.dnp"), deepnjpeg.ProfileMeta{Name: "bench", Version: 1}); err != nil {
		return err
	}
	var boots []float64
	var srv *server
	for k := 0; k < serveBoots; k++ {
		s, d, err := boot(e, dir)
		if err != nil {
			return err
		}
		boots = append(boots, d.Seconds())
		if k < serveBoots-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	note := fmt.Sprintf("median of %d boots, exec to /healthz 200", len(boots))
	e.rep.set("setup_s", median(boots), note)
	e.rep.set("server.boot_ms", 1000*median(boots), note)

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	c := newClient(srv.base)
	v := newVerifier()
	rng := rngFor(e.seed, 8)

	// Warm-up: one closed-loop cycle, untimed, checked.
	warmOut, _ := c.closedLoop(plan(in, rng, len(serveCycle()), 0), nil)
	v.checkAll(warmOut, e.rep)
	// The ladder takes 40% of the run; the latency phase and the closed
	// loop below take the rest.
	shares := []float64{0.05, 0.15, 0.2}
	var phases []*phase
	for k, rate := range serveRates {
		dur := time.Duration(shares[k] * float64(e.dur))
		n := max(1, int(rate*dur.Seconds()))
		reqs := plan(in, rngFor(e.seed, 9, int64(k)), n, rate)
		before, err := srv.settled(counters{}, 0)
		if err != nil {
			return err
		}
		outs := c.openLoop(reqs, tr)
		after, err := srv.settled(before, int64(len(outs)))
		if err != nil {
			return err
		}
		p := &phase{rate: rate, outs: outs, sent: len(outs), delta: counters{
			Requests: after.Requests - before.Requests, Rejected: after.Rejected - before.Rejected,
			Failures: after.Failures - before.Failures, BytesIn: after.BytesIn - before.BytesIn,
			BytesOut: after.BytesOut - before.BytesOut}}
		p.errors = v.checkAll(outs, e.rep)
		var lags []float64
		var bytesIn, bytesOut, non2xx int64
		for i := range outs {
			o := &outs[i]
			p.lat = append(p.lat, ms(o.end-o.req.due))
			lags = append(lags, ms(o.start-o.req.due))
			bytesIn += int64(o.req.b.inBytes)
			bytesOut += o.n
			if o.status < 200 || o.status > 299 {
				non2xx++
			}
		}
		p.lagP99 = percentile(lags, 99)
		p.valid = p.lagP99 <= serveLagMax
		p.meets = p.valid && p.errors == 0 && percentile(p.lat, 99) <= serveLatencyMax
		if p.delta.Requests != int64(len(outs)) || p.delta.Failures != non2xx ||
			p.delta.BytesIn != bytesIn || p.delta.BytesOut != bytesOut {
			e.rep.invalidate("rate %g: /metrics deltas %+v disagree with the generator (requests %d, failures %d, bytes_in %d, bytes_out %d)",
				rate, p.delta, len(outs), non2xx, bytesIn, bytesOut)
		}
		fmt.Printf("phase rate=%g rps: sent=%d p50=%.4g ms p99=%.4g ms lag_p99=%.4g ms errors=%d valid=%v meets_limit=%v\n",
			rate, len(outs), percentile(p.lat, 50), percentile(p.lat, 99), p.lagP99, p.errors, p.valid, p.meets)
		phases = append(phases, p)
	}

	// Latency phase: requests back to back over one connection, so each
	// is timed alone — what a tenant's request costs with no queue in
	// front of it. Unlike latencies under an open-loop rate, these do
	// not swing with queueing when the host's speed changes, and enough
	// of them fit a run for a p99 with ten samples beyond it.
	var lat []float64
	latStart := time.Now()
	for len(lat) == 0 || time.Since(latStart) < time.Duration(0.35*float64(e.dur)) {
		outs, _ := c.sequential(plan(in, rng, len(serveCycle()), 0))
		v.checkAll(outs, e.rep)
		for _, o := range outs {
			lat = append(lat, ms(o.end-o.start))
		}
	}

	// Closed loop: one cycle of the mix per pass over serveConns
	// connections, paired with the in-process image/jpeg twin (or, in
	// the traced run, with a traced pass), alternating which goes first.
	// Every pass sends one cycle, largest requests first, so a pass does
	// not end waiting on one large request that happened to come last.
	cycle := plan(in, rng, len(serveCycle()), 0)
	sort.SliceStable(cycle, func(a, b int) bool { return cycle[a].b.mpix > cycle[b].b.mpix })
	var cycleMpix float64
	for _, r := range cycle {
		cycleMpix += r.b.mpix
	}
	var rates, ratios, overhead []float64
	start := time.Now()
	satDur := time.Duration(0.25 * float64(e.dur))
	for p := 0; p == 0 || time.Since(start) < satDur; p++ {
		var sd, other time.Duration
		var outs, more []outcome
		second := func() {
			if tr != nil {
				more, other = c.closedLoop(cycle, tr)
			} else {
				other = serveTwin(cycle)
			}
		}
		if p%2 == 0 {
			outs, sd = c.closedLoop(cycle, nil)
			second()
		} else {
			second()
			outs, sd = c.closedLoop(cycle, nil)
		}
		v.checkAll(outs, e.rep)
		v.checkAll(more, e.rep)

		rates = append(rates, cycleMpix/sd.Seconds())
		ratios = append(ratios, float64(sd)/float64(other))
		overhead = append(overhead, float64(other)/float64(sd)-1)
	}
	mem := peakMB(strconv.Itoa(srv.cmd.Process.Pid))

	rmax := rateMax(phases)
	if !e.trace {
		e.rep.set("latency_p50_ms", median(lat), fmt.Sprintf("median of %d requests one at a time over one connection", len(lat)))
		p99, note := tailP99(lat)
		e.rep.set("latency_p99_ms", p99, note+", requests one at a time over one connection")
		e.rep.set("rate_max_rps", rmax, fmt.Sprintf("highest of %v rps with p99 <= %g ms, no errors, lag p99 <= %g ms", serveRates, serveLatencyMax, serveLagMax))
		e.rep.set("throughput_mpix_s", median(rates), fmt.Sprintf("closed loop over %d connections, median of %d passes", serveConns, len(rates)))
		e.rep.set("stdlib_ratio", median(ratios), fmt.Sprintf("median of %d paired passes (server/in-process image-jpeg)", len(ratios)))
		e.rep.set("compression_ratio", serveCompression(in, v), "request bytes / response payload bytes over the JPEG-producing routes")
		e.rep.set("mem_peak_mb", mem, "VmHWM of the server process")
		fmt.Println("outputs_sha256:", serveDigest(in, c))
		return nil
	}

	// Traced run: generator and server counters per phase, round trips
	// per route at the middle rate, and in-process replays of the same
	// codec calls on the same bodies.
	var lagMax float64
	var sent int
	var tot counters
	for _, p := range phases {
		lagMax = math.Max(lagMax, p.lagP99)
		sent += p.sent
		tot.Requests += p.delta.Requests
		tot.Rejected += p.delta.Rejected
		tot.Failures += p.delta.Failures
		tot.BytesIn += p.delta.BytesIn
		tot.BytesOut += p.delta.BytesOut
	}
	e.rep.set("loadgen.lag_p99_ms", lagMax, "worst phase p99 of send start minus due time")
	e.rep.set("loadgen.sent", float64(sent), "requests over the ladder")
	e.rep.set("server.requests", float64(tot.Requests), "/metrics delta over the ladder")
	e.rep.set("server.rejected", float64(tot.Rejected), "/metrics delta over the ladder")
	e.rep.set("server.failures", float64(tot.Failures), "/metrics delta over the ladder")
	e.rep.set("server.bytes_in", float64(tot.BytesIn), "/metrics delta over the ladder")
	e.rep.set("server.bytes_out", float64(tot.BytesOut), "/metrics delta over the ladder")
	e.rep.set("trace.overhead_share", median(overhead), fmt.Sprintf("median of %d paired closed-loop passes, traced/untraced - 1", len(overhead)))

	// Round trips run from send start, so the wait for a connection is
	// not in them, whatever the phase's lag.
	mid := phases[len(phases)/2]
	replayT, lc := serveReplays(tr, codec, in)
	rtt := map[string][]float64{}
	over := map[string][]float64{}
	for _, o := range mid.outs {
		r := o.req.b.route
		rtt[r] = append(rtt[r], ms(o.end-o.start))
		over[r] = append(over[r], ms(o.end-o.start)-replayT[o.req.b])
	}
	for _, r := range []string{"requantize", "decode", "encode", "batch"} {
		if len(rtt[r]) == 0 {
			continue
		}
		e.rep.set("server.rtt_ms."+r, median(rtt[r]), fmt.Sprintf("median of %d at %g rps", len(rtt[r]), mid.rate))
		e.rep.set("server.overhead_ms."+r, median(over[r]), "round trip minus in-process replay of the same codec calls")
	}
	if err := validate(tr.spans, "item"); err != nil {
		e.rep.invalidate("trace: %v", err)
	}
	layerMetrics(e, tr, lc, pipeline.Workers(0, len(serveBatchSizes)))
	return writeTrace(e, tr)
}

// rateMax is rate_max_rps: the highest rate of the ladder whose rung and
// every lower rung meet the limits, or 0 when the lowest does not.
func rateMax(phases []*phase) float64 {
	var rmax float64
	for _, p := range phases {
		if !p.meets {
			break
		}
		rmax = p.rate
	}
	return rmax
}

// serveTwin is the in-process image/jpeg equivalent of a cycle at the
// same concurrency: decode+encode per requantized stream, decode plus a
// PPM copy per decode, PPM parse plus encode per encode.
func serveTwin(cycle []request) time.Duration {
	return parallel(serveConns, len(cycle), func(i int) {
		b := cycle[i].b
		switch b.route {
		case "requantize", "batch":
			for _, src := range b.srcJPEG {
				if img, err := jpeg.Decode(bytes.NewReader(src)); err == nil {
					var out bytes.Buffer
					_ = jpeg.Encode(&out, img, &jpeg.Options{Quality: stdlibQuality})
				}
			}
		case "decode":
			if img, err := stdlibRGB(b.srcJPEG[0]); err == nil {
				var out bytes.Buffer
				fmt.Fprintf(&out, "P6\n%d %d\n255\n", img.W, img.H)
				out.Write(img.Pix)
			}
		case "encode":
			if img, err := imgutil.ReadPPM(bytes.NewReader(b.data)); err == nil {
				var out bytes.Buffer
				_ = jpeg.Encode(&out, toRGBA(img), &jpeg.Options{Quality: stdlibQuality})
			}
		}
	})
}

// serveReplays runs each distinct body's codec calls in process, as the
// handlers make them, inside "item" spans (a batch's parts are items
// under a pipeline.batch span): it returns the replay time per body
// (median of serveReplayReps) and the work counts. Every repetition
// replays the lower layers too, so blocking and replay spans cover the
// same items.
const serveReplayReps = 2

// serveBoots is how many times set-up boots the server; setup_s is the
// median, and the last server stays up for the run.
const serveBoots = 21

func serveReplays(tr *tracer, codec *deepnjpeg.Codec, in *serveInputs) (t map[*body]float64, c *counts) {
	luma, chroma := codec.LumaTable(), codec.ChromaTable()
	encOpts := jpegcodec.Options{LumaTable: luma, ChromaTable: chroma}
	t = map[*body]float64{}
	c = &counts{seen: map[int]bool{}}
	var dec jpegcodec.Decoded
	var plane []float64
	id := 1 << 20        // replay item IDs, apart from request IDs
	var out atomic.Int64 // JPEG bytes the replays emit
	requant := func(parent int64, item int, src []byte, d *jpegcodec.Decoded) {
		tr.timed("jpegcodec.decode", parent, item, true, func() { _ = jpegcodec.DecodeInto(bytes.NewReader(src), d, &jpegcodec.DecodeOptions{}) })
		var buf bytes.Buffer
		tr.timed("jpegcodec.requantize", parent, item, true, func() {
			_ = jpegcodec.Requantize(&buf, d, luma, chroma, &jpegcodec.Options{OptimizeHuffman: true})
		})
		out.Add(int64(buf.Len()))
	}
	for _, r := range serveRoutes {
		for _, b := range in.byRoute[r] {
			var times []float64
			for k := 0; k < serveReplayReps; k++ {
				id++
				switch r {
				case "requantize":
					item := tr.start("item", 0, id, true).covering(b.mpix)
					requant(item.id(), id, b.data, &dec)
					times = append(times, ms(item.end()))
				case "decode":
					item := tr.start("item", 0, id, true).covering(b.mpix)
					tr.timed("jpegcodec.decode", item.id(), id, true, func() { _ = jpegcodec.DecodeInto(bytes.NewReader(b.data), &dec, &jpegcodec.DecodeOptions{}) })
					var img *imgutil.RGB
					tr.timed("jpegcodec.rgb", item.id(), id, true, func() { img = dec.RGBInto(nil) })
					tr.timed("imgutil.write_ppm", item.id(), id, true, func() { _ = imgutil.WritePPM(io.Discard, img) })
					times = append(times, ms(item.end()))
				case "encode":
					item := tr.start("item", 0, id, true).covering(b.mpix)
					var img *imgutil.RGB
					tr.timed("imgutil.read_ppm", item.id(), id, true, func() { img, _ = imgutil.ReadPPM(bytes.NewReader(b.data)) })
					var buf bytes.Buffer
					tr.timed("jpegcodec.encode", item.id(), id, true, func() {
						o := encOpts
						_ = jpegcodec.EncodeRGB(&buf, img, &o)
					})
					out.Add(int64(buf.Len()))
					times = append(times, ms(item.end()))
				case "batch":
					decs := make([]*jpegcodec.Decoded, pipeline.Workers(0, len(b.srcJPEG)))
					for w := range decs {
						decs[w] = new(jpegcodec.Decoded)
					}
					batch := tr.start("pipeline.batch", 0, id, true)
					_ = pipeline.RunWorker(context.Background(), len(b.srcJPEG), 0, func(_ context.Context, w, i int) error {
						item := tr.start("item", batch.id(), id, true).covering(float64(b.w[i]*b.h[i]) / 1e6)
						requant(item.id(), id, b.srcJPEG[i], decs[w])
						item.end()
						return nil
					})
					times = append(times, ms(batch.end()))
				}
				for _, src := range b.srcJPEG {
					plane = replayDecode(tr, &dec, src, id, c, k == 0, plane, r == "decode")
				}
				if r != "encode" {
					continue
				}
				if img, err := imgutil.ReadPPM(bytes.NewReader(b.data)); err == nil {
					plane = replayEncode(tr, id, img, plane)
					if k == 0 {
						c.blocks += float64(encodeBlocks(img))
					}
				}
			}
			t[b] = median(times)
		}
	}
	c.out = float64(out.Load()) / serveReplayReps
	return t, c
}

// serveCompression is request bytes over response payload bytes on the
// routes that emit JPEG, from the verified responses.
func serveCompression(in *serveInputs, v *verifier) float64 {
	var inB, outB float64
	for _, r := range []string{"requantize", "encode", "batch"} {
		for _, b := range in.byRoute[r] {
			if n, ok := v.payload[b]; ok {
				inB += float64(b.inBytes)
				outB += float64(n)
			}
		}
	}
	return inB / outB
}

// serveDigest hashes the first response of every distinct body in route
// and body order.
func serveDigest(in *serveInputs, c *client) string {
	d := newDigest()
	for _, r := range []string{"requantize", "decode", "encode", "batch"} {
		for _, b := range in.byRoute[r] {
			resp := c.kept[b]
			if r == "batch" {
				resp = batchPayload(resp)
			}
			d.add(resp, false)
		}
	}
	all, _ := d.sums()
	return all
}

// batchPayload strips the random multipart boundary from a batch
// response so its digest depends only on the parts' bytes.
func batchPayload(resp []byte) []byte {
	i := bytes.Index(resp, []byte("\r\n"))
	if i < 0 || !bytes.HasPrefix(resp, []byte("--")) {
		return resp
	}
	return bytes.ReplaceAll(resp, resp[:i], nil)
}
