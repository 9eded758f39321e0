package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// serveClients is the number of closed-loop clients of the serving
// workloads: they target a 2-CPU machine, and the server runs two
// workers.
const serveClients = 2

// server is a running t10serve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives cmd.Wait's result
}

// startServer launches t10serve on a free loopback port and waits until
// /healthz answers.
func startServer(cfg *config, logName string, args ...string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(cfg.work, logName))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(cfg.t10serve, append([]string{"-addr", addr, "-workers", "2"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("t10serve exited during start-up (see %s): %v", logName, err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("t10serve did not answer /healthz within 30s")
		}
	}
}

// stop sends SIGTERM, which drains the server, and waits for it to
// exit; a server that does not exit within 40s is killed.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(40 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// get fetches a JSON endpoint into v.
func (s *server) get(c *http.Client, path string, v any) error {
	resp, err := c.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// body is the /compile request for r.
func (r request) body() []byte {
	var v any
	if r.Kind == kindOp {
		v = map[string]any{"op": map[string]any{"name": "mm", "m": r.M, "k": r.K, "n": r.N}}
	} else {
		m := map[string]any{"model": r.Model, "batch": r.Batch, "simulate": r.Simulate}
		if r.Chips > 1 {
			m["chips"] = r.Chips
		}
		v = m
	}
	b, _ := json.Marshal(v) // maps of strings and ints always marshal
	return b
}

// do sends one request and returns the response body.
func (s *server) do(c *http.Client, r request) ([]byte, error) {
	var resp *http.Response
	var err error
	if r.Kind == kindStats {
		resp, err = c.Get(s.base + "/stats")
	} else {
		resp, err = c.Post(s.base+"/compile", "application/json", bytes.NewReader(r.body()))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", r.key(), resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// newClient is one closed-loop client: one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// servedResponse is the part of a /compile response the benchmark
// reads: the checked output plus the telemetry block.
type servedResponse struct {
	outputView
	Telemetry struct {
		AdmissionWaitUs int64  `json:"admission_wait_us"`
		CacheProbeUs    int64  `json:"cache_probe_us"`
		ColdSearchUs    int64  `json:"cold_search_us"`
		ReconcileUs     int64  `json:"reconcile_us"`
		WallUs          int64  `json:"wall_us"`
		Route           string `json:"route"`
		RouteMemory     int    `json:"route_memory"`
		RouteDisk       int    `json:"route_disk"`
		RouteRemote     int    `json:"route_remote"`
		RouteFlight     int    `json:"route_singleflight"`
		RouteCold       int    `json:"route_cold"`
	} `json:"telemetry"`
}

func (sr *servedResponse) tel() telSample {
	t := &sr.Telemetry
	us := int64(time.Microsecond)
	return telSample{
		AdmissionWaitNs: t.AdmissionWaitUs * us,
		CacheProbeNs:    t.CacheProbeUs * us,
		ColdSearchNs:    t.ColdSearchUs * us,
		ReconcileNs:     t.ReconcileUs * us,
		Route:           t.Route,
		RouteMemory:     t.RouteMemory,
		RouteDisk:       t.RouteDisk,
		RouteRemote:     t.RouteRemote,
		RouteFlight:     t.RouteFlight,
		RouteCold:       t.RouteCold,
	}
}

// decodeSample parses a served sample's body into its telemetry.
func decodeSample(s *sample) (*servedResponse, error) {
	if s.Kind == kindStats {
		return nil, nil
	}
	var sr servedResponse
	if err := json.Unmarshal(s.body, &sr); err != nil {
		return nil, fmt.Errorf("%s: bad response: %w", s.Key, err)
	}
	s.Tel = sr.tel()
	return &sr, nil
}

// servedStats is the part of /stats and /cachestats the benchmark
// reads, for the per-layer route and plan-cache counters.
type servedStats struct {
	Completed   int64 `json:"completed"`
	RouteMemory int64 `json:"route_memory"`
	RouteDisk   int64 `json:"route_disk"`
	RouteFlight int64 `json:"route_singleflight"`
	RouteCold   int64 `json:"route_cold"`
}

type cacheStats struct {
	Evictions   int64 `json:"evictions"`
	DiskHits    int64 `json:"disk_hits"`
	DiskWrites  int64 `json:"disk_writes"`
	DiskRejects int64 `json:"disk_rejects"`
}

// counters snapshots the server's cumulative route and cache counters.
type counters struct {
	stats servedStats
	cache cacheStats
}

func (s *server) counters(c *http.Client) (counters, error) {
	var k counters
	if err := s.get(c, "/stats", &k.stats); err != nil {
		return k, err
	}
	return k, s.get(c, "/cachestats", &k.cache)
}

// clientStream yields one serving client's requests, deck by deck.
type clientStream interface {
	deck() []request
}

// deckStream shuffles a fixed deck with the client's own seeded rng.
type deckStream struct {
	d   deck
	rng *rand.Rand
}

func (s *deckStream) deck() []request { return s.d.shuffled(s.rng) }

// serveLoop runs the closed-loop clients against s until dur has
// elapsed, each client finishing the deck it is in so that the request
// mix stays exact. Response bodies are kept for the check after the
// run. With trace, every client runs at least two decks and traces its
// odd ones: each traced response is decoded as it arrives and its
// telemetry becomes spans.
func serveLoop(s *server, streams []clientStream, dur time.Duration, trace bool) loop {
	lp := loop{Clients: len(streams)}
	perClient := make([][]sample, len(streams))
	tr := newTracer()
	var reqID atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range streams {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for d := 0; time.Since(start) < dur || (trace && d < 2); d++ {
				traced := trace && d%2 == 1
				for _, r := range streams[ci].deck() {
					smp := sample{Key: r.key(), Kind: r.Kind, Traced: traced}
					t0 := time.Now()
					b, err := s.do(hc, r)
					t1 := time.Now()
					smp.WallNs = int64(t1.Sub(t0))
					if err != nil {
						smp.Err = err.Error()
					} else {
						smp.body = b
						if traced {
							traceServed(tr, &smp, t0, t1, int(reqID.Add(1)))
						}
					}
					perClient[ci] = append(perClient[ci], smp)
				}
			}
		}()
	}
	wg.Wait()
	lp.ElapsedNs = int64(time.Since(start))
	for ci := range perClient {
		lp.Samples = append(lp.Samples, perClient[ci]...)
	}
	lp.Spans = tr.spans
	return lp
}

// traceServed records a served request's spans: the client round trip,
// the server-side compile (its telemetry wall, centred in the round
// trip since the response carries no start time) and its stages.
func traceServed(tr *tracer, smp *sample, t0, t1 time.Time, id int) {
	if smp.Kind == kindStats {
		tr.add("t10serve.stats", t0, t1, 0, id)
		return
	}
	root := tr.add("t10serve.http", t0, t1, 0, id)
	sr, err := decodeSample(smp)
	if err != nil {
		return // reported by the output check
	}
	wall := time.Duration(sr.Telemetry.WallUs) * time.Microsecond
	cs := t0.Add((t1.Sub(t0) - wall) / 2)
	cid := tr.add("t10serve.compile", cs, cs.Add(wall), root, id)
	if smp.Kind != kindSharded { // sharded compiles report no stage walls
		tr.addStages(cid, cs, sr.tel(), id)
	}
}

// setUpWarmServe sets up the warm-serve workload: t10serve with its
// caches filled by one compile of every distinct request.
func setUpWarmServe(cfg *config, rd *runData) (*server, error) {
	d := warmServeDeck()
	rd.distinct = distinctOf(d)
	var srv *server
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		s, err := startServer(cfg, fmt.Sprintf("t10serve-%d.log", rep))
		if err != nil {
			return nil, err
		}
		hc := newClient()
		for _, r := range rd.distinct {
			if _, err := s.do(hc, r); err != nil {
				s.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		hc.CloseIdleConnections()
		rd.setup = append(rd.setup, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			s.stop()
			continue
		}
		srv = s
	}
	for c := 0; c < serveClients; c++ {
		rd.streams = append(rd.streams, &deckStream{d: d, rng: rand.New(rand.NewSource(cfg.seed*31 + int64(c) + 1))})
	}
	return srv, nil
}

// setUpChurnServe sets up the churn-serve workload: t10serve over a
// fresh disk cache, with each client's recent-shape window filled.
func setUpChurnServe(cfg *config, rd *runData) (*server, error) {
	var srv *server
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		dir := filepath.Join(cfg.work, fmt.Sprintf("churn-cache-%d", rep))
		s, err := startServer(cfg, fmt.Sprintf("t10serve-%d.log", rep), "-cachedir", dir)
		if err != nil {
			return nil, err
		}
		var streams []clientStream
		hc := newClient()
		for c := 0; c < serveClients; c++ {
			cs := newChurnStream(cfg.seed, c)
			for i := 0; i < churnWarm; i++ {
				if _, err := s.do(hc, cs.novel()); err != nil {
					s.stop()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
			streams = append(streams, cs)
		}
		hc.CloseIdleConnections()
		rd.setup = append(rd.setup, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			s.stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		srv, rd.streams = s, streams
	}
	return srv, nil
}

// runServe sets up a serving workload and runs its timed loop.
func runServe(cfg *config) (*runData, error) {
	rd := &runData{}
	setUp := setUpChurnServe
	if cfg.workload == "warm-serve" {
		setUp = setUpWarmServe
	}
	srv, err := setUp(cfg, rd)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	hc := newClient()
	defer hc.CloseIdleConnections()
	before, err := srv.counters(hc)
	if err != nil {
		return nil, err
	}
	rd.loop = serveLoop(srv, rd.streams, time.Duration(cfg.seconds*float64(time.Second)), cfg.trace == 1)
	after, err := srv.counters(hc)
	if err != nil {
		return nil, err
	}
	rd.counters = [2]counters{before, after}
	rd.peakRSSMB, err = peakRSSMB(srv.cmd.Process.Pid)
	return rd, err
}

// peakRSSMB reads a process's peak resident set size (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// distinctOf lists a deck's distinct requests in first-seen order.
func distinctOf(d []request) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range d {
		if !seen[r.key()] {
			seen[r.key()] = true
			out = append(out, r)
		}
	}
	return out
}
