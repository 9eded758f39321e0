package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/graph"
	"repro/t10"
)

// The in-process workloads (cold-zoo, restart-disk) run their timed
// loop in a child process of the benchmark, so that the peak resident
// memory and the allocation counts are those of the compiling process
// alone: the parent holds the references, the trace probes and the
// output check. The child prints "ready" once set up, starts on a "go"
// line on its standard input (or exits on end of input) and prints one
// JSON childResult line at the end.

// sample is one request's measurement.
type sample struct {
	Key    string    `json:"key"`
	Kind   kind      `json:"kind"`
	WallNs int64     `json:"wall_ns"`
	Digest string    `json:"digest,omitempty"` // in-process output digest
	Tel    telSample `json:"tel"`
	Err    string    `json:"err,omitempty"`
	Traced bool      `json:"traced,omitempty"`

	body []byte // served response body, checked after the run
}

// telSample is the part of a request's telemetry the benchmark keeps.
type telSample struct {
	AdmissionWaitNs int64  `json:"admission_wait_ns"`
	CacheProbeNs    int64  `json:"cache_probe_ns"`
	ColdSearchNs    int64  `json:"cold_search_ns"`
	ReconcileNs     int64  `json:"reconcile_ns"`
	RouteMemory     int    `json:"route_memory"`
	RouteDisk       int    `json:"route_disk"`
	RouteRemote     int    `json:"route_remote"`
	RouteFlight     int    `json:"route_singleflight"`
	RouteCold       int    `json:"route_cold"`
	Route           string `json:"route,omitempty"`

	// per-request plan-cache counters (in-process: each request owns a
	// fresh cache)
	DiskHits    int64 `json:"disk_hits"`
	DiskWrites  int64 `json:"disk_writes"`
	DiskRejects int64 `json:"disk_rejects"`
	Evictions   int64 `json:"evictions"`
}

func telOf(tel *t10.Telemetry) telSample {
	return telSample{
		AdmissionWaitNs: int64(tel.AdmissionWait),
		CacheProbeNs:    int64(tel.CacheProbe),
		ColdSearchNs:    int64(tel.ColdSearch),
		ReconcileNs:     int64(tel.Reconcile),
		RouteMemory:     tel.RouteMemory,
		RouteDisk:       tel.RouteDisk,
		RouteRemote:     tel.RouteRemote,
		RouteFlight:     tel.RouteFlightWait,
		RouteCold:       tel.RouteCold,
	}
}

// loop is one run's timed requests. With tracing, requests alternate
// between untraced and traced in whole passes (in-process) or whole
// decks (serving), so both halves see the same machine conditions and
// the gap between their throughputs is the tracing overhead.
type loop struct {
	Samples   []sample `json:"samples"`
	ElapsedNs int64    `json:"elapsed_ns"`
	Clients   int      `json:"clients"`
	AllocB    uint64   `json:"alloc_b"` // heap bytes allocated by untraced in-process requests
	Spans     []span   `json:"spans,omitempty"`
}

// childResult is what the in-process child reports.
type childResult struct {
	Loop      loop    `json:"loop"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// passEntries is the request set one pass of an in-process workload
// covers, in unshuffled order.
func passEntries(workload string) []request {
	if workload == "restart-disk" {
		return singleChipZoo()
	}
	return zoo()
}

// childMain is the in-process workload loop.
func childMain(workload string, seed int64, seconds float64, trace bool, cacheDir string) error {
	entries := passEntries(workload)
	built := make(map[string]*graph.Model, len(entries))
	for _, r := range entries {
		m, err := buildModel(r)
		if err != nil {
			return err
		}
		built[r.key()] = m
	}
	fmt.Println("ready")
	line, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err != nil || line != "go\n" {
		return nil // set-up-only repetition: the parent closed our input
	}
	res := childResult{Loop: inProcessLoop(entries, built, rand.New(rand.NewSource(seed)),
		time.Duration(seconds*float64(time.Second)), cacheDir, trace)}
	if res.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(&res)
}

// heapAllocs reads the process's cumulative heap allocation, without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// inProcessLoop runs whole passes over entries, each pass a fresh
// seeded permutation, until dur has elapsed at a pass boundary. Only
// whole passes are run so that every request class has the same share
// of the samples in every run. Each request builds a fresh compiler
// (Workers=1) and compiles one entry; the output digest is computed
// after the request's clock stops. With trace, odd passes are traced,
// and there are at least two passes.
func inProcessLoop(entries []request, built map[string]*graph.Model, rng *rand.Rand,
	dur time.Duration, cacheDir string, trace bool) loop {
	ctx := context.Background()
	lp := loop{Clients: 1}
	tr := newTracer()
	start := time.Now()
	for pass := 0; time.Since(start) < dur || (trace && pass < 2); pass++ {
		traced := trace && pass%2 == 1
		for _, i := range rng.Perm(len(entries)) {
			r := entries[i]
			s := sample{Key: r.key(), Kind: r.Kind, Traced: traced}
			reqID := len(lp.Samples) + 1
			a0 := heapAllocs()
			t0 := time.Now()
			c, err := newCompiler(1, r.Fusion, cacheDir)
			t1 := time.Now()
			var out any
			var tel t10.Telemetry
			if err == nil {
				if r.Kind == kindSharded {
					var sr *t10.ShardedResult
					if sr, err = c.CompileShardedWithResult(ctx, built[s.Key], r.Chips); err == nil {
						out, tel = sr.Executable, sr.Telemetry
					}
				} else {
					var cr *t10.CompileResult
					if cr, err = c.CompileWithResult(ctx, built[s.Key]); err == nil {
						out, tel = cr.Executable, cr.Telemetry
					}
				}
			}
			t2 := time.Now()
			if !traced {
				lp.AllocB += heapAllocs() - a0
			}
			s.WallNs = int64(t2.Sub(t0))
			if traced {
				root := tr.add("bench.request", t0, t2, 0, reqID)
				tr.add("t10.new", t0, t1, root, reqID)
				name := "t10.compile"
				if r.Kind == kindSharded {
					name = "t10.compile_sharded"
				}
				id := tr.add(name, t1, t2, root, reqID)
				if r.Kind == kindModel { // sharded compiles report no stage walls
					tr.addStages(id, t1, telOf(&tel), reqID)
				}
			}
			if err != nil {
				s.Err = err.Error()
			} else {
				s.Tel = telOf(&tel)
				st := c.CacheStats()
				s.Tel.DiskHits, s.Tel.DiskWrites = st.DiskHits, st.DiskWrites
				s.Tel.DiskRejects, s.Tel.Evictions = st.DiskRejects, st.Evictions
				s.Digest = inProcessDigest(r, out)
			}
			lp.Samples = append(lp.Samples, s)
		}
	}
	lp.ElapsedNs = int64(time.Since(start))
	lp.Spans = tr.spans
	return lp
}

// fillDiskCache compiles every single-chip zoo entry once through a
// fresh sealed disk cache in dir: the state a restarted compiler finds.
func fillDiskCache(dir string) error {
	ctx := context.Background()
	for _, r := range singleChipZoo() {
		c, err := newCompiler(1, r.Fusion, dir)
		if err != nil {
			return err
		}
		m, err := buildModel(r)
		if err != nil {
			return err
		}
		if _, err := c.Compile(ctx, m); err != nil {
			return fmt.Errorf("fill disk cache with %s: %w", r.key(), err)
		}
	}
	return nil
}

// child is a started in-process workload child.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// startChild launches the workload child and waits until it is set up.
func startChild(cfg *config, cacheDir string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child",
		"-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds),
		"-trace", fmt.Sprint(cfg.trace),
		"-cachedir", cacheDir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ch := &child{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20)}
	if line, err := ch.out.ReadString('\n'); err != nil || line != "ready\n" {
		ch.abandon()
		return nil, fmt.Errorf("workload child did not start (%q): %v", line, err)
	}
	return ch, nil
}

// abandon ends a child without running it.
func (ch *child) abandon() {
	ch.stdin.Close()
	_, _ = io.Copy(io.Discard, ch.out)
	_ = ch.cmd.Wait() // set-up-only children exit 0; errors already went to stderr
}

// run starts the child's timed loop and collects its result.
func (ch *child) run() (*childResult, error) {
	if _, err := io.WriteString(ch.stdin, "go\n"); err != nil {
		ch.abandon()
		return nil, err
	}
	ch.stdin.Close()
	var res childResult
	decErr := json.NewDecoder(ch.out).Decode(&res)
	_, _ = io.Copy(io.Discard, ch.out)
	if err := ch.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("workload child: %w", err)
	}
	if decErr != nil {
		return nil, fmt.Errorf("workload child result: %w", decErr)
	}
	return &res, nil
}

// runInProcess sets the workload up setupReps times (reporting the
// median) and runs the timed loop in the last set-up child.
func runInProcess(cfg *config) (*runData, error) {
	rd := &runData{}
	var ch *child
	for rep := 0; rep < setupReps; rep++ {
		dir := ""
		if cfg.workload == "restart-disk" {
			dir = filepath.Join(cfg.work, fmt.Sprintf("disk-%d", rep))
		}
		t0 := time.Now()
		if dir != "" {
			if err := fillDiskCache(dir); err != nil {
				return nil, err
			}
		}
		c, err := startChild(cfg, dir)
		if err != nil {
			return nil, err
		}
		rd.setup = append(rd.setup, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			c.abandon()
			if dir != "" {
				if err := os.RemoveAll(dir); err != nil {
					return nil, err
				}
			}
			continue
		}
		ch = c
	}
	res, err := ch.run()
	if err != nil {
		return nil, err
	}
	rd.loop = res.Loop
	rd.peakRSSMB = res.PeakRSSMB
	return rd, nil
}
