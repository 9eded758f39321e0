// t10serve is the heavy-traffic serving scenario end-to-end: an HTTP
// service that compiles models (or single operators) on demand, backed
// by the concurrent compilation pipeline and the content-addressed plan
// cache, so repeated requests for the same workload skip the Pareto
// search entirely.
//
// The server is load-shedding, not best-effort: every concurrent
// request draws its compile workers from one server-wide budget
// (internal/sema shared mode), so a burst of requests can never run
// requests × workers goroutines. Admission is cost-weighted: each
// request is priced first with Compiler.EstimateCost (cache probes +
// rule-filtered space sizes, no search), so a fully cached request
// skips admission entirely (it can never be shed) while a cold
// multi-layer compile acquires several slots' worth of budget — cheap
// traffic keeps flowing while the pool is saturated with expensive
// compiles. Requests beyond the budget wait in a bounded admission
// queue; past that the server answers 429 with Retry-After. Each
// request carries a deadline (-compile-timeout, plus whatever the
// client's context imposes) that cancels the Pareto search
// mid-enumeration, answered with 503; with -detach-on-cancel the
// in-flight operator searches finish in the background and warm the
// plan cache, so the client's retry hits instead of recomputing.
// SIGINT/SIGTERM drain in-flight compiles before exiting.
//
// Every 200 response carries the request's structured telemetry
// (stage wall times, cache routes, admission weight — see
// t10.Telemetry), and /stats aggregates the same data server-wide:
// p50/p95/p99 per-stage latency percentiles over a ring of recent
// requests, cumulative per-route hit counters, and the detached-compile
// gauges. Detached compiles are capped (-detach-limit): beyond the cap
// a cancellation degrades to the plain kind instead of pinning the
// budget. Persisted plan records carry provenance (builder version +
// key, HMAC'd under -cache-salt when set), so a foreign or tampered
// record loads as a miss and is overwritten, never trusted.
//
// With -peers, replicas form a fleet that shares plan-cache warmth:
// a local miss asks the peers' /plans stores (timeouts, bounded
// retries, per-peer circuit breakers — see plancache.Remote) before
// falling back to the cold search, and every freshly sealed record is
// pushed to the peers best-effort. The /plans handlers serve sealed
// records straight from disk and never touch the compile budget (the
// same idea as the weight-0 cache-probe fast path), and every record a
// peer serves still passes this replica's provenance verification —
// a slow, dead or garbage-serving peer degrades to counted misses,
// never to failed compiles.
//
// Endpoints:
//
//	POST /compile    {"model":"BERT","batch":8,"simulate":true}
//	                 {"op":{"name":"mm","m":1024,"k":1024,"n":4096,"dtype":"fp16"}}
//	GET  /plans/{fingerprint}  sealed plan record, verbatim (fleet peers)
//	PUT  /plans/{fingerprint}  store a sealed record (verified first)
//	GET  /cachestats plan cache counters as JSON
//	GET  /stats      serving counters: in-flight, queued, rejected, cancelled,
//	                 per-stage latency percentiles, per-route hits, detach
//	                 gauges, remote-tier health (per-peer breaker states)
//	GET  /healthz    liveness probe
//
// Usage:
//
//	t10serve -addr :8080 -cachedir /var/cache/t10 -workers 8 -queue 64 -compile-timeout 2m \
//	         -peers http://replica2:8080,http://replica3:8080
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/plancache"
	"repro/internal/sema"
	"repro/t10"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cachedir", "", "on-disk plan cache directory")
	workers := flag.Int("workers", 0, "server-wide compile worker budget shared by every concurrent request (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue length: requests allowed to wait for a worker slot before the server sheds load with 429")
	timeout := flag.Duration("compile-timeout", 2*time.Minute, "per-request compile deadline; expired requests answer 503 (0 = no deadline)")
	detach := flag.Bool("detach-on-cancel", false, "finish (and cache) in-flight operator searches of cancelled requests in the background, so retries hit the plan cache")
	detachLimit := flag.Int("detach-limit", 0, "max concurrently detached (cancelled but still compiling) requests; beyond it cancellation degrades to the plain kind (0 = the worker budget)")
	cacheSalt := flag.String("cache-salt", "", "deployment secret HMAC'ing persisted plan records; records written under another salt (or tampered with) load as misses")
	peers := flag.String("peers", "", "comma-separated base URLs of fleet peers whose /plans stores answer cache misses before a cold search (empty = no remote tier)")
	fusion := flag.Bool("fusion", false, "run the operator-fusion pass on every model compile (graph.DefaultRules); fused and unfused plan caches never mix — the rule set is part of the cache fingerprint")
	calibrate := flag.Bool("calibrate", false, "close the cost-model measurement loop: record (kernel task, simulated time) samples from every cold search and simulated run, periodically refit the cost model over them and redeploy the compiler (see -calibrate-every)")
	calibEvery := flag.Int("calibrate-every", 256, "with -calibrate: new samples accumulated between refits; each refit bumps the fit version and retires the previous fit's plan records as counted cache rejects")
	chips := flag.Int("chips", 1, "default chip count for model compiles: > 1 partitions every model across that many chips of the device generation (pipeline cuts + tensor-parallel splits, CompileSharded); a request's own \"chips\" field overrides")
	flag.Parse()

	budget := *workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	dlim := *detachLimit
	if dlim <= 0 {
		dlim = budget
	}
	limiter := t10.NewDetachLimit(dlim)
	pool := sema.NewShared(budget, *queue)
	opts := t10.DefaultOptions()
	opts.Workers = budget
	opts.SharedPool = pool
	opts.DetachLimit = limiter
	var remote *plancache.Remote
	if urls := splitPeers(*peers); len(urls) > 0 {
		remote = plancache.NewRemote(plancache.RemoteOptions{Peers: urls})
	}
	var copts []t10.CompilerOption
	if *fusion {
		copts = append(copts, t10.WithFusion(graph.DefaultRules()))
	}
	var ring *costmodel.SampleRing
	if *calibrate {
		ring = costmodel.NewSampleRing(costmodel.DefaultRingSize)
	}
	// buildCompiler constructs one compiler generation; the calibration
	// loop re-invokes it with an ascending fit version so each refit
	// over the (shared, ever-growing) ring is named distinctly.
	buildCompiler := func(version int) (*t10.Compiler, error) {
		cc := copts
		if ring != nil {
			cc = append(cc[:len(cc):len(cc)], t10.WithCalibrationVersion(ring, version))
		}
		o := opts
		o.Cache = newPlanCache(*cacheDir, *cacheSalt, remote)
		return t10.New(device.IPUMK2(), o, cc...)
	}
	c, err := buildCompiler(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "t10serve:", err)
		os.Exit(1)
	}
	log.Printf("t10serve: listening on %s (device %s, chips %d, budget %d workers, queue %d, compile timeout %v, detach-on-cancel %t (limit %d), fusion %t, calibrate %t (every %d), cache dir %q, peers %v)",
		*addr, c.Spec.Name, *chips, budget, *queue, *timeout, *detach, dlim, *fusion, *calibrate, *calibEvery, *cacheDir, remote.Peers())
	hsrv := newServer(c, pool, *timeout)
	hsrv.chips = *chips
	hsrv.detach = *detach
	hsrv.detachLimit = limiter
	hsrv.remote = remote
	if ring != nil {
		hsrv.enableCalibration(ring, *calibEvery, buildCompiler)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           hsrv.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute, // big-model compiles take a while
	}

	// graceful shutdown: stop accepting, drain in-flight compiles
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "t10serve:", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		log.Printf("t10serve: shutdown signal, draining in-flight compiles")
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			log.Printf("t10serve: drain incomplete: %v", err)
		}
		remote.Close() // flush in-flight best-effort publishes (nil-safe)
	}
}

// newPlanCache builds the plan cache of one compiler generation: a
// fresh memory tier (so a refit starts empty) over the shared disk
// directory and fleet peer tier. The remote is attached here, before the
// cache's first use.
func newPlanCache(dir, salt string, remote *plancache.Remote) *plancache.Cache {
	c := plancache.New(plancache.Options{Dir: dir, Salt: []byte(salt)})
	c.SetRemote(remote)
	return c
}

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// dropped.
func splitPeers(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// maxBodyBytes bounds /compile request bodies; the largest legitimate
// request is a few hundred bytes of JSON.
const maxBodyBytes = 1 << 20

// maxOpDim and maxBatch bound single-op and model requests to shapes
// the device could conceivably hold, so a hostile request cannot make
// the server enumerate plans for a petabyte matmul. maxChips and
// maxMicrobatches bound the sharded outer search the same way.
const (
	maxOpDim        = 1 << 20
	maxBatch        = 4096
	maxChips        = 64
	maxMicrobatches = 4096
)

// server wires one compiler into the HTTP handlers. The compiler is
// safe for concurrent compiles: the shared worker budget, the plan
// cache and the searcher's in-flight deduplication do the heavy
// lifting. It is held behind an atomic pointer because the calibration
// loop (-calibrate) redeploys a freshly refit compiler at runtime;
// each request pins one compiler via compiler() and runs on it end to
// end, so a mid-request swap can never mix two fits in one response.
type server struct {
	cur         atomic.Pointer[t10.Compiler]
	pool        *sema.Sem         // the shared budget, for /stats and admission gauges
	timeout     time.Duration     // per-request compile deadline; 0 = none
	chips       int               // default chip count for model compiles (-chips; <= 1 = single-chip)
	detach      bool              // cancelled requests warm the cache instead of wasting work
	detachLimit *t10.DetachLimit  // cap + gauges on concurrently detached requests (nil = uncapped)
	remote      *plancache.Remote // fleet peer tier (nil = standalone); nil-safe methods

	// calibration loop state (-calibrate; see enableCalibration). The
	// ring outlives every compiler generation — each rebuild refits
	// over the same accumulated samples.
	calibRing   *costmodel.SampleRing
	calibEvery  uint64                                   // new samples between refits
	rebuild     func(version int) (*t10.Compiler, error) // construct the next generation
	refitting   atomic.Bool                              // one refit in flight at a time
	refits      atomic.Int64                             // compilers redeployed by the loop
	refitFails  atomic.Int64                             // rebuilds that errored (previous fit kept serving)
	nextRefitAt atomic.Uint64                            // ring lifetime total that triggers the next refit

	inFlight     atomic.Int64 // requests currently compiling (or queued for a slot)
	completed    atomic.Int64 // 200s served
	rejected     atomic.Int64 // 429s: admission queue full
	cancelled    atomic.Int64 // 503s: deadline expired / client gone mid-compile
	encodeErrors atomic.Int64 // response encoding failures (client gone mid-write)

	// cost-weighted admission counters (see /stats)
	probeRequests  atomic.Int64 // weight-0 requests: estimated fully cached, skipped admission
	heavyRequests  atomic.Int64 // requests admitted with weight > 1
	weightAdmitted atomic.Int64 // total admission slots requested across all requests

	// cumulative cache-route counters across every 200 (one count per
	// unique operator search a request performed)
	routeMemory, routeDisk, routeRemote, routeFlight, routeCold atomic.Int64

	// cumulative fusion counters across every 200: groups the fusion
	// pass formed and source ops folded into them (always zero unless
	// the server runs with -fusion)
	fusedGroups, fusedOps atomic.Int64

	// multi-chip scale-out counters across every sharded 200: requests
	// answered by CompileSharded, pipeline stages in their winning
	// partitions, and chips those partitions occupied
	shardedCompiles, shardedStages, shardedChips atomic.Int64

	// peer-facing /plans serve counters (this replica as a fleet peer)
	planGets, planGetMisses, planPuts, planPutRejects atomic.Int64

	// per-stage latency rings behind the /stats percentiles
	latAdmission, latProbe, latSearch, latReconcile, latWall latRing
}

// latRingSize is how many recent requests the /stats percentiles
// cover: enough that p99 is meaningful, small enough that a sort per
// /stats read is nothing.
const latRingSize = 512

// latRing is a fixed-size ring of recent stage durations (µs). One
// mutex-guarded write per request per stage; /stats copies and sorts.
type latRing struct {
	mu   sync.Mutex
	buf  [latRingSize]int64
	next int
	n    int
}

func (r *latRing) add(d time.Duration) {
	us := d.Microseconds()
	r.mu.Lock()
	r.buf[r.next] = us
	r.next = (r.next + 1) % latRingSize
	if r.n < latRingSize {
		r.n++
	}
	r.mu.Unlock()
}

// percentileJSON is one stage's latency summary (µs, nearest-rank).
type percentileJSON struct {
	P50Us   int64 `json:"p50_us"`
	P95Us   int64 `json:"p95_us"`
	P99Us   int64 `json:"p99_us"`
	Samples int   `json:"samples"`
}

func (r *latRing) percentiles() percentileJSON {
	// allocate the snapshot before taking the lock: the ring is written
	// on every request, and an allocation (with a possible GC assist)
	// inside the critical section stalls them all
	vals := make([]int64, 0, latRingSize)
	r.mu.Lock()
	vals = append(vals, r.buf[:r.n]...)
	r.mu.Unlock()
	if len(vals) == 0 {
		return percentileJSON{}
	}
	slices.Sort(vals)
	at := func(p float64) int64 {
		i := int(p * float64(len(vals)-1))
		return vals[i]
	}
	return percentileJSON{
		P50Us:   at(0.50),
		P95Us:   at(0.95),
		P99Us:   at(0.99),
		Samples: len(vals),
	}
}

func newServer(c *t10.Compiler, pool *sema.Sem, timeout time.Duration) *server {
	s := &server{pool: pool, timeout: timeout}
	s.cur.Store(c)
	return s
}

// compiler returns the compiler generation currently serving. Handlers
// call it once per request and use that pin throughout, so every
// response is priced by exactly one fit even if a refit swaps the
// pointer mid-request.
func (s *server) compiler() *t10.Compiler { return s.cur.Load() }

// enableCalibration arms the online refinement loop: once ring has
// accumulated `every` new samples since the last deploy, the server
// rebuilds the compiler (refitting the cost model over the ring, with
// an ascending fit version) and atomically swaps it in. Requests keep
// flowing on the previous generation while the rebuild runs; the
// generations safely share the disk cache, worker pool and fleet tier,
// and the new fit's fingerprint tag retires the old fit's plan records
// as counted cache rejects.
func (s *server) enableCalibration(ring *costmodel.SampleRing, every int, rebuild func(version int) (*t10.Compiler, error)) {
	if ring == nil || every <= 0 || rebuild == nil {
		return
	}
	s.calibRing = ring
	s.calibEvery = uint64(every)
	s.rebuild = rebuild
	s.nextRefitAt.Store(uint64(every))
}

// maybeRecalibrate kicks an asynchronous refit when the sample ring
// has grown past the next threshold. At most one refit runs at a time
// (CAS-guarded); requests are never blocked by it.
func (s *server) maybeRecalibrate() {
	if s.calibRing == nil || s.calibRing.Total() < s.nextRefitAt.Load() {
		return
	}
	if !s.refitting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.refitting.Store(false)
		if err := s.recalibrate(); err != nil {
			log.Printf("t10serve: recalibrate: %v", err)
		}
	}()
}

// recalibrate synchronously rebuilds the compiler over the current
// ring contents and redeploys it. The fit version ascends with each
// deploy (the shipped boot fit is generation 0), so /stats and the
// record fingerprints name every successive fit distinctly.
func (s *server) recalibrate() error {
	version := int(s.refits.Load()) + 1
	nc, err := s.rebuild(version)
	if err != nil {
		s.refitFails.Add(1)
		return err
	}
	s.cur.Store(nc)
	s.refits.Add(1)
	s.nextRefitAt.Store(s.calibRing.Total() + s.calibEvery)
	return nil
}

func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/compile", s.handleCompile)
	m.HandleFunc("/plans/", s.handlePlans)
	m.HandleFunc("/cachestats", s.handleCacheStats)
	m.HandleFunc("/stats", s.handleStats)
	m.HandleFunc("/healthz", s.handleHealthz)
	return m
}

// compileRequest compiles either a built-in model or a single matmul
// operator spec.
type compileRequest struct {
	Model    string  `json:"model,omitempty"`
	Batch    int     `json:"batch,omitempty"`
	Simulate bool    `json:"simulate,omitempty"`
	Op       *opSpec `json:"op,omitempty"`

	// Chips > 1 partitions the model across that many chips of the
	// device generation (CompileSharded); 0 means the server's -chips
	// default. Microbatches sets the pipeline depth for sharded
	// compiles (ignored single-chip).
	Chips        int `json:"chips,omitempty"`
	Microbatches int `json:"microbatches,omitempty"`
}

type opSpec struct {
	Name  string `json:"name"`
	M     int    `json:"m"`
	K     int    `json:"k"`
	N     int    `json:"n"`
	DType string `json:"dtype,omitempty"` // fp16 (default), fp32
}

// expr validates the spec and builds the operator expression.
func (spec *opSpec) expr() (*expr.Expr, error) {
	if spec.M <= 0 || spec.K <= 0 || spec.N <= 0 {
		return nil, fmt.Errorf("op needs positive m, k, n")
	}
	if spec.M > maxOpDim || spec.K > maxOpDim || spec.N > maxOpDim {
		return nil, fmt.Errorf("op dimensions exceed the %d limit", maxOpDim)
	}
	name := spec.Name
	if name == "" {
		name = "op"
	}
	var elem dtype.Type
	switch strings.ToLower(spec.DType) {
	case "", "fp16":
		elem = dtype.FP16
	case "fp32":
		elem = dtype.FP32
	default:
		return nil, fmt.Errorf("unsupported dtype %q", spec.DType)
	}
	return expr.MatMul(name, spec.M, spec.K, spec.N, elem), nil
}

// parseCompileRequest decodes and structurally validates one /compile
// body. It never touches the compiler — the fuzz target drives it with
// arbitrary bytes.
func parseCompileRequest(r io.Reader) (*compileRequest, error) {
	var req compileRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	switch {
	case req.Op != nil:
		if _, err := req.Op.expr(); err != nil {
			return nil, err
		}
	case req.Model != "":
		if req.Batch > maxBatch {
			return nil, fmt.Errorf("batch %d exceeds the %d limit", req.Batch, maxBatch)
		}
		if req.Chips < 0 || req.Chips > maxChips {
			return nil, fmt.Errorf("chips %d outside [0, %d]", req.Chips, maxChips)
		}
		if req.Microbatches < 0 || req.Microbatches > maxMicrobatches {
			return nil, fmt.Errorf("microbatches %d outside [0, %d]", req.Microbatches, maxMicrobatches)
		}
	default:
		return nil, errors.New(`need "model" or "op"`)
	}
	return &req, nil
}

type opPlanJSON struct {
	Name     string  `json:"name"`
	Repeat   int     `json:"repeat"`
	Fop      []int   `json:"fop"`
	Steps    int     `json:"steps"`
	ActiveKB float64 `json:"active_kb"`
	IdleKB   float64 `json:"idle_kb"`
	EstUs    float64 `json:"est_us"`
	SetupUs  float64 `json:"setup_us"`
}

type compileResponse struct {
	Model      string         `json:"model,omitempty"`
	Batch      int            `json:"batch,omitempty"`
	Ops        int            `json:"ops"`
	CompileMs  float64        `json:"compile_ms"`
	IdleMemPct float64        `json:"idle_mem_pct"`
	LatencyMs  float64        `json:"latency_ms,omitempty"`
	Plans      []opPlanJSON   `json:"plans"`
	Telemetry  *telemetryJSON `json:"telemetry,omitempty"`

	// multi-chip scale-out (chips > 1): the winning partition, one
	// shard per pipeline stage. TransferMs/BubbleMs carry the simulated
	// interconnect and pipeline-imbalance shares ("simulate": true).
	Chips        int         `json:"chips,omitempty"`
	Microbatches int         `json:"microbatches,omitempty"`
	Shards       []shardJSON `json:"shards,omitempty"`
	TransferMs   float64     `json:"transfer_ms,omitempty"`
	BubbleMs     float64     `json:"bubble_ms,omitempty"`
}

// shardJSON is one pipeline stage of a sharded compile: which source
// ops it holds, how many chips row-split it, and its per-shard costs.
type shardJSON struct {
	Stage      int     `json:"stage"`
	StartOp    int     `json:"start_op"`
	EndOp      int     `json:"end_op"` // exclusive
	Ops        int     `json:"ops"`
	Split      int     `json:"split"` // tensor-parallel ways (chips in the stage)
	IdleMemPct float64 `json:"idle_mem_pct"`
	GatherUs   float64 `json:"gather_us,omitempty"`  // all-gather closing a split stage
	LatencyMs  float64 `json:"latency_ms,omitempty"` // simulated stage time ("simulate": true)
}

// telemetryJSON is the production-safe telemetry block every 200
// carries: the t10.Telemetry stage walls in µs, the cache routes, and
// the admission weight. Stage durations are disjoint phases of the
// request wall, so their sum never exceeds wall_us — the soak test
// asserts it on every response. For single-operator requests, route
// names the one route that answered ("memory", "disk", "remote",
// "singleflight", "cold"); model requests carry the per-route counts
// instead.
type telemetryJSON struct {
	AdmissionWaitUs int64  `json:"admission_wait_us"`
	CacheProbeUs    int64  `json:"cache_probe_us"`
	ColdSearchUs    int64  `json:"cold_search_us"`
	ReconcileUs     int64  `json:"reconcile_us"`
	WallUs          int64  `json:"wall_us"`
	AdmissionWeight int    `json:"admission_weight"`
	Route           string `json:"route,omitempty"` // single-op only
	RouteMemory     int    `json:"route_memory"`
	RouteDisk       int    `json:"route_disk"`
	RouteRemote     int    `json:"route_remote"`
	RouteFlightWait int    `json:"route_singleflight"`
	RouteCold       int    `json:"route_cold"`

	// operator-fusion outcome of this request (server running -fusion):
	// groups formed and source ops folded into them
	FusedGroups int `json:"fused_groups,omitempty"`
	FusedOps    int `json:"fused_ops,omitempty"`

	// search-space accounting of the request's cold searches
	// (TelemetryFull, which the server always requests)
	Filtered    int `json:"filtered,omitempty"`
	Priced      int `json:"priced,omitempty"`
	Pruned      int `json:"pruned,omitempty"`
	Seeded      int `json:"seeded,omitempty"`
	CutSubtrees int `json:"cut_subtrees,omitempty"`
	CutLeaves   int `json:"cut_leaves,omitempty"`
}

// recordTelemetry folds one successful request's telemetry into the
// /stats aggregates (latency rings, route counters) and renders the
// response block.
func (s *server) recordTelemetry(tel *t10.Telemetry) *telemetryJSON {
	s.latAdmission.add(tel.AdmissionWait)
	s.latProbe.add(tel.CacheProbe)
	s.latSearch.add(tel.ColdSearch)
	s.latReconcile.add(tel.Reconcile)
	s.latWall.add(tel.Wall)
	s.routeMemory.Add(int64(tel.RouteMemory))
	s.routeDisk.Add(int64(tel.RouteDisk))
	s.routeRemote.Add(int64(tel.RouteRemote))
	s.routeFlight.Add(int64(tel.RouteFlightWait))
	s.routeCold.Add(int64(tel.RouteCold))
	s.fusedGroups.Add(int64(tel.FusedGroups))
	s.fusedOps.Add(int64(tel.FusedOps))
	return &telemetryJSON{
		AdmissionWaitUs: tel.AdmissionWait.Microseconds(),
		CacheProbeUs:    tel.CacheProbe.Microseconds(),
		ColdSearchUs:    tel.ColdSearch.Microseconds(),
		ReconcileUs:     tel.Reconcile.Microseconds(),
		WallUs:          tel.Wall.Microseconds(),
		AdmissionWeight: tel.AdmissionWeight,
		RouteMemory:     tel.RouteMemory,
		RouteDisk:       tel.RouteDisk,
		RouteRemote:     tel.RouteRemote,
		RouteFlightWait: tel.RouteFlightWait,
		RouteCold:       tel.RouteCold,
		FusedGroups:     tel.FusedGroups,
		FusedOps:        tel.FusedOps,
		Filtered:        tel.Filtered,
		Priced:          tel.Priced,
		Pruned:          tel.Pruned,
		Seeded:          tel.Seeded,
		CutSubtrees:     tel.CutSubtrees,
		CutLeaves:       tel.CutLeaves,
	}
}

// opRoute names the single route that answered a one-operator request.
// A retry-as-owner flight can touch more than one route; the most
// expensive one taken is the honest label.
func opRoute(tel *t10.Telemetry) string {
	switch {
	case tel.RouteCold > 0:
		return "cold"
	case tel.RouteRemote > 0:
		return "remote"
	case tel.RouteDisk > 0:
		return "disk"
	case tel.RouteFlightWait > 0:
		return "singleflight"
	default:
		return "memory"
	}
}

type paretoPlanJSON struct {
	Fop       []int   `json:"fop"`
	Steps     int     `json:"steps"`
	MemKB     float64 `json:"mem_kb"`
	EstUs     float64 `json:"est_us"`
	ShiftKB   float64 `json:"shift_kb"`
	PlanNotes string  `json:"plan,omitempty"`
}

type searchResponse struct {
	Op        string           `json:"op"`
	Filtered  int              `json:"filtered"`
	Pareto    []paretoPlanJSON `json:"pareto"`
	SearchMs  float64          `json:"search_ms"`
	Telemetry *telemetryJSON   `json:"telemetry,omitempty"`
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return
	}
	req, err := parseCompileRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
			return
		}
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// the per-request deadline rides on the client's context, so a
	// disconnected client also cancels its compile
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if req.Op != nil {
		s.compileOp(ctx, w, req.Op)
	} else {
		s.compileModel(ctx, w, req)
	}
	// cold searches (and simulated runs) the request just performed may
	// have pushed the sample ring past the refit threshold
	s.maybeRecalibrate()
}

// reqOptions prices one request's admission from its cost estimate and
// assembles the per-request compile options, updating the /stats
// weight counters. Weight 0 (fully cached) skips admission entirely —
// the cache-probe fast path that keeps cheap traffic flowing while the
// pool is saturated with heavy compiles.
func (s *server) reqOptions(est t10.CostEstimate) []t10.CompileOption {
	weight := est.Weight(s.pool.Cap())
	switch {
	case weight == 0:
		s.probeRequests.Add(1)
	case weight > 1:
		s.heavyRequests.Add(1)
	}
	s.weightAdmitted.Add(int64(weight))
	opts := []t10.CompileOption{
		t10.WithAdmissionWeight(weight),
		t10.WithTelemetry(t10.TelemetryFull),
	}
	if s.detach {
		opts = append(opts, t10.WithDetachOnCancel())
	}
	return opts
}

func (s *server) compileModel(ctx context.Context, w http.ResponseWriter, req *compileRequest) {
	batch := req.Batch
	if batch <= 0 {
		batch = 1
	}
	m, err := models.Build(req.Model, batch)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c := s.compiler()
	est, err := c.EstimateCost(m)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	chips := req.Chips
	if chips <= 0 {
		chips = s.chips
	}
	if chips > 1 {
		s.compileSharded(ctx, w, req, m, c, est, chips)
		return
	}
	start := time.Now()
	cr, err := c.CompileWithResult(ctx, m, s.reqOptions(est)...)
	if err != nil {
		s.compileError(w, "compile "+req.Model, err)
		return
	}
	exe := cr.Executable
	// exe.Model, not the request model: under -fusion the executable's
	// ops are the fused graph the plans and schedule actually index
	resp := compileResponse{
		Model:      m.Name,
		Batch:      m.BatchSize,
		Ops:        len(exe.Model.Ops),
		CompileMs:  float64(time.Since(start).Microseconds()) / 1e3,
		IdleMemPct: 100 * float64(exe.Schedule.IdleMemPerCore) / float64(c.Spec.CoreMemBytes),
	}
	for i := range exe.Model.Ops {
		op := &exe.Model.Ops[i]
		asg := &exe.Schedule.Assignments[i]
		repeat := op.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		resp.Plans = append(resp.Plans, opPlanJSON{
			Name:     op.Name,
			Repeat:   repeat,
			Fop:      asg.Active.Plan.Fop,
			Steps:    asg.Active.Plan.TotalSteps,
			ActiveKB: float64(asg.Active.Est.MemPerCore) / 1024,
			IdleKB:   float64(asg.IdleMemPerCore) / 1024,
			EstUs:    asg.ExecNs / 1e3,
			SetupUs:  asg.SetupNs / 1e3,
		})
	}
	if req.Simulate {
		resp.LatencyMs = exe.Simulate().LatencyMs()
	}
	resp.Telemetry = s.recordTelemetry(&cr.Telemetry)
	s.completed.Add(1)
	s.writeJSON(w, resp)
}

// compileSharded answers a model request with chips > 1: the model is
// partitioned across the device generation's chips (pipeline cuts +
// tensor-parallel row splits), each stage compiled by the ordinary
// single-chip pipeline through the same plan cache and worker budget.
// The telemetry block aggregates every stage compile the outer search
// priced; the shards list describes the winning partition.
func (s *server) compileSharded(ctx context.Context, w http.ResponseWriter, req *compileRequest,
	m *graph.Model, c *t10.Compiler, est t10.CostEstimate, chips int) {
	opts := s.reqOptions(est)
	if req.Microbatches > 1 {
		opts = append(opts, t10.WithPipelineMicrobatches(req.Microbatches))
	}
	start := time.Now()
	sr, err := c.CompileShardedWithResult(ctx, m, chips, opts...)
	if err != nil {
		s.compileError(w, fmt.Sprintf("compile %s across %d chips", req.Model, chips), err)
		return
	}
	se := sr.Executable
	part := se.Partition
	resp := compileResponse{
		Model:        m.Name,
		Batch:        m.BatchSize,
		Ops:          len(m.Ops),
		CompileMs:    float64(time.Since(start).Microseconds()) / 1e3,
		Chips:        part.Chips,
		Microbatches: part.Microbatches,
	}
	var rep *t10.ShardedReport
	if req.Simulate {
		rep = se.Simulate()
		resp.LatencyMs = rep.LatencyMs()
		resp.TransferMs = rep.TransferNs / 1e6
		resp.BubbleMs = rep.BubbleNs / 1e6
	}
	for i := range part.Stages {
		st := &part.Stages[i]
		sj := shardJSON{
			Stage:      i,
			StartOp:    st.Start,
			EndOp:      st.End,
			Ops:        st.End - st.Start,
			Split:      st.Split,
			IdleMemPct: 100 * float64(se.Stages[i].Schedule.IdleMemPerCore) / float64(c.Spec.CoreMemBytes),
			GatherUs:   st.GatherNs / 1e3,
		}
		if rep != nil {
			sj.LatencyMs = rep.Stages[i].TotalNs / 1e6
		}
		resp.Shards = append(resp.Shards, sj)
		if idle := sj.IdleMemPct; idle > resp.IdleMemPct {
			resp.IdleMemPct = idle
		}
	}
	resp.Telemetry = s.recordTelemetry(&sr.Telemetry)
	s.shardedCompiles.Add(1)
	s.shardedStages.Add(int64(len(part.Stages)))
	s.shardedChips.Add(int64(part.Chips))
	s.completed.Add(1)
	s.writeJSON(w, resp)
}

func (s *server) compileOp(ctx context.Context, w http.ResponseWriter, spec *opSpec) {
	e, err := spec.expr()
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c := s.compiler()
	est, err := c.EstimateOpCost(e)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	sr, err := c.SearchWithResult(ctx, e, s.reqOptions(est)...)
	if err != nil {
		s.compileError(w, "search "+e.Name, err)
		return
	}
	res := sr.Result
	resp := searchResponse{
		Op:        res.Op,
		Filtered:  res.Spaces.Filtered,
		SearchMs:  float64(time.Since(start).Microseconds()) / 1e3,
		Telemetry: s.recordTelemetry(&sr.Telemetry),
	}
	resp.Telemetry.Route = opRoute(&sr.Telemetry)
	for i := range res.Pareto {
		c := &res.Pareto[i]
		resp.Pareto = append(resp.Pareto, paretoPlanJSON{
			Fop:     c.Plan.Fop,
			Steps:   c.Plan.TotalSteps,
			MemKB:   float64(c.Est.MemPerCore) / 1024,
			EstUs:   c.Est.TotalNs / 1e3,
			ShiftKB: float64(c.Est.ShiftBytesPerCore) / 1024,
		})
	}
	s.completed.Add(1)
	s.writeJSON(w, resp)
}

// retryAfter bounds and default for retryAfterSeconds: never tell a
// client to come back sooner than 1s (pointless hammering) or later
// than 30s (the queue drains far faster than that at any plausible
// load — a huge p95 means a burst just passed, not a 30s+ wait).
const (
	retryAfterFloorSec   = 1
	retryAfterCeilingSec = 30
)

// retryAfterSeconds derives the Retry-After hint from load actually
// observed: the p95 of recent admission waits — how long the requests
// that did get in recently queued for a slot — rounded up to whole
// seconds and clamped. With no samples yet (cold server shedding its
// first burst), the floor.
func (s *server) retryAfterSeconds() int {
	p := s.latAdmission.percentiles()
	if p.Samples == 0 {
		return retryAfterFloorSec
	}
	sec := int((p.P95Us + 1e6 - 1) / 1e6)
	if sec < retryAfterFloorSec {
		return retryAfterFloorSec
	}
	if sec > retryAfterCeilingSec {
		return retryAfterCeilingSec
	}
	return sec
}

// compileError maps a failed compile to the load-shedding protocol:
// saturated admission queue → 429 Too Many Requests, cancelled or
// deadline-expired → 503 Service Unavailable (both with a Retry-After
// derived from the observed queue-wait p95 — the condition is
// transient, and the hint should track how congested the queue
// actually is), anything else → 422 (the request is well-formed but
// infeasible).
func (s *server) compileError(w http.ResponseWriter, what string, err error) {
	switch {
	case errors.Is(err, sema.ErrSaturated):
		s.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.httpError(w, http.StatusTooManyRequests, "%s: compile budget saturated", what)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.cancelled.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.httpError(w, http.StatusServiceUnavailable, "%s: %v", what, err)
	default:
		s.httpError(w, http.StatusUnprocessableEntity, "%s: %v", what, err)
	}
}

// handlePlans is the fleet peer surface: GET serves the sealed plan
// record verbatim from the disk layer, PUT verifies and stores one a
// peer pushed. Both bypass admission entirely — like the weight-0
// cache-probe fast path, they never compile, never search and never
// consume a slot of the worker budget, so a fleet of replicas probing
// each other cannot starve the compiles the budget exists for. GET
// does no verification (the requesting replica verifies provenance
// itself — the wire is not trusted); PUT applies the full provenance
// check before anything touches disk, so a byzantine peer cannot
// poison the store.
func (s *server) handlePlans(w http.ResponseWriter, r *http.Request) {
	k, ok := plancache.ParseKey(strings.TrimPrefix(r.URL.Path, "/plans/"))
	if !ok {
		s.httpError(w, http.StatusBadRequest, "want /plans/{64-hex-digit fingerprint}")
		return
	}
	pc := s.compiler().PlanCache()
	switch r.Method {
	case http.MethodGet:
		s.planGets.Add(1)
		raw, ok := pc.RawBlob(k)
		if !ok {
			s.planGetMisses.Add(1)
			s.httpError(w, http.StatusNotFound, "no record for %s", k)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	case http.MethodPut:
		s.planPuts.Add(1)
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, plancache.MaxRecordBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.planPutRejects.Add(1)
				s.httpError(w, http.StatusRequestEntityTooLarge, "record exceeds %d bytes", int64(plancache.MaxRecordBytes))
				return
			}
			s.httpError(w, http.StatusBadRequest, "read record: %v", err)
			return
		}
		switch err := pc.ImportBlob(k, raw); {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, plancache.ErrImportRejected):
			s.planPutRejects.Add(1)
			s.httpError(w, http.StatusUnprocessableEntity, "%v", err)
		case errors.Is(err, plancache.ErrImportDisabled):
			s.httpError(w, http.StatusConflict, "%v", err)
		default:
			s.httpError(w, http.StatusInternalServerError, "store record: %v", err)
		}
	default:
		s.methodNotAllowed(w, "GET, PUT")
	}
}

func (s *server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	s.writeJSON(w, s.compiler().CacheStats())
}

// statsResponse is the /stats payload: the admission and budget gauges
// plus the shed/cancel counters.
type statsResponse struct {
	Budget       int   `json:"budget"`       // shared worker budget (slots)
	BusyWorkers  int   `json:"busy_workers"` // slots held right now
	InFlight     int64 `json:"in_flight"`    // requests compiling or waiting
	Queued       int   `json:"queued"`       // requests waiting for a slot
	Completed    int64 `json:"completed"`
	Rejected     int64 `json:"rejected"`  // 429s: queue full
	Cancelled    int64 `json:"cancelled"` // 503s: deadline/client cancellation
	EncodeErrors int64 `json:"encode_errors"`

	// cost-weighted admission: weight-0 cache probes bypass the budget,
	// heavy requests (> 1 slot) reserve several slots' worth of it
	ProbeRequests  int64 `json:"probe_requests"`
	HeavyRequests  int64 `json:"heavy_requests"`
	WeightAdmitted int64 `json:"weight_admitted"` // total slots requested

	// detached compiles: cancelled requests still running in the
	// background (gauge) and cancellations the cap degraded to the plain
	// kind (cumulative)
	DetachedActive   int64 `json:"detached_active"`
	DetachedRejected int64 `json:"detached_rejected"`

	// cumulative cache-route counters: one count per unique operator
	// search across every 200 served
	RouteMemory     int64 `json:"route_memory"`
	RouteDisk       int64 `json:"route_disk"`
	RouteRemote     int64 `json:"route_remote"`
	RouteFlightWait int64 `json:"route_singleflight"`
	RouteCold       int64 `json:"route_cold"`

	// cumulative operator-fusion counters across every 200 (non-zero
	// only when the server runs with -fusion)
	FusedGroups int64 `json:"fused_groups"`
	FusedOps    int64 `json:"fused_ops"`

	// multi-chip scale-out counters: sharded 200s served, pipeline
	// stages in their winning partitions, chips those partitions used
	ShardedCompiles int64 `json:"sharded_compiles"`
	ShardedStages   int64 `json:"sharded_stages"`
	ShardedChips    int64 `json:"sharded_chips"`

	// per-stage latency percentiles over the last latRingSize requests
	Latency struct {
		AdmissionWait percentileJSON `json:"admission_wait"`
		CacheProbe    percentileJSON `json:"cache_probe"`
		ColdSearch    percentileJSON `json:"cold_search"`
		Reconcile     percentileJSON `json:"reconcile"`
		Wall          percentileJSON `json:"wall"`
	} `json:"latency"`

	// Remote is the fleet tier's health: client-side fetch/publish
	// counters with per-peer breaker states (absent standalone), plus
	// this replica's peer-facing /plans serve counters.
	Remote *remoteStatsJSON `json:"remote,omitempty"`

	// Calibration is the online cost-model refinement loop's state
	// (absent unless the server runs with -calibrate).
	Calibration *calibrationJSON `json:"calibration,omitempty"`
}

// calibrationJSON is the /stats calibration section: how many samples
// the measurement taps have collected, which fit generation is
// serving, and the refit ledger.
type calibrationJSON struct {
	Samples      uint64  `json:"samples"`         // lifetime samples recorded by the taps
	RingLen      int     `json:"ring_len"`        // samples currently held (≤ ring capacity)
	FitVersion   int     `json:"fit_version"`     // 0 = shipped (profile-time) fit
	MaxOverEstNs float64 `json:"max_over_est_ns"` // worst observed over-estimate → the calibrated floor's slack
	Refits       int64   `json:"refits"`          // compiler generations redeployed
	RefitFails   int64   `json:"refit_fails"`     // rebuilds that errored (old fit kept serving)

	// Residuals is the serving fit's worst over-estimate per kernel
	// kind (ns) — which operator families the analytic model misprices
	// most, and so where the calibrated floor is doing its work.
	Residuals map[string]float64 `json:"residuals,omitempty"`
}

// remoteStatsJSON is the /stats remote section: the plancache.Remote
// snapshot (hits/misses/rejects, publish ledger, per-peer breaker
// state) plus the serve-side counters of this replica acting as a
// peer.
type remoteStatsJSON struct {
	plancache.RemoteStats
	PlanGets       int64 `json:"plan_gets"`
	PlanGetMisses  int64 `json:"plan_get_misses"`
	PlanPuts       int64 `json:"plan_puts"`
	PlanPutRejects int64 `json:"plan_put_rejects"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	resp := statsResponse{
		Budget:           s.pool.Cap(),
		BusyWorkers:      s.pool.InUse(),
		InFlight:         s.inFlight.Load(),
		Queued:           s.pool.Waiting(),
		Completed:        s.completed.Load(),
		Rejected:         s.rejected.Load(),
		Cancelled:        s.cancelled.Load(),
		EncodeErrors:     s.encodeErrors.Load(),
		ProbeRequests:    s.probeRequests.Load(),
		HeavyRequests:    s.heavyRequests.Load(),
		WeightAdmitted:   s.weightAdmitted.Load(),
		DetachedActive:   s.detachLimit.Active(),
		DetachedRejected: s.detachLimit.Rejected(),
		RouteMemory:      s.routeMemory.Load(),
		RouteDisk:        s.routeDisk.Load(),
		RouteRemote:      s.routeRemote.Load(),
		RouteFlightWait:  s.routeFlight.Load(),
		RouteCold:        s.routeCold.Load(),
		FusedGroups:      s.fusedGroups.Load(),
		FusedOps:         s.fusedOps.Load(),
		ShardedCompiles:  s.shardedCompiles.Load(),
		ShardedStages:    s.shardedStages.Load(),
		ShardedChips:     s.shardedChips.Load(),
	}
	resp.Latency.AdmissionWait = s.latAdmission.percentiles()
	resp.Latency.CacheProbe = s.latProbe.percentiles()
	resp.Latency.ColdSearch = s.latSearch.percentiles()
	resp.Latency.Reconcile = s.latReconcile.percentiles()
	resp.Latency.Wall = s.latWall.percentiles()
	if s.remote != nil {
		resp.Remote = &remoteStatsJSON{
			RemoteStats:    s.remote.Stats(),
			PlanGets:       s.planGets.Load(),
			PlanGetMisses:  s.planGetMisses.Load(),
			PlanPuts:       s.planPuts.Load(),
			PlanPutRejects: s.planPutRejects.Load(),
		}
	}
	if s.calibRing != nil {
		cj := &calibrationJSON{
			Samples:    s.calibRing.Total(),
			RingLen:    s.calibRing.Len(),
			Refits:     s.refits.Load(),
			RefitFails: s.refitFails.Load(),
		}
		if cal, ok := s.compiler().Calibration(); ok {
			cj.FitVersion = cal.Version
			cj.MaxOverEstNs = cal.MaxOverEstNs
			cj.Residuals = cal.Residuals
		}
		resp.Calibration = cj
	}
	s.writeJSON(w, resp)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// HEAD too: load balancers commonly probe liveness with HEAD
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.methodNotAllowed(w, "GET, HEAD")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *server) methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	s.httpError(w, http.StatusMethodNotAllowed, "method not allowed; use %s", allow)
}

func (s *server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.encodeErrors.Add(1)
		log.Printf("t10serve: encode response: %v", err)
	}
}

func (s *server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}); err != nil {
		s.encodeErrors.Add(1)
	}
}
