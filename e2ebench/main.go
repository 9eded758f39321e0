// Command e2ebench is the repository's end-to-end benchmark: it drives
// the T10 compiler through its public API (in-process) and through
// t10serve (over loopback HTTP), checks every output against an
// in-process Workers=1 reference and a numeric oracle, and prints every
// end-to-end metric by name and unit. With -trace 1 it instead
// alternates untraced and traced passes and prints the per-layer
// metrics. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds and passes -t10serve
// and -work):
//
//	e2ebench -workload cold-zoo -seed 1 -seconds 10 -trace 0 -t10serve bin/t10serve -work .bench_build/work
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// workloads lists the benchmark's workloads.
var workloads = []string{"cold-zoo", "warm-serve", "churn-serve", "restart-disk"}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	t10serve string
	work     string // this run's scratch directory
}

// runData is everything a run measured.
type runData struct {
	setup     []float64 // seconds, one per set-up repetition
	loop      loop      // the timed requests
	peakRSSMB float64   // VmHWM of the compiling process

	distinct []request      // warm-serve: the deck's distinct requests
	streams  []clientStream // serving clients
	counters [2]counters    // serving: server counters before and after the loop
}

func main() {
	out, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if out != nil && !out.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) (*result, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measuring time of the run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics, alternating untraced and traced passes")
	t10serve := fs.String("t10serve", "", "t10serve binary (serving workloads)")
	work := fs.String("work", ".bench_build/work", "directory for caches, logs and traces")
	childMode := fs.Bool("child", false, "internal: run the in-process workload loop")
	cacheDir := fs.String("cachedir", "", "internal: the child's plan-cache directory")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *childMode {
		return nil, childMain(*workload, *seed, *seconds, *trace == 1, *cacheDir)
	}
	switch {
	case !slices.Contains(workloads, *workload):
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	case *seconds <= 0:
		return nil, errors.New("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		return nil, errors.New("-trace must be 0 or 1")
	}
	cfg := &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace, t10serve: *t10serve}
	cfg.work = filepath.Join(*work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)

	orc, err := runOracle(cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("numeric oracle: %d ops, %d of %d Pareto plans executed, all equal to EvalRef\n",
		orc.ops, orc.executed, orc.plans)

	var rd *runData
	if inProcess(cfg.workload) {
		rd, err = runInProcess(cfg)
	} else {
		if cfg.t10serve == "" {
			return nil, errors.New("serving workloads need -t10serve")
		}
		rd, err = runServe(cfg)
	}
	if err != nil {
		return nil, err
	}

	refs, err := references(distinctRequests(cfg, rd))
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for i := range rd.loop.Samples {
		res.Attempted++
		if err := checkSample(cfg.workload, &rd.loop.Samples[i], refs); err != nil {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintln(os.Stderr, "e2ebench: wrong output:", err)
			}
		}
	}
	res.Correct = res.Failed == 0

	if cfg.trace == 1 {
		err = perLayer(cfg, rd, res)
	} else {
		endToEnd(cfg, rd, refs, res)
	}
	if err != nil {
		return nil, err
	}
	printTable(cfg, rd, res)
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(b))
	return res, nil
}

// distinctRequests lists the distinct compile requests of the run, in
// a deterministic order.
func distinctRequests(cfg *config, rd *runData) []request {
	var out []request
	switch cfg.workload {
	case "cold-zoo", "restart-disk":
		out = passEntries(cfg.workload)
	case "warm-serve":
		out = rd.distinct
	case "churn-serve":
		seen := map[string]bool{}
		for _, st := range rd.streams {
			for _, r := range st.(*churnStream).issued {
				if !seen[r.key()] {
					seen[r.key()] = true
					out = append(out, r)
				}
			}
		}
	}
	var compiles []request
	for _, r := range out {
		if r.Kind != kindStats {
			compiles = append(compiles, r)
		}
	}
	return compiles
}

// checkSample checks one request's output and cache routes.
func checkSample(workload string, s *sample, refs map[string]*reference) error {
	if s.Err != "" {
		return errors.New(s.Err)
	}
	if s.Kind == kindStats {
		var st servedStats
		if err := json.Unmarshal(s.body, &st); err != nil || st.Completed <= 0 {
			return fmt.Errorf("stats: bad /stats response (%v): %.200s", err, s.body)
		}
		return nil
	}
	ref := refs[s.Key]
	if ref == nil {
		return fmt.Errorf("%s: no reference", s.Key)
	}
	t := &s.Tel
	switch workload {
	case "cold-zoo", "restart-disk":
		if s.Digest != ref.digest {
			return fmt.Errorf("%s: plans differ from the Workers=1 reference", s.Key)
		}
		other := t.RouteMemory + t.RouteRemote + t.RouteFlight
		switch {
		case workload == "cold-zoo" && s.Kind == kindModel && (t.RouteCold == 0 || other+t.RouteDisk > 0):
			return fmt.Errorf("%s: fresh compiler did not search every op cold: %+v", s.Key, t)
		case workload == "restart-disk" && (t.RouteDisk == 0 || other+t.RouteCold > 0 || t.DiskRejects > 0):
			return fmt.Errorf("%s: restarted compiler did not answer every op from disk: %+v", s.Key, t)
		}
		return nil
	}
	sr, err := decodeSample(s)
	if err != nil {
		return err
	}
	if got, want := sr.outputView.digest(), ref.view.digest(); got != want {
		b, _ := json.Marshal(sr.outputView)
		return fmt.Errorf("%s: response differs from the Workers=1 reference: %.300s", s.Key, b)
	}
	if workload == "warm-serve" {
		warm := t.RouteMemory > 0 && t.RouteDisk+t.RouteRemote+t.RouteFlight+t.RouteCold == 0
		if s.Kind == kindOp {
			warm = t.Route == "memory"
		}
		if !warm {
			return fmt.Errorf("%s: warm server did not answer from memory: %+v", s.Key, t)
		}
	}
	return nil
}

// busyThroughput is requests per second of request time, summed over
// clients: a closed loop's throughput with whatever the clients do
// between requests taken off the clock.
func busyThroughput(samples []sample, clients int) float64 {
	var ns int64
	for _, s := range samples {
		ns += s.WallNs
	}
	return float64(clients) * float64(len(samples)) / (float64(ns) / 1e9)
}

// throughput is the run's completed requests per second: per second of
// request time for the single in-process client, whose output checks run
// between requests, off the clock; per second of wall time for the
// concurrent serving clients, whose checks run after the loop.
func (lp *loop) throughput(inProcess bool) float64 {
	if inProcess {
		return busyThroughput(lp.Samples, 1)
	}
	return float64(len(lp.Samples)) / (float64(lp.ElapsedNs) / 1e9)
}

// latenciesMs returns the request wall times, sorted.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.WallNs) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between order statistics of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// sampleKeys lists the distinct compile keys of the samples.
func sampleKeys(samples []sample) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range samples {
		if s.Kind != kindStats && !seen[s.Key] {
			seen[s.Key] = true
			out = append(out, s.Key)
		}
	}
	sort.Strings(out)
	return out
}

func inProcess(workload string) bool { return workload == "cold-zoo" || workload == "restart-disk" }

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(cfg *config, rd *runData, refs map[string]*reference, res *result) {
	lp := &rd.loop
	lat := latenciesMs(lp.Samples)
	res.Metrics["setup_s"] = metric{median(rd.setup), "s"}
	res.Metrics["throughput_rps"] = metric{lp.throughput(inProcess(cfg.workload)), "1/s"}
	res.Metrics["latency_ms_p50"] = metric{quantile(lat, 0.5), "ms"}
	res.Metrics["latency_ms_p90"] = metric{quantile(lat, 0.9), "ms"}
	res.Metrics["plan_latency_ms"] = metric{geomeanMs(refs, sampleKeys(lp.Samples)), "ms-simulated"}
	res.Metrics["peak_rss_mb"] = metric{rd.peakRSSMB, "MiB"}
}

// printTable prints the metrics for a reader, with the sample counts
// behind the latency quantiles.
func printTable(cfg *config, rd *runData, res *result) {
	lp := &rd.loop
	fmt.Printf("workload %s seed %d: %d requests (%d failed) by %d client(s) over %.1fs; setup %v s\n",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, lp.Clients,
		time.Duration(lp.ElapsedNs).Seconds(), rd.setup)
	if cfg.trace == 0 {
		fmt.Printf("latency quantiles over %d samples (p90 has %d beyond it)\n", len(lp.Samples), len(lp.Samples)/10)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
