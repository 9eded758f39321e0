package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// perLayer fills the per-layer metrics of a traced run: span durations
// and self times from the traced passes, telemetry and cache counters
// over the whole loop, and the direct layer probes. The untraced passes
// give the tracing overhead and the heap allocation per request.
func perLayer(cfg *config, rd *runData, res *result) error {
	lp := &rd.loop
	inproc := inProcess(cfg.workload)
	var traced, untraced []sample
	for _, s := range lp.Samples {
		if s.Traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	probeTrace := newTracer()
	pr, err := runProbes(distinctRequests(cfg, rd), probeTrace)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	if err := writeTrace(cfg, lp.Spans, probeTrace.spans); err != nil {
		return err
	}

	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ms := func(ns int64, n int) float64 { return ratio(float64(ns)/1e6, float64(n)) }

	tot := spanTotals(lp.Spans)
	spanMean := func(name string, self bool) float64 {
		t := tot[name]
		if t == nil {
			return 0
		}
		if self {
			return ms(t.selfNs, t.n)
		}
		return ms(t.durNs, t.n)
	}
	set("bench.trace_overhead_frac",
		1-ratio(busyThroughput(traced, lp.Clients), busyThroughput(untraced, lp.Clients)), "fraction")

	// t10: compiler construction and the telemetry stages
	set("t10.new_ms", spanMean("t10.new", false), "ms")
	set("t10.cold_search_ms", spanMean("t10.cold_search", false), "ms")
	set("t10.cache_probe_ms", spanMean("t10.cache_probe", false), "ms")
	var coldNs, plainWallNs int64
	for _, s := range traced {
		if s.Kind == kindModel {
			coldNs += s.Tel.ColdSearchNs
			plainWallNs += s.WallNs
		}
	}
	set("t10.cold_search_frac", ratio(float64(coldNs), float64(plainWallNs)), "fraction")
	allocMB := 0.0
	if inproc {
		allocMB = ratio(float64(lp.AllocB)/(1<<20), float64(len(untraced)))
	}
	set("t10.alloc_mb_per_req", allocMB, "MiB")
	set("sema.admission_wait_ms", spanMean("sema.admission_wait", false), "ms")

	// t10serve: the HTTP layer's own time
	set("t10serve.overhead_ms", spanMean("t10serve.http", true), "ms")
	set("t10serve.stats_scrape_ms", spanMean("t10serve.stats", false), "ms")

	// plancache: routes per unique-op search and cache counters, per
	// compile request of the whole loop
	var r routeCounts
	compiles := 0
	for _, s := range lp.Samples {
		if s.Kind != kindStats {
			compiles++
		}
	}
	if inproc {
		for _, s := range lp.Samples {
			t := &s.Tel
			r.memory += int64(t.RouteMemory)
			r.disk += int64(t.RouteDisk)
			r.cold += int64(t.RouteCold)
			r.flight += int64(t.RouteFlight)
			r.diskHits += t.DiskHits
			r.diskWrites += t.DiskWrites
			r.diskRejects += t.DiskRejects
			r.evictions += t.Evictions
		}
	} else {
		a, b := rd.counters[1], rd.counters[0]
		r = routeCounts{
			memory: a.stats.RouteMemory - b.stats.RouteMemory, disk: a.stats.RouteDisk - b.stats.RouteDisk,
			cold: a.stats.RouteCold - b.stats.RouteCold, flight: a.stats.RouteFlight - b.stats.RouteFlight,
			diskHits: a.cache.DiskHits - b.cache.DiskHits, diskWrites: a.cache.DiskWrites - b.cache.DiskWrites,
			diskRejects: a.cache.DiskRejects - b.cache.DiskRejects, evictions: a.cache.Evictions - b.cache.Evictions,
		}
	}
	perReq := func(v int64) float64 { return ratio(float64(v), float64(compiles)) }
	set("plancache.route_memory", perReq(r.memory), "1/req")
	set("plancache.route_disk", perReq(r.disk), "1/req")
	set("plancache.route_cold", perReq(r.cold), "1/req")
	set("plancache.route_singleflight", perReq(r.flight), "1/req")
	set("plancache.disk_hits", perReq(r.diskHits), "1/req")
	set("plancache.disk_writes", perReq(r.diskWrites), "1/req")
	set("plancache.disk_rejects", perReq(r.diskRejects), "1/req")
	set("plancache.evictions", perReq(r.evictions), "1/req")

	// direct probes
	set("search.op_ms", ms(pr.searchOpNs, pr.ops), "ms")
	set("search.complete_space_ms", ms(pr.completeSpaceNs, pr.ops), "ms")
	set("search.filtered", float64(pr.filtered), "count")
	set("search.priced", float64(pr.priced), "count")
	set("search.pruned", float64(pr.pruned), "count")
	set("search.seeded", float64(pr.seeded), "count")
	set("search.cut_subtrees", float64(pr.cutSubtrees), "count")
	set("search.cut_leaves", float64(pr.cutLeaves), "count")
	set("search.pareto_per_priced", ratio(float64(pr.pareto), float64(pr.priced)), "fraction")
	set("interop.reconcile_ms", ms(pr.reconcileNs, pr.models), "ms")
	set("sim.simulate_ms", ms(pr.simulateNs, pr.models), "ms")
	set("graph.fuse_ms", ms(pr.fuseNs, pr.fusedModels), "ms")
	set("graph.fused_ops", ratio(float64(pr.fusedOps), float64(pr.fusedModels)), "count")
	set("scaleout.self_ms", ms(pr.scaleoutSelfNs, pr.sharded), "ms")
	set("scaleout.enumerated", ratio(float64(pr.enumerated), float64(pr.sharded)), "count")
	set("scaleout.stage_compiles", ratio(float64(pr.stageCompiles), float64(pr.sharded)), "count")

	fmt.Printf("layer probes: %d unique ops searched, %d models reconciled and simulated, %d fused, %d partition searches\n",
		pr.ops, pr.models, pr.fusedModels, pr.sharded)
	printClaim(cfg.workload, res.Metrics)
	return nil
}

type routeCounts struct {
	memory, disk, cold, flight                   int64
	diskHits, diskWrites, diskRejects, evictions int64
}

// printClaim reports whether the traced run shows the workload
// stressing what it was chosen for.
func printClaim(workload string, m map[string]metric) {
	var ok bool
	var claim string
	switch workload {
	case "cold-zoo":
		claim = fmt.Sprintf("cold search is %.1f%% of plain-compile wall time (claim: >= 90%%)",
			100*m["t10.cold_search_frac"].Value)
		ok = m["t10.cold_search_frac"].Value >= 0.9
	case "warm-serve":
		claim = fmt.Sprintf("%.3g cold op searches per request after warm-up (claim: 0)", m["plancache.route_cold"].Value)
		ok = m["plancache.route_cold"].Value == 0
	case "restart-disk":
		claim = fmt.Sprintf("%.3g disk, %.3g cold, %.3g memory routes per request (claim: disk only)",
			m["plancache.route_disk"].Value, m["plancache.route_cold"].Value, m["plancache.route_memory"].Value)
		ok = m["plancache.route_disk"].Value > 0 && m["plancache.route_cold"].Value == 0 && m["plancache.route_memory"].Value == 0
	case "churn-serve":
		claim = fmt.Sprintf("%.3g disk writes per request (claim: > 0)", m["plancache.disk_writes"].Value)
		ok = m["plancache.disk_writes"].Value > 0
	}
	verdict := "holds"
	if !ok {
		verdict = "DOES NOT HOLD"
	}
	fmt.Printf("workload claim %s: %s\n", verdict, claim)
}

// writeTrace writes the traced requests' spans and the probe spans as
// one JSON document next to the run's scratch directory.
func writeTrace(cfg *config, requestSpans, probeSpans []span) error {
	path := filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	b, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed,
		"requests": requestSpans, "probes": probeSpans,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %d request spans, %d probe spans written to %s\n", len(requestSpans), len(probeSpans), path)
	return nil
}
