package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/interop"
	"repro/internal/scaleout"
	"repro/internal/search"
	"repro/t10"
)

// The traced run records spans from the benchmark's own calls into each
// layer's public functions, plus child spans built from the Telemetry
// those calls return. Spans stay in memory and are written out when the
// run ends. End-to-end metrics never come from a traced run.

// span is one timed interval of a request. Parent 0 marks a root;
// layer probes, which serve no request, carry negative request IDs.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer's epoch
	EndNs   int64  `json:"end_ns"`
}

// tracer collects spans; safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: req, Name: name,
		StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch)),
	})
	return id
}

// addStages lays a compile's telemetry stages out as children of its
// span. Telemetry reports the stages as disjoint durations without
// start times, so they are placed back to back from start in the
// order the compiler runs them; only their lengths carry information.
func (t *tracer) addStages(parent int, start time.Time, tel telSample, req int) {
	for _, st := range []struct {
		name string
		ns   int64
	}{
		{"sema.admission_wait", tel.AdmissionWaitNs},
		{"t10.cold_search", tel.ColdSearchNs},
		{"t10.cache_probe", tel.CacheProbeNs},
		{"t10.reconcile", tel.ReconcileNs},
	} {
		end := start.Add(time.Duration(st.ns))
		t.add(st.name, start, end, parent, req)
		start = end
	}
}

// spanTotals sums, per span name, the spans' durations, their self
// times (duration minus the part of it that child spans cover) and
// their number.
type spanTotal struct {
	durNs, selfNs int64
	n             int
}

func spanTotals(spans []span) map[string]*spanTotal {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanTotal{}
	for _, s := range spans {
		tot := out[s.Name]
		if tot == nil {
			tot = &spanTotal{}
			out[s.Name] = tot
		}
		dur := s.EndNs - s.StartNs
		tot.durNs += dur
		tot.selfNs += dur - covered(s, children[s.ID])
		tot.n++
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	cur := parent.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, cur), min(k.EndNs, parent.EndNs)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// probeResult holds the direct per-layer measurements of a traced run.
type probeResult struct {
	ops             int // unique operators searched
	searchOpNs      int64
	completeSpaceNs int64
	filtered        int
	priced          int
	pruned          int
	seeded          int
	cutSubtrees     int
	cutLeaves       int
	pareto          int

	models      int // plain model compiles probed
	reconcileNs int64
	simulateNs  int64

	fusedModels int
	fuseNs      int64
	fusedOps    int

	sharded        int
	scaleoutSelfNs int64
	enumerated     int
	stageCompiles  int
}

// maxProbeOps caps how many unique operators the search probes cover.
const maxProbeOps = 128

// fusionRules is the rule set t10.WithFusion(graph.DefaultRules())
// installs: every rule, gated on the analytic cost model so a fusion is
// kept only when the composed kernel prices no worse than the two ops
// it replaces. The fuse probe checks that it reproduces the compile's
// own fusion outcome.
func fusionRules(c *t10.Compiler) graph.RuleSet {
	rules := graph.DefaultRules()
	spec := c.Spec
	rules.Gate = func(fused, producer, consumer *expr.Expr) bool {
		sum := core.IdealizedNs(spec, producer, spec.Cores) + core.IdealizedNs(spec, consumer, spec.Cores)
		return core.IdealizedNs(spec, fused, spec.Cores) <= sum
	}
	return rules
}

// runProbes times direct calls into the search, interop, sim, graph
// and scaleout layers over a workload's distinct compile requests, all
// at Workers=1 so the search counters are exact.
func runProbes(reqs []request, tr *tracer) (*probeResult, error) {
	ctx := context.Background()
	pr := &probeResult{}
	comps := map[bool]*t10.Compiler{}
	compiler := func(fusion bool) (*t10.Compiler, error) {
		if c := comps[fusion]; c != nil {
			return c, nil
		}
		c, err := newCompiler(1, fusion, "")
		comps[fusion] = c
		return c, err
	}
	type uop struct {
		e      *expr.Expr
		fusion bool
	}
	var uops []uop
	seen := map[string]bool{}
	addOp := func(e *expr.Expr, fusion bool) {
		sig := fmt.Sprintf("%t/%s", fusion, e.Signature())
		if !seen[sig] && len(uops) < maxProbeOps {
			seen[sig] = true
			uops = append(uops, uop{e, fusion})
		}
	}
	req := 0
	timed := func(name string, f func() error) (int64, error) {
		req++
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		tr.add(name, t0, t1, 0, -req)
		return int64(t1.Sub(t0)), err
	}

	for _, r := range reqs {
		switch r.Kind {
		case kindOp:
			addOp(opExpr(r), false)
		case kindModel, kindSharded:
			c, err := compiler(r.Fusion)
			if err != nil {
				return nil, err
			}
			m, err := buildModel(r)
			if err != nil {
				return nil, err
			}
			if r.Kind == kindSharded {
				if err := probeScaleout(ctx, c, m, r.Chips, pr, timed); err != nil {
					return nil, err
				}
				continue
			}
			exe, err := c.Compile(ctx, m)
			if err != nil {
				return nil, err
			}
			for i := range exe.Model.Ops {
				addOp(exe.Model.Ops[i].Expr, r.Fusion)
			}
			if r.Simulate {
				continue // the same plans as the unsimulated request
			}
			pr.models++
			ns, err := timed("interop.reconcile", func() error {
				_, err := interop.Reconcile(exe.Spec, exe.Plans, int64(exe.Spec.CoreMemBytes))
				return err
			})
			if err != nil {
				return nil, err
			}
			pr.reconcileNs += ns
			ns, _ = timed("sim.simulate", func() error { exe.Simulate(); return nil })
			pr.simulateNs += ns
			if r.Fusion {
				var fg *graph.FusedGraph
				ns, err := timed("graph.fuse", func() error {
					var err error
					fg, err = graph.Fuse(m, fusionRules(c))
					return err
				})
				if err != nil {
					return nil, err
				}
				if fg.FusedOpCount() != exe.Fusion.FusedOpCount() {
					return nil, fmt.Errorf("fuse probe on %s folded %d ops, the compile %d",
						r.Model, fg.FusedOpCount(), exe.Fusion.FusedOpCount())
				}
				pr.fusedModels++
				pr.fuseNs += ns
				pr.fusedOps += fg.FusedOpCount()
			}
		}
	}

	for _, u := range uops {
		c, err := newCompiler(1, u.fusion, "")
		if err != nil {
			return nil, err
		}
		var sr *t10.SearchResult
		ns, err := timed("search.op", func() error {
			var err error
			sr, err = c.SearchWithResult(ctx, u.e, t10.WithTelemetry(t10.TelemetryFull))
			return err
		})
		if err != nil {
			return nil, err
		}
		pr.ops++
		pr.searchOpNs += ns
		tel := &sr.Telemetry
		pr.filtered += tel.Filtered
		pr.priced += tel.Priced
		pr.pruned += tel.Pruned
		pr.seeded += tel.Seeded
		pr.cutSubtrees += tel.CutSubtrees
		pr.cutLeaves += tel.CutLeaves
		pr.pareto += len(sr.Result.Pareto)
		s := search.New(c.Spec, c.CM, c.Opts.Constraints, c.Opts.PlanConfig)
		ns, _ = timed("search.complete_space", func() error { s.CompleteSpace(u.e); return nil })
		pr.completeSpaceNs += ns
	}
	return pr, nil
}

// probeScaleout runs the partition search directly, with a compile
// callback that is timed, so the outer search's own time is its wall
// time minus the callback's. The compiler is warm after the first call
// for a model, as on the serving path.
func probeScaleout(ctx context.Context, c *t10.Compiler, m *graph.Model, chips int,
	pr *probeResult, timed func(string, func() error) (int64, error)) error {
	var inCallback time.Duration
	compiles := 0
	compile := func(sub *graph.Model) (any, float64, error) {
		t0 := time.Now()
		defer func() { inCallback += time.Since(t0); compiles++ }()
		exe, err := c.Compile(ctx, sub)
		if err != nil {
			return nil, 0, err
		}
		return exe, exe.Simulate().TotalNs, nil
	}
	cfg := scaleout.Config{NChips: chips}
	if _, err := scaleout.Search(m, c.Spec.Interconnect, cfg, compile); err != nil {
		return err // first call warms the plan cache
	}
	inCallback, compiles = 0, 0
	var res *scaleout.Result
	ns, err := timed("scaleout.search", func() error {
		var err error
		res, err = scaleout.Search(m, c.Spec.Interconnect, cfg, compile)
		return err
	})
	if err != nil {
		return err
	}
	pr.sharded++
	pr.scaleoutSelfNs += ns - int64(inCallback)
	pr.enumerated += res.Enumerated
	pr.stageCompiles += compiles
	return nil
}
