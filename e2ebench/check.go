package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/search"
	"repro/t10"
)

// The output check compares every request's result with a reference
// compiled in-process on the sequential Workers=1 path. Plans are
// bit-identical at every worker width, so any difference is a wrong
// output. Search counters are not compared: above Workers=1 they depend
// on scheduling.

// planView is one operator of a compiled model as the output check sees
// it. The first block is what t10serve's /compile response carries
// (the same fields, computed the same way); the in-process check adds
// the rest of the plan digest.
type planView struct {
	Name     string  `json:"name"`
	Repeat   int     `json:"repeat"`
	Fop      []int   `json:"fop"`
	Steps    int     `json:"steps"`
	ActiveKB float64 `json:"active_kb"`
	IdleKB   float64 `json:"idle_kb"`
	EstUs    float64 `json:"est_us"`
	SetupUs  float64 `json:"setup_us"`

	SubLen     []int   `json:"sub_len,omitempty"`
	LoopOrder  []int   `json:"loop_order,omitempty"`
	IdleFop    []int   `json:"idle_fop,omitempty"`
	IdleSubLen []int   `json:"idle_sub_len,omitempty"`
	ActiveNs   float64 `json:"active_ns,omitempty"`
}

// shardView is one pipeline stage of a sharded compile.
type shardView struct {
	Stage      int     `json:"stage"`
	StartOp    int     `json:"start_op"`
	EndOp      int     `json:"end_op"`
	Ops        int     `json:"ops"`
	Split      int     `json:"split"`
	IdleMemPct float64 `json:"idle_mem_pct"`
	GatherUs   float64 `json:"gather_us,omitempty"`
	LatencyMs  float64 `json:"latency_ms,omitempty"`
}

// paretoView is one Pareto plan of a single-operator search.
type paretoView struct {
	Fop     []int   `json:"fop"`
	Steps   int     `json:"steps"`
	MemKB   float64 `json:"mem_kb"`
	EstUs   float64 `json:"est_us"`
	ShiftKB float64 `json:"shift_kb"`
}

// outputView is the checked output of one request.
type outputView struct {
	Ops          int          `json:"ops,omitempty"`
	IdleMemPct   float64      `json:"idle_mem_pct,omitempty"`
	LatencyMs    float64      `json:"latency_ms,omitempty"`
	Plans        []planView   `json:"plans,omitempty"`
	Chips        int          `json:"chips,omitempty"`
	Microbatches int          `json:"microbatches,omitempty"`
	Shards       []shardView  `json:"shards,omitempty"`
	TransferMs   float64      `json:"transfer_ms,omitempty"`
	BubbleMs     float64      `json:"bubble_ms,omitempty"`
	Pareto       []paretoView `json:"pareto,omitempty"`
}

// digest is the canonical form of an output: two outputs are equal
// exactly when their digests are.
func (v *outputView) digest() string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// modelView renders a compiled model. full adds the in-process plan
// digest fields that the served response does not carry.
func modelView(exe *t10.Executable, full bool) outputView {
	spec := exe.Spec
	v := outputView{
		Ops:        len(exe.Model.Ops),
		IdleMemPct: 100 * float64(exe.Schedule.IdleMemPerCore) / float64(spec.CoreMemBytes),
	}
	for i := range exe.Model.Ops {
		op := &exe.Model.Ops[i]
		asg := &exe.Schedule.Assignments[i]
		rep := op.Repeat
		if rep <= 0 {
			rep = 1
		}
		p := planView{
			Name:     op.Name,
			Repeat:   rep,
			Fop:      asg.Active.Plan.Fop,
			Steps:    asg.Active.Plan.TotalSteps,
			ActiveKB: float64(asg.Active.Est.MemPerCore) / 1024,
			IdleKB:   float64(asg.IdleMemPerCore) / 1024,
			EstUs:    asg.ExecNs / 1e3,
			SetupUs:  asg.SetupNs / 1e3,
		}
		if full {
			p.SubLen = asg.Active.Plan.SubLen
			p.LoopOrder = asg.Active.Plan.LoopOrder
			p.IdleFop = asg.Idle.Plan.Fop
			p.IdleSubLen = asg.Idle.Plan.SubLen
			p.ActiveNs = asg.Active.Est.TotalNs
		}
		v.Plans = append(v.Plans, p)
	}
	return v
}

// shardedView renders a sharded compile; with simulate it carries the
// simulated latencies, as the served response does.
func shardedView(se *t10.ShardedExecutable, simulate, full bool) outputView {
	part := se.Partition
	v := outputView{Ops: len(se.Model.Ops), Chips: part.Chips, Microbatches: part.Microbatches}
	var rep *t10.ShardedReport
	if simulate {
		rep = se.Simulate()
		v.LatencyMs = rep.LatencyMs()
		v.TransferMs = rep.TransferNs / 1e6
		v.BubbleMs = rep.BubbleNs / 1e6
	}
	for i := range part.Stages {
		st := &part.Stages[i]
		sv := shardView{
			Stage: i, StartOp: st.Start, EndOp: st.End, Ops: st.End - st.Start, Split: st.Split,
			IdleMemPct: 100 * float64(se.Stages[i].Schedule.IdleMemPerCore) / float64(se.Spec.CoreMemBytes),
			GatherUs:   st.GatherNs / 1e3,
		}
		if rep != nil {
			sv.LatencyMs = rep.Stages[i].TotalNs / 1e6
		}
		v.Shards = append(v.Shards, sv)
		v.IdleMemPct = math.Max(v.IdleMemPct, sv.IdleMemPct)
		if full {
			v.Plans = append(v.Plans, modelView(se.Stages[i], true).Plans...)
		}
	}
	return v
}

// opView renders a single-operator search result.
func opView(r *search.Result) outputView {
	var v outputView
	for i := range r.Pareto {
		c := &r.Pareto[i]
		v.Pareto = append(v.Pareto, paretoView{
			Fop:     c.Plan.Fop,
			Steps:   c.Plan.TotalSteps,
			MemKB:   float64(c.Est.MemPerCore) / 1024,
			EstUs:   c.Est.TotalNs / 1e3,
			ShiftKB: float64(c.Est.ShiftBytesPerCore) / 1024,
		})
	}
	return v
}

// opExpr builds the matmul a single-op request names, as t10serve does
// (name "mm", fp16).
func opExpr(r request) *expr.Expr {
	return expr.MatMul("mm", r.M, r.K, r.N, dtype.FP16)
}

// buildModel builds a request's model.
func buildModel(r request) (*graph.Model, error) {
	return models.Build(r.Model, r.Batch)
}

// newCompiler builds a compiler on the IPU-MK2 the workloads target.
func newCompiler(workers int, fusion bool, cacheDir string) (*t10.Compiler, error) {
	opts := t10.DefaultOptions()
	opts.Workers = workers
	opts.CacheDir = cacheDir
	if cacheDir != "" {
		opts.CacheSalt = []byte(cacheSalt)
	}
	var copts []t10.CompilerOption
	if fusion {
		copts = append(copts, t10.WithFusion(graph.DefaultRules()))
	}
	return t10.New(device.IPUMK2(), opts, copts...)
}

// cacheSalt seals the restart-disk workload's plan records, as a
// deployment's -cache-salt does.
const cacheSalt = "e2ebench-restart-disk"

// reference is the expected output of one distinct request.
type reference struct {
	view   outputView // served form (what t10serve returns)
	digest string     // in-process form, full plan digest
	planNs float64    // simulated latency of the selected plans (ns)
}

// references compiles every distinct request in-process at Workers=1.
// Two compilers work in parallel on disjoint halves of the list; each
// is the sequential reference path, and the plans do not depend on how
// requests are split between them.
func references(reqs []request) (map[string]*reference, error) {
	out := make(map[string]*reference, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			comps := map[bool]*t10.Compiler{}
			for i := w; i < len(reqs); i += 2 {
				r := reqs[i]
				c := comps[r.Fusion]
				if c == nil {
					var err error
					if c, err = newCompiler(1, r.Fusion, ""); err != nil {
						errs[w] = err
						return
					}
					comps[r.Fusion] = c
				}
				ref, err := compileReference(c, r)
				if err != nil {
					errs[w] = fmt.Errorf("reference %s: %w", r.key(), err)
					return
				}
				mu.Lock()
				out[r.key()] = ref
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compileReference compiles one request on c.
func compileReference(c *t10.Compiler, r request) (*reference, error) {
	ctx := context.Background()
	switch r.Kind {
	case kindModel:
		m, err := buildModel(r)
		if err != nil {
			return nil, err
		}
		exe, err := c.Compile(ctx, m)
		if err != nil {
			return nil, err
		}
		rep := exe.Simulate()
		v := modelView(exe, false)
		if r.Simulate {
			v.LatencyMs = rep.LatencyMs()
		}
		full := modelView(exe, true)
		full.LatencyMs = rep.LatencyMs()
		return &reference{view: v, digest: full.digest(), planNs: rep.TotalNs}, nil
	case kindSharded:
		m, err := buildModel(r)
		if err != nil {
			return nil, err
		}
		se, err := c.CompileSharded(ctx, m, r.Chips)
		if err != nil {
			return nil, err
		}
		full := shardedView(se, true, true)
		return &reference{
			view:   shardedView(se, r.Simulate, false),
			digest: full.digest(),
			planNs: full.LatencyMs * 1e6,
		}, nil
	case kindOp:
		res, err := c.Search(ctx, opExpr(r))
		if err != nil {
			return nil, err
		}
		v := opView(res)
		best := res.FastestWithin(int64(c.Spec.CoreMemBytes))
		if best == nil {
			return nil, fmt.Errorf("no Pareto plan fits a core")
		}
		return &reference{view: v, digest: v.digest(), planNs: best.Est.TotalNs}, nil
	}
	return nil, fmt.Errorf("no reference for %s requests", r.Kind)
}

// inProcessDigest renders what an in-process request produced, in the
// form compileReference digests.
func inProcessDigest(r request, out any) string {
	switch v := out.(type) {
	case *t10.Executable:
		full := modelView(v, true)
		full.LatencyMs = v.Simulate().LatencyMs()
		return full.digest()
	case *t10.ShardedExecutable:
		full := shardedView(v, true, true)
		return full.digest()
	}
	panic(fmt.Sprintf("no digest for %T", out))
}

// geomeanMs is the geometric mean of the references' simulated plan
// latencies, in milliseconds, over the given distinct keys.
func geomeanMs(refs map[string]*reference, keys []string) float64 {
	var sum float64
	n := 0
	for _, k := range keys {
		if ref, ok := refs[k]; ok {
			sum += math.Log(ref.planNs / 1e6)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
