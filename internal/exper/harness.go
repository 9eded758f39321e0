package exper

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/perf"
	"repro/internal/plancache"
	"repro/internal/vgm"
	"repro/t10"
)

// Harness owns the compilers and caches shared across experiments.
type Harness struct {
	Spec *device.Spec

	// Quick trims batch sweeps to keep full-suite runs fast; figures
	// still cover the min/mid/max batch of every model.
	Quick bool

	// planCache is shared by every compiler the harness builds: the
	// experiment suite re-compiles the same models across figures, and
	// fingerprints keep per-device results separate.
	planCache *plancache.Cache

	mu        sync.Mutex
	t10BySpec map[string]*t10.Compiler
	repCache  map[string]*perf.Report
}

// New builds a harness for the MK2 device.
func New() (*Harness, error) {
	h := &Harness{
		Spec:      device.IPUMK2(),
		planCache: plancache.New(plancache.Options{}),
		t10BySpec: make(map[string]*t10.Compiler),
		repCache:  make(map[string]*perf.Report),
	}
	if _, err := h.t10For(h.Spec); err != nil {
		return nil, err
	}
	return h, nil
}

// t10For returns (building if needed) the T10 compiler for a device.
func (h *Harness) t10For(spec *device.Spec) (*t10.Compiler, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c, ok := h.t10BySpec[spec.Name]; ok {
		return c, nil
	}
	opts := t10.DefaultOptions()
	opts.Cache = h.planCache
	c, err := t10.New(spec, opts)
	if err != nil {
		return nil, err
	}
	h.t10BySpec[spec.Name] = c
	return c, nil
}

// t10Exact returns the exact-space-accounting compiler for the search
// space figures: subtree pruning skips candidates without evaluating
// them, so Fig 17/18's Filtered column needs the no-prune engine (the
// selected plans are bit-identical; only the accounting differs). The
// shared cache keys pruned and exact results separately.
func (h *Harness) t10Exact(spec *device.Spec) (*t10.Compiler, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := "exact|" + spec.Name
	if c, ok := h.t10BySpec[key]; ok {
		return c, nil
	}
	opts := t10.DefaultOptions()
	opts.Cache = h.planCache
	opts.ExactSpaceAccounting = true
	c, err := t10.New(spec, opts)
	if err != nil {
		return nil, err
	}
	h.t10BySpec[key] = c
	return c, nil
}

// CacheStats snapshots the shared plan cache counters.
func (h *Harness) CacheStats() plancache.Stats { return h.planCache.Stats() }

// batches returns the evaluated batch sizes for one model, trimmed in
// quick mode.
func (h *Harness) batches(model string) []int {
	bs := models.Batches(model)
	if !h.Quick || len(bs) <= 3 {
		return bs
	}
	return []int{bs[0], bs[len(bs)/2], bs[len(bs)-1]}
}

// runT10 compiles and simulates a model on a device, caching by
// (device, model, batch). Infeasible configurations come back as
// reports with Infeasible set.
func (h *Harness) runT10(spec *device.Spec, model string, batch int) (*perf.Report, error) {
	key := fmt.Sprintf("t10|%s|%s|%d", spec.Name, model, batch)
	h.mu.Lock()
	if r, ok := h.repCache[key]; ok {
		h.mu.Unlock()
		return r, nil
	}
	h.mu.Unlock()
	c, err := h.t10For(spec)
	if err != nil {
		return nil, err
	}
	m, err := models.Build(model, batch)
	if err != nil {
		return nil, err
	}
	var rep *perf.Report
	exe, err := c.Compile(context.Background(), m)
	if err != nil {
		rep = &perf.Report{Model: model, Compiler: "T10", Infeasible: true, Reason: err.Error()}
	} else {
		rep = exe.Simulate()
	}
	h.mu.Lock()
	h.repCache[key] = rep
	h.mu.Unlock()
	return rep, nil
}

// runVGM compiles and simulates a model under one of the baselines.
func (h *Harness) runVGM(spec *device.Spec, kind vgm.Kind, model string, batch int) (*perf.Report, error) {
	key := fmt.Sprintf("%s|%s|%s|%d", kind, spec.Name, model, batch)
	h.mu.Lock()
	if r, ok := h.repCache[key]; ok {
		h.mu.Unlock()
		return r, nil
	}
	h.mu.Unlock()
	m, err := models.Build(model, batch)
	if err != nil {
		return nil, err
	}
	rep, err := vgm.New(kind, spec).CompileModel(m)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.repCache[key] = rep
	h.mu.Unlock()
	return rep, nil
}

// latencyCell renders a latency or the paper's ✖ mark.
func latencyCell(r *perf.Report) string {
	if r.Infeasible {
		return "✖"
	}
	return fmt.Sprintf("%.3f", r.LatencyMs())
}

// findOp locates the first op with the given name in a model.
func findOp(m *graph.Model, name string) int {
	for i := range m.Ops {
		if m.Ops[i].Name == name {
			return i
		}
	}
	return -1
}

// Experiments lists every runnable experiment name.
func Experiments() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// registry maps experiment names to their runners; populated by the
// fig_*.go files.
var registry = map[string]func(h *Harness) (*Table, error){}

// Run executes one experiment by name and renders it.
func (h *Harness) Run(name string, w io.Writer) error {
	fn, ok := registry[name]
	if !ok {
		return fmt.Errorf("exper: unknown experiment %q (have %v)", name, Experiments())
	}
	t, err := fn(h)
	if err != nil {
		return err
	}
	t.Render(w)
	return nil
}

// RunAll executes every experiment in name order.
func (h *Harness) RunAll(w io.Writer) error {
	for _, name := range Experiments() {
		if err := h.Run(name, w); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
