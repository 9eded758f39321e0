package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
)

// randFts draws a temporal-factor assignment that is valid often enough
// to exercise both outcomes: roughly half the draws hit a NewPlan error
// (non-divisor products, factors on compound or strided dims, factors on
// the output).
func randFts(rng *rand.Rand, e *expr.Expr) [][]int {
	tensors := e.Tensors()
	if rng.Intn(8) == 0 {
		return nil
	}
	fts := make([][]int, len(tensors))
	vals := []int{1, 1, 1, 2, 2, 3, 4, 6, 8}
	for ti, tr := range tensors {
		switch rng.Intn(4) {
		case 0:
			continue // nil: no temporal factors
		case 1:
			if ti == len(tensors)-1 {
				continue
			}
		}
		ft := make([]int, len(tr.Dims))
		for d := range ft {
			ft[d] = vals[rng.Intn(len(vals))]
		}
		fts[ti] = ft
	}
	return fts
}

// TestSketchMatchesNewPlan is the pruning-safety contract: over random
// (Fop, fts) candidates — valid and invalid — the sketch must agree with
// NewPlan on validity, agree exactly on per-core memory, and never bound
// above the full estimate.
func TestSketchMatchesNewPlan(t *testing.T) {
	checkSketchMatchesNewPlan(t, newTestCostModel(t))
}

// checkSketchMatchesNewPlan is the sketch contract under one device's
// cost model.
func checkSketchMatchesNewPlan(t *testing.T, cm *costmodel.Set) {
	cfg := DefaultConfig()
	ops := []*expr.Expr{
		expr.MatMul("mm", 96, 48, 64, dtype.FP16),
		expr.MatMul("mm-odd", 97, 53, 64, dtype.FP32),
		expr.Conv2D("conv", 4, 8, 8, 12, 12, 3, 3, 1, dtype.FP16),
		expr.Conv2D("conv-s2", 2, 8, 8, 12, 12, 3, 3, 2, dtype.FP16),
		expr.GatherOp("emb", 64, 500, 32, dtype.FP16),
		expr.ReduceSum("sum", 64, 96, dtype.FP16),
		expr.Pool2D("pool", 4, 8, 12, 12, 2, 2, 2, dtype.FP16),
	}
	rng := rand.New(rand.NewSource(42))
	valid, invalid := 0, 0
	for _, e := range ops {
		ps := NewPlanSketch(e, cfg)
		pred := cm.Resolve(e.Name, e.Kind)
		fop := make([]int, len(e.Axes))
		for iter := 0; iter < 3000; iter++ {
			for a, ax := range e.Axes {
				// mostly divisors and small factors, occasionally wild
				switch rng.Intn(3) {
				case 0:
					fop[a] = 1
				case 1:
					fop[a] = 1 + rng.Intn(ax.Size)
				default:
					fop[a] = []int{1, 2, 3, 4, 8}[rng.Intn(5)]
				}
			}
			fts := randFts(rng, e)
			ok := ps.Compute(fop, fts)
			p, err := NewPlan(e, fop, fts, cfg)
			if ok != (err == nil) {
				t.Fatalf("%s: sketch ok=%t but NewPlan err=%v (fop=%v fts=%v)",
					e.Name, ok, err, fop, fts)
			}
			if !ok {
				invalid++
				continue
			}
			valid++
			if ps.MemPerCore != p.MemPerCore() {
				t.Fatalf("%s: sketch mem %d != plan mem %d (fop=%v fts=%v)",
					e.Name, ps.MemPerCore, p.MemPerCore(), fop, fts)
			}
			if ps.Cores != p.Cores || ps.TotalSteps != p.TotalSteps {
				t.Fatalf("%s: sketch cores/steps %d/%d != plan %d/%d",
					e.Name, ps.Cores, ps.TotalSteps, p.Cores, p.TotalSteps)
			}
			if !reflect.DeepEqual(ps.SubLen, p.SubLen) {
				t.Fatalf("%s: sketch SubLen %v != plan %v (fop=%v fts=%v)",
					e.Name, ps.SubLen, p.SubLen, fop, fts)
			}
			lb := ps.LowerBoundNs(cm.Spec, pred)
			est := p.EstimateWith(cm.Spec, pred)
			if lb > est.TotalNs {
				t.Fatalf("%s: lower bound %g exceeds estimate %g (fop=%v fts=%v)",
					e.Name, lb, est.TotalNs, fop, fts)
			}
		}
	}
	if valid < 1000 || invalid < 1000 {
		t.Fatalf("generator imbalance: %d valid, %d invalid — property undertested", valid, invalid)
	}
}

// TestPartialBoundsAreAdmissible is the subtree-pruning safety
// contract: over random (Fop, fts) candidates, fixing the temporal
// factors one tensor at a time, every prefix's PartialMemLB and
// PartialTimeLB must bound the completed plan's exact memory and full
// estimate from below — and a Fix that rejects a prefix implies NewPlan
// rejects the completion.
func TestPartialBoundsAreAdmissible(t *testing.T) {
	checkPartialBoundsAreAdmissible(t, newTestCostModel(t))
}

// checkPartialBoundsAreAdmissible is the subtree-bound contract under
// one device's cost model.
func checkPartialBoundsAreAdmissible(t *testing.T, cm *costmodel.Set) {
	cfg := DefaultConfig()
	ops := []*expr.Expr{
		expr.MatMul("mm", 96, 48, 64, dtype.FP16),
		expr.MatMul("mm-odd", 97, 53, 64, dtype.FP32),
		expr.Conv2D("conv", 4, 8, 8, 12, 12, 3, 3, 1, dtype.FP16),
		expr.GatherOp("emb", 64, 500, 32, dtype.FP16),
		expr.ReduceSum("sum", 64, 96, dtype.FP16),
		expr.Pool2D("pool", 4, 8, 12, 12, 2, 2, 2, dtype.FP16),
	}
	rng := rand.New(rand.NewSource(7))
	checked, rejected, floored := 0, 0, 0
	for _, e := range ops {
		ps := NewPlanSketch(e, cfg)
		pred := cm.Resolve(e.Name, e.Kind)
		tensors := e.Tensors()
		fop := make([]int, len(e.Axes))
		for iter := 0; iter < 2000; iter++ {
			for a, ax := range e.Axes {
				switch rng.Intn(3) {
				case 0:
					fop[a] = 1
				case 1:
					fop[a] = 1 + rng.Intn(ax.Size)
				default:
					fop[a] = []int{1, 2, 3, 4, 8}[rng.Intn(5)]
				}
			}
			fts := randFts(rng, e)
			// the per-tensor split each completion actually uses, for the
			// remaining-footprint term
			splits := make([]int, len(tensors))
			for ti := range tensors {
				splits[ti] = 1
				if fts != nil && fts[ti] != nil {
					for _, f := range fts[ti] {
						splits[ti] *= f
					}
				}
			}
			p, planErr := NewPlan(e, fop, fts, cfg)
			if !ps.Begin(fop) {
				if planErr == nil {
					t.Fatalf("%s: Begin rejected the fop of a NewPlan-valid candidate %v", e.Name, fop)
				}
				rejected++
				continue
			}

			// per-step compute floor: admissible against any caps that
			// cover every tensor's actual factors in the completion
			perStep := 0.0
			if costmodel.IsMonotone(pred) {
				caps := make([]int, len(e.Axes))
				for a := range caps {
					caps[a] = 1
				}
				for tj := range tensors {
					if fts == nil || fts[tj] == nil {
						continue
					}
					for d, f := range fts[tj] {
						dim := tensors[tj].Dims[d]
						if f > 1 && !dim.Compound() && dim.Terms[0].Stride == 1 {
							if a := dim.Terms[0].Axis; f > caps[a] {
								caps[a] = f
							}
						}
					}
				}
				perStep = pred.Predict(ps.ComputeFloorTask(caps))
			}

			fixedAll := true
			var memLBs []int64
			var timeLBs []float64
			for ti := range tensors {
				var ft []int
				if fts != nil {
					ft = fts[ti]
				}
				if !ps.Fix(ft) {
					fixedAll = false
					if planErr == nil {
						t.Fatalf("%s: Fix rejected tensor %d of a NewPlan-valid candidate (fop=%v fts=%v)",
							e.Name, ti, fop, fts)
					}
					break
				}
				var rest int64
				for tj := ti + 1; tj < len(tensors); tj++ {
					rest += ps.TensorMinBytes(tj, splits[tj])
				}
				memLBs = append(memLBs, ps.PartialMemLB(rest))
				timeLBs = append(timeLBs, ps.PartialTimeLB(cm.Spec, 0))
				if perStep > 0 {
					timeLBs = append(timeLBs, ps.PartialTimeLB(cm.Spec, perStep))
					floored++
				}
			}
			if !fixedAll {
				rejected++
				continue
			}
			if planErr != nil {
				continue // invalid for other reasons the prefix cannot see
			}
			checked++
			mem := p.MemPerCore()
			total := p.EstimateWith(cm.Spec, pred).TotalNs
			for d := range memLBs {
				if memLBs[d] > mem {
					t.Fatalf("%s: depth %d mem bound %d exceeds plan mem %d (fop=%v fts=%v)",
						e.Name, d, memLBs[d], mem, fop, fts)
				}
				if timeLBs[d] > total {
					t.Fatalf("%s: depth %d time bound %g exceeds estimate %g (fop=%v fts=%v)",
						e.Name, d, timeLBs[d], total, fop, fts)
				}
			}
		}
	}
	if checked < 500 || rejected < 500 {
		t.Fatalf("generator imbalance: %d checked, %d rejected — property undertested", checked, rejected)
	}
	if floored < 500 {
		t.Fatalf("only %d floored bounds exercised — the MonotoneLB compute floor is undertested", floored)
	}
}

// TestSketchContractsGenerations runs both sketch contracts under every
// other shipped device generation's fitted cost model: validity and
// memory do not depend on the device, but the time bounds read its link
// bandwidth, exchange startup and sync cost, and its predictor.
func TestSketchContractsGenerations(t *testing.T) {
	for _, spec := range device.Generations() {
		if spec.Name == device.IPUMK2().Name {
			continue // the MK2 tests above
		}
		t.Run(spec.Name, func(t *testing.T) {
			cm := costmodel.MustNewSet(spec)
			checkSketchMatchesNewPlan(t, cm)
			checkPartialBoundsAreAdmissible(t, cm)
		})
	}
}

// TestEstimateWithMatchesEstimate pins the pre-resolved-predictor path
// to the map-lookup path.
func TestEstimateWithMatchesEstimate(t *testing.T) {
	cm := newTestCostModel(t)
	e := expr.MatMul("mm", 128, 64, 64, dtype.FP16)
	p, err := NewPlan(e, []int{8, 1, 8}, [][]int{{1, 8}, {8, 1}, nil}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := p.Estimate(cm)
	b := p.EstimateWith(cm.Spec, cm.Resolve(e.Name, e.Kind))
	if a != b {
		t.Fatalf("Estimate %+v != EstimateWith %+v", a, b)
	}
}
