package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/codegen"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/t10"
)

// The numeric oracle checks the compiler's plans by execution,
// independently of the compiler's own cost model and of the reference
// compiles: a seeded set of small operators is searched on a 64-core
// IPU-MK2, and every Pareto plan the functional executor accepts must
// reproduce expr.EvalRef exactly. Inputs are small integers, so every
// partial sum is exact in float32 whatever the accumulation order. The
// full 1472-core chip cannot serve: at that width the Pareto plans of
// small operators are padded, which the executor does not run, and
// larger operators make EvalRef too slow.

// oracleOps draws the oracle's operators: two each of matmul,
// batch-matmul, convolution and elementwise, every dimension ≤ 128 and
// highly divisible so that some Pareto plan needs no padding.
func oracleOps(seed int64) []*expr.Expr {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
	var out []*expr.Expr
	for i := 0; i < 2; i++ {
		out = append(out,
			expr.MatMul(fmt.Sprintf("mm%d", i), pick(32, 64, 128), pick(16, 32, 64, 128), pick(32, 64, 128), dtype.FP16),
			expr.BatchMatMul(fmt.Sprintf("bmm%d", i), pick(2, 4, 8), pick(16, 32, 64), pick(16, 32, 64), pick(16, 32, 64), dtype.FP16),
			expr.Conv2D(fmt.Sprintf("conv%d", i), 1, pick(8, 16, 32), pick(4, 8, 16), pick(8, 16), pick(8, 16), 3, 3, 1, dtype.FP16),
		)
	}
	out = append(out,
		expr.Elementwise("ew", pick(32, 64, 128), pick(32, 64, 128), 1, dtype.FP16),
		expr.EltwiseBinary("add", pick(32, 64, 128), pick(32, 64, 128), dtype.FP16),
	)
	return out
}

// oracleResult counts what the oracle executed.
type oracleResult struct {
	ops, plans, executed int
}

// runOracle searches each oracle operator and executes its Pareto
// plans. Any mismatch, or an operator without an executable plan, is an
// error.
func runOracle(seed int64) (oracleResult, error) {
	var res oracleResult
	opts := t10.DefaultOptions()
	opts.Workers = 1
	c, err := t10.New(device.IPUMK2().Subset(64), opts)
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, e := range oracleOps(seed) {
		sr, err := c.Search(context.Background(), e)
		if err != nil {
			return res, fmt.Errorf("oracle %s: %w", e.Name, err)
		}
		inputs := map[string][]float32{}
		for _, in := range e.Inputs {
			buf := make([]float32, e.TensorElems(in))
			for i := range buf {
				buf[i] = float32(rng.Intn(5) - 2)
			}
			inputs[in.Name] = buf
		}
		want, err := e.EvalRef(inputs)
		if err != nil {
			return res, fmt.Errorf("oracle %s: %w", e.Name, err)
		}
		executed := 0
		for i := range sr.Pareto {
			p := sr.Pareto[i].Plan
			got, err := codegen.Execute(p, inputs)
			if err != nil {
				continue // padded or otherwise not executable functionally
			}
			if len(got) != len(want) {
				return res, fmt.Errorf("oracle %s plan %v: %d outputs, want %d", e.Name, p.Fop, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					return res, fmt.Errorf("oracle %s plan %v: output[%d] = %v, want %v", e.Name, p.Fop, j, got[j], want[j])
				}
			}
			executed++
		}
		if executed == 0 {
			return res, fmt.Errorf("oracle %s: none of %d Pareto plans is executable", e.Name, len(sr.Pareto))
		}
		res.ops++
		res.plans += len(sr.Pareto)
		res.executed += executed
	}
	return res, nil
}
