// Package core implements the paper's primary contribution: the rTensor
// abstraction (§4.1, Table 1) and compute-shift execution plans (§4.2).
//
// A plan partitions an operator spatially across cores with an operator
// partition factor Fop, derives each tensor's spatial partition factor
// f_s from the data dependences, splits shared sub-tensors into rotation
// rings with temporal partition factors f_t, and aligns all rotations
// with a per-axis rotating pace rp so that data tiles and computation
// meet on the right core at every step (Fig 7).
//
// Placement uses a skewed (generalized-Cannon) window assignment: the
// sub-task window start along axis a on a core is the sum over rotating
// tensors of partition-length × ring-position (Fig 10). A static
// validator proves every ring tiles its sub-tensor; internal/codegen
// additionally proves plans numerically correct on the functional
// simulator.
package core

import (
	"fmt"

	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/mathutil"
)

// RTensor is the distributed-tensor descriptor of Fig 5: how one tensor
// of an operator is partitioned, mapped and shifted across cores.
// Plan.Tensors holds one per Expr.Tensors() entry, in that order
// (inputs first, output last).
type RTensor struct {
	// Ref is the tensor in Plan.Expr itself, shared by every plan of the
	// operator (a cached Pareto set holds dozens of plans).
	Ref *expr.TensorRef

	// Fs is the spatial partition factor per dim (f_s, Table 1): the
	// product of Fop over the axes of each dim.
	Fs []int

	// Ft is the temporal partition factor per dim (f_t, Table 1).
	// Compound dims and outputs always have Ft = 1.
	Ft []int

	// RP is the rotating pace per dim in elements per step (rp, Table
	// 1); zero for non-rotating dims.
	RP []int

	// SubShape is the sub-tensor shape per dim, computed from the padded
	// per-axis sub-operator extents (compound dims carry their halo).
	SubShape []int

	// PartShape is the per-core partition shape: SubShape / Ft.
	PartShape []int

	// ShareP is the sharing degree P: the number of sub-operators that
	// need each sub-tensor (∏ Fop over the axes missing from the tensor).
	ShareP int

	// Rings is the number of rotation rings per sub-tensor: ShareP/∏Ft.
	// Rings > 1 replicates the sub-tensor (§4.2's memory/communication
	// trade-off).
	Rings int

	// Missing lists the axes (with Fop > 1) absent from this tensor, in
	// ascending order. The cores sharing a sub-tensor differ exactly in
	// these grid coordinates.
	Missing []int

	// RotDims lists the dims with Ft > 1, in ascending order.
	RotDims []int
}

// PartElems returns the per-core partition size in elements.
func (r *RTensor) PartElems() int64 {
	n := int64(1)
	for _, s := range r.PartShape {
		n *= int64(s)
	}
	return n
}

// PartBytes returns the per-core partition size in bytes.
func (r *RTensor) PartBytes() int64 {
	return r.PartElems() * int64(r.Ref.Elem.Size())
}

// SubElems returns the sub-tensor size in elements.
func (r *RTensor) SubElems() int64 {
	n := int64(1)
	for _, s := range r.SubShape {
		n *= int64(s)
	}
	return n
}

// SubBytes returns the sub-tensor size in bytes.
func (r *RTensor) SubBytes() int64 {
	return r.SubElems() * int64(r.Ref.Elem.Size())
}

// Rotates reports whether the tensor rotates at all.
func (r *RTensor) Rotates() bool { return len(r.RotDims) > 0 }

// FtProd returns ∏ Ft.
func (r *RTensor) FtProd() int { return mathutil.Prod(r.Ft...) }

// String summarizes the rTensor in the paper's notation.
func (r *RTensor) String() string {
	return fmt.Sprintf("%s{fs=%v ft=%v rp=%v part=%v share=%d rings=%d}",
		r.Ref.Name, r.Fs, r.Ft, r.RP, r.PartShape, r.ShareP, r.Rings)
}

// elemSize is a tiny helper so other files avoid importing dtype.
func elemSize(t dtype.Type) int64 { return int64(t.Size()) }
