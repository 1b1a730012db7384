package nn

import (
	"fmt"
	"math"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// ReLUOf is the rectified linear activation, applied elementwise.
type ReLUOf[T tensor.Float] struct {
	dim     int
	mask    []bool
	out, gx ws[T]
}

// ReLU is the float64 rectified linear activation.
type ReLU = ReLUOf[float64]

// NewReLU builds a ReLU over dim features.
func NewReLU(dim int) *ReLU { return &ReLU{dim: dim} }

// Name implements Layer.
func (r *ReLUOf[T]) Name() string { return fmt.Sprintf("relu(%d)", r.dim) }

// OutDim implements Layer.
func (r *ReLUOf[T]) OutDim() int { return r.dim }

// Forward implements Layer.
func (r *ReLUOf[T]) Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	checkBatchInput(r, "", x, r.dim)
	out := r.out.get(x.Shape[0], x.Shape[1])
	r.mask = growBools(r.mask, len(x.Data))
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			r.mask[i] = true
		} else {
			out.Data[i] = 0
			r.mask[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLUOf[T]) Backward(gradOut *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	if r.mask == nil {
		panic("nn: ReLU.Backward called before Forward")
	}
	gx := r.gx.get(gradOut.Shape[0], gradOut.Shape[1])
	for i, v := range gradOut.Data {
		if r.mask[i] {
			gx.Data[i] = v
		} else {
			gx.Data[i] = 0
		}
	}
	return gx
}

// Params implements Layer (none).
func (r *ReLUOf[T]) Params() []*tensor.TensorOf[T] { return nil }

// Grads implements Layer (none).
func (r *ReLUOf[T]) Grads() []*tensor.TensorOf[T] { return nil }

// TanhOf is the hyperbolic tangent activation (LeNet-5's classic
// nonlinearity), applied elementwise. The transcendental is evaluated in
// float64 and rounded once to T.
type TanhOf[T tensor.Float] struct {
	dim     int
	y       *tensor.TensorOf[T]
	out, gx ws[T]
}

// Tanh is the float64 hyperbolic tangent activation.
type Tanh = TanhOf[float64]

// NewTanh builds a Tanh over dim features.
func NewTanh(dim int) *Tanh { return &Tanh{dim: dim} }

// Name implements Layer.
func (t *TanhOf[T]) Name() string { return fmt.Sprintf("tanh(%d)", t.dim) }

// OutDim implements Layer.
func (t *TanhOf[T]) OutDim() int { return t.dim }

// Forward implements Layer.
func (t *TanhOf[T]) Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	checkBatchInput(t, "", x, t.dim)
	out := t.out.get(x.Shape[0], x.Shape[1])
	for i, v := range x.Data {
		out.Data[i] = T(math.Tanh(float64(v)))
	}
	t.y = out
	return out
}

// Backward implements Layer: d tanh = 1 - tanh².
func (t *TanhOf[T]) Backward(gradOut *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	if t.y == nil {
		panic("nn: Tanh.Backward called before Forward")
	}
	gx := t.gx.get(gradOut.Shape[0], gradOut.Shape[1])
	for i, v := range gradOut.Data {
		y := t.y.Data[i]
		gx.Data[i] = v * (1 - y*y)
	}
	return gx
}

// Params implements Layer (none).
func (t *TanhOf[T]) Params() []*tensor.TensorOf[T] { return nil }

// Grads implements Layer (none).
func (t *TanhOf[T]) Grads() []*tensor.TensorOf[T] { return nil }

// DropoutOf zeroes activations with probability P during training and
// rescales the survivors by 1/(1-P) (inverted dropout); it is the identity
// at evaluation time.
//
// Dropout implements StepSeeded: its mask stream should be rebased from
// the training step's RNG (fl local training does this through
// Sequential.SeedStep), so its behaviour depends only on the (client,
// round) stream, not on how many times the model instance was used
// before — the property pooled model reuse relies on (DESIGN.md §5,
// model-pool invariant 3). The constructor stream is only a fallback for
// standalone use. Every element consumes exactly one r.Float64() draw, so
// a mirrored shadow sees the same masks as its float64 source.
type DropoutOf[T tensor.Float] struct {
	dim     int
	P       float64
	rng     *rng.Rng
	mask    []bool
	active  bool // true when the last Forward was a training pass
	out, gx ws[T]
}

// Dropout is the float64 inverted dropout.
type Dropout = DropoutOf[float64]

// NewDropout builds a Dropout layer with drop probability p in [0, 1).
func NewDropout(dim int, p float64, r *rng.Rng) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: Dropout probability %v out of [0,1)", p))
	}
	return &Dropout{dim: dim, P: p, rng: r}
}

// Name implements Layer.
func (d *DropoutOf[T]) Name() string { return fmt.Sprintf("dropout(%.2f)", d.P) }

// OutDim implements Layer.
func (d *DropoutOf[T]) OutDim() int { return d.dim }

// SeedStep implements StepSeeded: subsequent masks are drawn from r.
func (d *DropoutOf[T]) SeedStep(r *rng.Rng) { d.rng = r }

// Forward implements Layer.
func (d *DropoutOf[T]) Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	checkBatchInput(d, "", x, d.dim)
	if !train || d.P == 0 {
		d.active = false
		return x
	}
	out := d.out.get(x.Shape[0], x.Shape[1])
	d.mask = growBools(d.mask, len(x.Data))
	d.active = true
	scale := T(1 / (1 - d.P))
	for i, v := range x.Data {
		if d.rng.Float64() >= d.P {
			d.mask[i] = true
			out.Data[i] = v * scale
		} else {
			d.mask[i] = false
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (d *DropoutOf[T]) Backward(gradOut *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	if !d.active {
		return gradOut // eval-mode identity
	}
	gx := d.gx.get(gradOut.Shape[0], gradOut.Shape[1])
	scale := T(1 / (1 - d.P))
	for i, v := range gradOut.Data {
		if d.mask[i] {
			gx.Data[i] = v * scale
		} else {
			gx.Data[i] = 0
		}
	}
	return gx
}

// Params implements Layer (none).
func (d *DropoutOf[T]) Params() []*tensor.TensorOf[T] { return nil }

// Grads implements Layer (none).
func (d *DropoutOf[T]) Grads() []*tensor.TensorOf[T] { return nil }
