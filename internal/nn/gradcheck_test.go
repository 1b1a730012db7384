package nn

import (
	"math"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// gradTol is one gradient-check setting: the central-difference step and
// the relative tolerance, whose denominator is floored at floor.
type gradTol struct{ eps, floor, tol float64 }

var (
	// tol64 checks float64 nets against a central difference.
	tol64 = gradTol{eps: 1e-5, floor: 1e-4, tol: 1e-4}
	// tol32 checks float32 nets against a central difference whose step
	// rises above float32 forward-pass rounding.
	tol32 = gradTol{eps: 1e-2, floor: 1e-2, tol: 5e-2}
	// tol32Vs64 checks a float32 analytic gradient against the float64
	// analytic gradient of its source.
	tol32Vs64 = gradTol{floor: 1e-3, tol: 5e-3}
)

// gradCase is one network of the gradient-check table. Every case runs at
// both dtypes (see runGradCase).
type gradCase struct {
	seed       uint64
	net        func(r *rng.Rng) *Sequential
	batch, dim int
	labels     []int
	// kinked marks stacks with ReLU or max-pool kinks, which a float32
	// central difference can straddle at its wide step.
	kinked bool
}

// gradCases is the union of the layer stacks the gradient checks cover.
var gradCases = map[string]gradCase{
	"Dense": {seed: 1, batch: 5, dim: 7, labels: []int{0, 1, 2, 3, 0},
		net: func(r *rng.Rng) *Sequential { return NewSequential(NewDense(7, 4, r)) }},
	"MLPReLU": {seed: 2, batch: 4, dim: 6, labels: []int{0, 1, 2, 1}, kinked: true,
		net: func(r *rng.Rng) *Sequential { return MLP(r, 6, 8, 3) }},
	"Tanh": {seed: 3, batch: 3, dim: 5, labels: []int{2, 0, 1},
		net: func(r *rng.Rng) *Sequential { return NewSequential(NewDense(5, 6, r), NewTanh(6), NewDense(6, 3, r)) }},
	"Sigmoid": {seed: 10, batch: 3, dim: 5, labels: []int{2, 0, 1},
		net: func(r *rng.Rng) *Sequential {
			return NewSequential(NewDense(5, 6, r), NewSigmoid(6), NewDense(6, 3, r))
		}},
	"Conv": {seed: 4, batch: 2, dim: 2 * 6 * 6, labels: []int{0, 2}, kinked: true,
		net: func(r *rng.Rng) *Sequential {
			conv := NewConv2D(tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, r)
			return NewSequential(conv, NewReLU(conv.OutDim()), NewDense(conv.OutDim(), 3, r))
		}},
	"ConvReLU": {seed: 45, batch: 2, dim: 2 * 6 * 6, labels: []int{0, 2}, kinked: true,
		net: func(r *rng.Rng) *Sequential {
			conv := NewConv2D(tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, r)
			return NewSequential(conv, NewReLU(conv.OutDim()), NewDense(conv.OutDim(), 3, r))
		}},
	// No ReLU: the smooth stack gives Conv2D's backward a numerical
	// check of its own at float32.
	"ConvSmooth": {seed: 45, batch: 2, dim: 2 * 6 * 6, labels: []int{0, 2},
		net: func(r *rng.Rng) *Sequential {
			conv := NewConv2D(tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, r)
			return NewSequential(conv, NewDense(conv.OutDim(), 3, r))
		}},
	"ConvStride2NoPad": {seed: 5, batch: 2, dim: 64, labels: []int{0, 1},
		net: func(r *rng.Rng) *Sequential {
			conv := NewConv2D(tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 0}, 2, r)
			return NewSequential(conv, NewDense(conv.OutDim(), 2, r))
		}},
	"MaxPool": {seed: 6, batch: 3, dim: 32, labels: []int{0, 1, 2}, kinked: true,
		net: func(r *rng.Rng) *Sequential {
			pool := NewMaxPool2(2, 4, 4)
			return NewSequential(pool, NewDense(pool.OutDim(), 3, r))
		}},
	"ConvPoolStack": {seed: 7, batch: 2, dim: 64, labels: []int{3, 1}, kinked: true,
		net: func(r *rng.Rng) *Sequential { return convPoolStack(r, 4) }},
	"MaxPoolStack": {seed: 46, batch: 2, dim: 64, labels: []int{1, 2}, kinked: true,
		net: func(r *rng.Rng) *Sequential { return convPoolStack(r, 3) }},
	"AvgPool": {seed: 9, batch: 3, dim: 32, labels: []int{0, 1, 2},
		net: func(r *rng.Rng) *Sequential {
			pool := NewAvgPool2(2, 4, 4)
			return NewSequential(pool, NewDense(pool.OutDim(), 3, r))
		}},
	"AvgPoolSigmoid": {seed: 47, batch: 3, dim: 36, labels: []int{0, 1, 0},
		net: func(r *rng.Rng) *Sequential {
			pool := NewAvgPool2(1, 6, 6)
			return NewSequential(pool, NewSigmoid(pool.OutDim()), NewDense(pool.OutDim(), 2, r))
		}},
	// The 1989-style stack: conv → tanh → average pool.
	"ClassicLeNetStack": {seed: 11, batch: 2, dim: 64, labels: []int{1, 2},
		net: func(r *rng.Rng) *Sequential {
			conv := NewConv2D(tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2, r)
			pool := NewAvgPool2(2, 8, 8)
			return NewSequential(conv, NewTanh(conv.OutDim()), pool, NewDense(pool.OutDim(), 3, r))
		}},
	// A narrow LeNet-5 on a 12x12 single-channel input exercises the full
	// Table-I architecture end to end.
	"LeNetTiny": {seed: 8, batch: 2, dim: 144, labels: []int{0, 2}, kinked: true,
		net: func(r *rng.Rng) *Sequential { return LeNet5(r, 1, 12, 12, 3, 0.25) }},
}

// convPoolStack is conv → relu → max-pool → dense on an 8×8 image.
func convPoolStack(r *rng.Rng, classes int) *Sequential {
	conv := NewConv2D(tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2, r)
	pool := NewMaxPool2(2, 8, 8)
	return NewSequential(conv, NewReLU(conv.OutDim()), pool, NewDense(pool.OutDim(), classes, r))
}

// runGradCase checks one case at both dtypes: the float64 net against a
// central difference, and its float32 mirror against a central
// difference too — or, for kinked stacks, against the float64 analytic
// gradient, which the float64 subtest pins in turn.
func runGradCase(t *testing.T, name string) {
	c, ok := gradCases[name]
	if !ok {
		t.Fatalf("no gradient case %q", name)
	}
	r := rng.New(c.seed)
	net := c.net(r)
	x := randInput(r, c.batch, c.dim)
	t.Run("float64", func(t *testing.T) { checkGradients(t, net, x, c.labels) })
	t.Run("float32", func(t *testing.T) {
		m := Mirror[float32](net)
		if m == nil {
			t.Fatalf("Mirror returned nil for %v", net)
		}
		CopyParams(m, net)
		x32 := tensor.New32(x.Shape...)
		for i, v := range x.Data {
			x32.Data[i] = float32(v)
		}
		if c.kinked {
			compareGrads(t, analyticGrad(m, x32, c.labels), analyticGrad(net, x, c.labels), tol32Vs64)
			return
		}
		checkNumerical(t, m, x32, c.labels, tol32)
	})
}

// The gradient checks, one per case. The TestGradCheck32 names are
// historical; every case runs at both dtypes.

func TestGradCheckDense(t *testing.T)            { runGradCase(t, "Dense") }
func TestGradCheckMLPReLU(t *testing.T)          { runGradCase(t, "MLPReLU") }
func TestGradCheckTanh(t *testing.T)             { runGradCase(t, "Tanh") }
func TestGradCheckSigmoid(t *testing.T)          { runGradCase(t, "Sigmoid") }
func TestGradCheckConv(t *testing.T)             { runGradCase(t, "Conv") }
func TestGradCheck32ConvReLU(t *testing.T)       { runGradCase(t, "ConvReLU") }
func TestGradCheck32ConvSmooth(t *testing.T)     { runGradCase(t, "ConvSmooth") }
func TestGradCheckConvStride2NoPad(t *testing.T) { runGradCase(t, "ConvStride2NoPad") }
func TestGradCheckMaxPool(t *testing.T)          { runGradCase(t, "MaxPool") }
func TestGradCheckConvPoolStack(t *testing.T)    { runGradCase(t, "ConvPoolStack") }
func TestGradCheck32MaxPoolStack(t *testing.T)   { runGradCase(t, "MaxPoolStack") }
func TestGradCheckAvgPool(t *testing.T)          { runGradCase(t, "AvgPool") }
func TestGradCheck32AvgPoolSigmoid(t *testing.T) { runGradCase(t, "AvgPoolSigmoid") }
func TestGradCheckClassicLeNetStack(t *testing.T) {
	runGradCase(t, "ClassicLeNetStack")
}
func TestGradCheckLeNetTiny(t *testing.T) { runGradCase(t, "LeNetTiny") }

// numericalGrad estimates dLoss/dTheta for every parameter of net by
// central finite differences, where the loss is softmax CE on (x,
// labels). The loss head reports in float64 at either dtype.
func numericalGrad[T tensor.Float](net *SequentialOf[T], x *tensor.TensorOf[T], labels []int, eps T) []float64 {
	var ce SoftmaxCEOf[T]
	lossAt := func() float64 {
		loss, _, _ := ce.Loss(net.Forward(x, false), labels)
		return loss
	}
	var grads []float64
	for _, p := range net.Params() {
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp := lossAt()
			p.Data[i] = orig - eps
			lm := lossAt()
			p.Data[i] = orig
			grads = append(grads, (lp-lm)/(2*float64(eps)))
		}
	}
	return grads
}

// analyticGrad runs one forward/backward pass and returns the flat
// parameter gradient, widened to float64.
func analyticGrad[T tensor.Float](net *SequentialOf[T], x *tensor.TensorOf[T], labels []int) []float64 {
	var ce SoftmaxCEOf[T]
	net.ZeroGrads()
	logits := net.Forward(x, true)
	_, grad, _ := ce.Loss(logits, labels)
	net.Backward(grad)
	var out []float64
	for _, g := range net.Grads() {
		for _, v := range g.Data {
			out = append(out, float64(v))
		}
	}
	return out
}

// checkNumerical compares net's analytic gradient with a central
// difference under tol.
func checkNumerical[T tensor.Float](t *testing.T, net *SequentialOf[T], x *tensor.TensorOf[T], labels []int, tol gradTol) {
	t.Helper()
	compareGrads(t, analyticGrad(net, x, labels), numericalGrad(net, x, labels, T(tol.eps)), tol)
}

// checkGradients is checkNumerical for a float64 net at tol64.
func checkGradients(t *testing.T, net *Sequential, x *tensor.Tensor, labels []int) {
	t.Helper()
	checkNumerical(t, net, x, labels, tol64)
}

// compareGrads fails unless got and want agree elementwise to tol.
func compareGrads(t *testing.T, got, want []float64, tol gradTol) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("gradient length mismatch: %d vs %d", len(got), len(want))
	}
	for i := range got {
		scale := math.Max(tol.floor, math.Abs(got[i])+math.Abs(want[i]))
		if math.Abs(got[i]-want[i])/scale > tol.tol {
			t.Fatalf("gradient %d mismatch: got %.6g, want %.6g", i, got[i], want[i])
		}
	}
}

func randInput(r *rng.Rng, batch, dim int) *tensor.Tensor {
	x := tensor.New(batch, dim)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	return x
}
