package nn

import (
	"math"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// TestMirror32ForwardMatchesFloat64 pins the per-layer divergence
// contract at the model level: an eval-mode forward pass of a mirrored
// LeNet stays within float32 rounding of the float64 reference.
func TestMirror32ForwardMatchesFloat64(t *testing.T) {
	r := rng.New(49)
	net := LeNet5(r, 1, 12, 12, 3, 0.5)
	m := Mirror[float32](net)
	if m == nil {
		t.Fatal("Mirror returned nil for LeNet5")
	}
	CopyParams(m, net)
	x := randInput(r, 4, 144)
	x32 := tensor.New32(x.Shape...)
	for i, v := range x.Data {
		x32.Data[i] = float32(v)
	}
	y64 := net.Forward(x, false)
	y32 := m.Forward(x32, false)
	if y32.Shape[0] != y64.Shape[0] || y32.Shape[1] != y64.Shape[1] {
		t.Fatalf("shape mismatch %v vs %v", y32.Shape, y64.Shape)
	}
	for i := range y64.Data {
		diff := math.Abs(float64(y32.Data[i]) - y64.Data[i])
		scale := math.Abs(y64.Data[i]) + 1
		if diff/scale > 1e-4 {
			t.Fatalf("logit %d diverges: f32 %g vs f64 %g", i, y32.Data[i], y64.Data[i])
		}
	}
}

// TestMirror64ForwardBitIdentical pins that Mirror rebuilds every layer
// kind faithfully: a float64 mirror computes exactly what its source
// does, forward and backward.
func TestMirror64ForwardBitIdentical(t *testing.T) {
	r := rng.New(51)
	conv := NewConv2D(tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2, r)
	net := NewSequential(conv, NewTanh(conv.OutDim()), NewAvgPool2(2, 8, 8),
		NewDense(32, 16, r), NewSigmoid(16), NewDropout(16, 0.25, r), NewReLU(16),
		NewDense(16, 8, r), NewMaxPool2(2, 2, 2), NewDense(2, 3, r))
	m := Mirror[float64](net)
	if m == nil {
		t.Fatal("Mirror returned nil")
	}
	CopyParams(m, net)
	x := randInput(r, 3, 64)
	labels := []int{0, 2, 1}
	net.SeedStep(rng.New(9))
	m.SeedStep(rng.New(9))
	want, got := analyticGrad(net, x, labels), analyticGrad(m, x, labels)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gradient %d: mirror %v, source %v", i, got[i], want[i])
		}
	}
}

// TestMirror32RoundTripParams pins that CopyParams float64 → float32 →
// float64 is the exact float32 rounding of the originals (widening is
// lossless), the property the zero-convert wire fast path relies on.
func TestMirror32RoundTripParams(t *testing.T) {
	r := rng.New(50)
	net := MLP(r, 6, 8, 3)
	m := Mirror[float32](net)
	CopyParams(m, net)
	clone := MLP(rng.New(50), 6, 8, 3)
	CopyParams(clone, m)
	cp, np := clone.Params(), net.Params()
	for i := range np {
		for j := range np[i].Data {
			want := float64(float32(np[i].Data[j]))
			if cp[i].Data[j] != want {
				t.Fatalf("param %d[%d]: round-trip %g, want %g", i, j, cp[i].Data[j], want)
			}
		}
	}
}
