package nn

import (
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// Float32 counterparts of the per-layer micro-benchmarks, built by
// mirroring a randomly initialized float64 layer so the weights are
// realistic (the float64 kernels skip exact zeros; the float32 kernels
// never do, so zero weights would not skew either side — but identical
// dense weights keep the pair honest).

func randBatch32(r *rng.Rng, batch, dim int) *tensor.Tensor32 {
	x := tensor.New32(batch, dim)
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64())
	}
	return x
}

func mirrorLayer32(b *testing.B, l Layer) *SequentialOf[float32] {
	b.Helper()
	src := NewSequential(l)
	m := Mirror[float32](src)
	if m == nil {
		b.Fatalf("Mirror returned nil for %s", l.Name())
	}
	CopyParams(m, src)
	return m
}

func BenchmarkDense32Forward(b *testing.B) {
	r := rng.New(1)
	m := mirrorLayer32(b, NewDense(256, 128, r))
	x := randBatch32(r, 32, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(x, true)
	}
}

func BenchmarkDense32ForwardBackward(b *testing.B) {
	r := rng.New(1)
	m := mirrorLayer32(b, NewDense(256, 128, r))
	x := randBatch32(r, 32, 256)
	gy := randBatch32(r, 32, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(x, true)
		_ = m.Backward(gy)
	}
}

func BenchmarkConv2D32Forward(b *testing.B) {
	r := rng.New(2)
	g := tensor.ConvGeom{InC: 3, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}
	c := NewConv2D(g, 8, r)
	m := mirrorLayer32(b, c)
	x := randBatch32(r, 16, 3*16*16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(x, true)
	}
}

func BenchmarkConv2D32ForwardBackward(b *testing.B) {
	r := rng.New(2)
	g := tensor.ConvGeom{InC: 3, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}
	c := NewConv2D(g, 8, r)
	m := mirrorLayer32(b, c)
	x := randBatch32(r, 16, 3*16*16)
	gy := randBatch32(r, 16, c.OutDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(x, true)
		_ = m.Backward(gy)
	}
}
