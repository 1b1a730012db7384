package main

import (
	"fmt"
	"time"

	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
	"fedclust/internal/wire"
)

// The tensor.* and wire.* metrics are replay estimates: the benchmark
// times the public kernels at the shapes the traced run used and scales
// by the call counts it observed. They say where convolution and codec
// time goes without instrumenting the program.

// convLayer is one convolution of the workload's model.
type convLayer struct {
	name string
	geom tensor.ConvGeom
	outC int
}

// convLayers lists a model's convolutions in order, looking through
// timing decorators.
func convLayers(m *nn.Sequential) []convLayer {
	var out []convLayer
	for _, l := range m.Layers {
		if tl, ok := l.(*timedLayer); ok {
			l = tl.Layer
		}
		if c, ok := l.(*nn.Conv2D); ok {
			out = append(out, convLayer{name: fmt.Sprintf("conv%d", len(out)+1), geom: c.Geom, outC: c.OutC})
		}
	}
	return out
}

// convCost is one convolution's replayed kernel time over a whole run, µs.
type convCost struct {
	im2col, col2im, gemm float64
}

// perCall times fn as the median over blocks of n calls, in µs per call.
func perCall(n int, fn func()) float64 {
	const blocks = 5
	ts := make([]float64, blocks)
	fn() // warm caches and lazy workspaces
	for b := range ts {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		ts[b] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	}
	return median(ts)
}

func fill(xs []float64, r *rng.Rng) {
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
}

func fill32(xs []float32, r *rng.Rng) {
	for i := range xs {
		xs[i] = float32(r.NormFloat64())
	}
}

func images(h []int64) int64 {
	var n int64
	for b, c := range h {
		n += int64(b) * c
	}
	return n
}

// replayConv times im2col, col2im and the three convolution GEMMs at
// c's geometry — the float32 twins when f32 — and scales them by the
// census: im2col/col2im run once per image, the GEMMs once per batch.
func replayConv(c convLayer, cen *census, f32 bool, r *rng.Rng) convCost {
	g := c.geom
	outHW := g.OutH() * g.OutW()
	rowLen := g.InC * g.KH * g.KW
	inDim := g.InC * g.InH * g.InW
	const lot = 16 // images per timed call block
	var cost convCost
	gemm := func(b int, fwd bool) float64 {
		m := b * outHW
		if f32 {
			cols, y, w, gw := tensor.New32(m, rowLen), tensor.New32(m, c.outC), tensor.New32(c.outC, rowLen), tensor.New32(c.outC, rowLen)
			fill32(cols.Data, r)
			fill32(y.Data, r)
			fill32(w.Data, r)
			if fwd {
				return perCall(1, func() { tensor.MatMulTransB32Into(y, cols, w) })
			}
			return perCall(1, func() { tensor.MatMulTransA32Into(gw, y, cols); tensor.MatMul32Into(cols, y, w) })
		}
		cols, y, w, gw := tensor.New(m, rowLen), tensor.New(m, c.outC), tensor.New(c.outC, rowLen), tensor.New(c.outC, rowLen)
		fill(cols.Data, r)
		fill(y.Data, r)
		fill(w.Data, r)
		if fwd {
			return perCall(1, func() { tensor.MatMulTransBInto(y, cols, w) })
		}
		return perCall(1, func() { tensor.MatMulTransAInto(gw, y, cols); tensor.MatMulInto(cols, y, w) })
	}
	if f32 {
		img, col := make([]float32, inDim*lot), make([]float32, outHW*rowLen*lot)
		fill32(img, r)
		fill32(col, r)
		im := perCall(4, func() {
			for i := 0; i < lot; i++ {
				tensor.Im2Col32Into(img[i*inDim:(i+1)*inDim], g, col[i*outHW*rowLen:(i+1)*outHW*rowLen])
			}
		}) / lot
		back := perCall(4, func() {
			for i := 0; i < lot; i++ {
				tensor.Col2Im32Into(col[i*outHW*rowLen:(i+1)*outHW*rowLen], g, img[i*inDim:(i+1)*inDim])
			}
		}) / lot
		cost.im2col, cost.col2im = im*float64(images(cen.fwd)), back*float64(images(cen.bwd))
	} else {
		img, col := make([]float64, inDim*lot), make([]float64, outHW*rowLen*lot)
		fill(img, r)
		fill(col, r)
		im := perCall(4, func() {
			for i := 0; i < lot; i++ {
				tensor.Im2ColInto(img[i*inDim:(i+1)*inDim], g, col[i*outHW*rowLen:(i+1)*outHW*rowLen])
			}
		}) / lot
		back := perCall(4, func() {
			for i := 0; i < lot; i++ {
				tensor.Col2ImInto(col[i*outHW*rowLen:(i+1)*outHW*rowLen], g, img[i*inDim:(i+1)*inDim])
			}
		}) / lot
		cost.im2col, cost.col2im = im*float64(images(cen.fwd)), back*float64(images(cen.bwd))
	}
	for b, n := range cen.fwd {
		if n > 0 {
			cost.gemm += gemm(b, true) * float64(n)
		}
	}
	for b, n := range cen.bwd {
		if n > 0 {
			cost.gemm += gemm(b, false) * float64(n)
		}
	}
	return cost
}

// replayCodec times one dense encode and one decode of a parameter
// vector of n values under codec c, in µs per call.
func replayCodec(c wire.Codec, n int, r *rng.Rng) (enc, dec float64, err error) {
	vec := make([]float64, n)
	fill(vec, r)
	frame := wire.EncodeInto(nil, c, vec)
	out := make([]float64, n)
	if _, err = wire.DecodeInto(out, frame); err != nil {
		return 0, 0, err
	}
	enc = perCall(20, func() { frame = wire.EncodeInto(frame[:0], c, vec) })
	dec = perCall(20, func() { out, err = wire.DecodeInto(out, frame) })
	return enc, dec, err
}
