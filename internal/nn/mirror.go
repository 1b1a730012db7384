package nn

import (
	"fmt"

	"fedclust/internal/tensor"
)

// Mirror builds a shadow of a float64 network over element type T: one
// layer per layer, positionally 1:1 (so SeedStep derivation keys line
// up), with identical hyperparameters and zeroed weights — call
// CopyParams to load them. It returns nil if the network contains a
// layer kind it does not know (a decorator, say); callers treat nil as
// "stay on the float64 path", which keeps such an architecture working
// instead of failing.
func Mirror[T tensor.Float](src *Sequential) *SequentialOf[T] {
	layers := make([]LayerOf[T], len(src.Layers))
	for i, l := range src.Layers {
		switch t := l.(type) {
		case *Dense:
			layers[i] = newDense[T](t.In, t.Out)
		case *Conv2D:
			layers[i] = newConv2D[T](t.Geom, t.OutC)
		case *ReLU:
			layers[i] = &ReLUOf[T]{dim: t.dim}
		case *Tanh:
			layers[i] = &TanhOf[T]{dim: t.dim}
		case *Sigmoid:
			layers[i] = &SigmoidOf[T]{dim: t.dim}
		case *Dropout:
			// The source's stream is only the standalone fallback; local
			// training rebases it through SeedStep before every use.
			layers[i] = &DropoutOf[T]{dim: t.dim, P: t.P, rng: t.rng}
		case *MaxPool2:
			layers[i] = &MaxPool2Of[T]{C: t.C, H: t.H, W: t.W}
		case *AvgPool2:
			layers[i] = &AvgPool2Of[T]{C: t.C, H: t.H, W: t.W}
		default:
			return nil
		}
	}
	return &SequentialOf[T]{Layers: layers}
}

// CopyParams loads src's parameters into dst, converting each scalar to
// dst's element type: narrowing float64 → float32 rounds once, widening
// is exact. The networks must have the same parameter layout (a network
// and its Mirror do); it panics on a tensor count or size mismatch.
func CopyParams[D, S tensor.Float](dst *SequentialOf[D], src *SequentialOf[S]) {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		panic(fmt.Sprintf("nn: CopyParams tensor count %d vs %d", len(dp), len(sp)))
	}
	for i, p := range sp {
		d := dp[i]
		if d.Size() != p.Size() {
			panic(fmt.Sprintf("nn: CopyParams tensor %d size %d vs %d", i, d.Size(), p.Size()))
		}
		for j, v := range p.Data {
			d.Data[j] = D(v)
		}
	}
}

// SameLayout reports whether a and b have the same parameter layout —
// equal tensor counts and sizes — i.e. whether CopyParams accepts the
// pair.
func SameLayout[A, B tensor.Float](a *SequentialOf[A], b *SequentialOf[B]) bool {
	ap, bp := a.Params(), b.Params()
	if len(ap) != len(bp) {
		return false
	}
	for i := range ap {
		if ap[i].Size() != bp[i].Size() {
			return false
		}
	}
	return true
}
