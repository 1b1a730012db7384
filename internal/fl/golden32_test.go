package fl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// TestLocalUpdate32Golden pins the float32 compute path bit for bit: one
// float32 LocalUpdate (momentum, weight decay and the FedProx term all
// active) followed by a float32 evaluation, on LeNet-5 and on a stack
// that uses every other mirrored layer kind (tanh, average pooling,
// sigmoid, dropout). The divergence bounds elsewhere only catch wrong
// math; these fingerprints catch any change in float32 rounding order.
//
// The host picks one float32 kernel path at init (AVX2+FMA or pure Go),
// and the two round differently, so each case carries one fingerprint
// per path; a run must reproduce one of them.
func TestLocalUpdate32Golden(t *testing.T) {
	d := benchDataset(40)
	cfg := LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, ProxMu: 0.01}
	cases := []struct {
		name  string
		model func() *nn.Sequential
		want  [2]string // AVX2+FMA kernels, pure-Go kernels
	}{
		{"lenet5", func() *nn.Sequential { return nn.LeNet5(rng.New(1), d.C, d.H, d.W, d.Classes, 0.5) },
			[2]string{
				"3ffba8607b1b41fd 3ff29de3b878c2ff 3fe2666666666666 params=2d4815ae543d8b09",
				"3ffba8607c24d70a 3ff29de3b8909bca 3fe2666666666666 params=6a1cb1fba0d311f9",
			}},
		{"zoo", func() *nn.Sequential {
			r := rng.New(2)
			conv := nn.NewConv2D(tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 4, r)
			return nn.NewSequential(
				conv, nn.NewTanh(conv.OutDim()), nn.NewAvgPool2(4, 8, 8),
				nn.NewDense(64, 16, r), nn.NewSigmoid(16), nn.NewDropout(16, 0.2, r),
				nn.NewDense(16, d.Classes, r),
			)
		}, [2]string{
			"3ff47581540c4c2b 3fea5e292fecbd80 3fec333333333333 params=3641e9c229be885b",
			"3ff47581544ad278 3fea5e292cdff875 3fec333333333333 params=c733ee0c8dece73d",
		}},
	}
	for _, c := range cases {
		m := c.model()
		ts := TrainScratch{DType: Float32}
		loss := ts.LocalUpdate(m, d, cfg, rng.New(5))
		if !ts.ranF32 {
			t.Fatalf("%s: float32 scratch did not take the float32 path", c.name)
		}
		evalLoss, evalAcc := ts.Evaluate(m, d, 32)
		got := trainFingerprint(m, loss, evalLoss, evalAcc)
		if got != c.want[0] && got != c.want[1] {
			t.Errorf("%s: float32 result drifted\n got: %s\nwant: %s (AVX2) or %s (pure Go)", c.name, got, c.want[0], c.want[1])
		}
	}
}

// trainFingerprint reduces a trained model and its scalar results to an
// exact bit-level signature.
func trainFingerprint(m *nn.Sequential, vals ...float64) string {
	h := fnv.New64a()
	for _, v := range nn.FlattenParams(m) {
		_ = binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	s := ""
	for _, v := range vals {
		s += fmt.Sprintf("%016x ", math.Float64bits(v))
	}
	return fmt.Sprintf("%sparams=%016x", s, h.Sum64())
}
