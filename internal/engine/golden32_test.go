package engine_test

import (
	"testing"

	"fedclust/internal/fl"
)

// TestFloat32ReproducesGoldenFingerprints pins the float32 compute path
// of whole runs bit for bit, the float32 counterpart of the float64
// golden cases: each determinism trainer on goldenEnv(77, 6) with
// DType = Float32. The host picks one float32 kernel path at init
// (AVX2+FMA or pure Go) and the two round differently, so each trainer
// carries one fingerprint per path; a run must reproduce one of them.
func TestFloat32ReproducesGoldenFingerprints(t *testing.T) {
	want := map[string][2]string{ // AVX2+FMA kernels, pure-Go kernels
		"FedAvg": {
			"acc=3fecfa4fa4fa4fa4 loss=3fcaf81ef825d308 up=399384 down=401364 form=-1 formUp=0 clusters=[] h=375f278eefd985b0",
			"acc=3fecfa4fa4fa4fa4 loss=3fcaf81f2df27299 up=399384 down=401364 form=-1 formUp=0 clusters=[] h=252181ecd0fe2496",
		},
		"IFCA": {
			"acc=3fecfa4fa4fa4fa4 loss=3fcaf81ef825d308 up=399384 down=799956 form=1 formUp=66564 clusters=[0 0 0 0 0 0] h=375f278eefd985b0",
			"acc=3fecfa4fa4fa4fa4 loss=3fcaf81f2df27299 up=399384 down=799956 form=1 formUp=66564 clusters=[0 0 0 0 0 0] h=252181ecd0fe2496",
		},
		"FedClust": {
			"acc=3fef05b05b05b05b loss=3fb5c43d7c4213f1 up=403548 down=468258 form=0 formUp=4164 clusters=[0 0 0 1 1 1] h=de70d2c81b931862",
			"acc=3fef05b05b05b05b loss=3fb5c43db308dff5 up=403548 down=468258 form=0 formUp=4164 clusters=[0 0 0 1 1 1] h=8284cfc717d94ab7",
		},
	}
	for _, tr := range determinismTrainers() {
		env := goldenEnv(77, 6, fl.Participation{})
		env.DType = fl.Float32
		got := fingerprint(tr.Run(env))
		w, ok := want[tr.Name()]
		if !ok {
			t.Fatalf("no float32 golden for trainer %s", tr.Name())
		}
		if got != w[0] && got != w[1] {
			t.Errorf("%s: float32 result drifted\n got: %s\nwant: %s (AVX2) or %s (pure Go)", tr.Name(), got, w[0], w[1])
		}
	}
}
