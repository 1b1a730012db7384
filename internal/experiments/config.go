package experiments

import (
	"fmt"
	"sort"
	"strings"

	"fedclust/internal/cluster"
	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/wire"
)

// DatasetNames are the three Table-I datasets, in the paper's column order.
var DatasetNames = []string{"cifar10", "fmnist", "svhn"}

// DefaultDType is the numeric compute path every environment built by
// this package runs (fedsim's -dtype flag sets it once at startup). The
// zero value keeps the float64 golden path.
var DefaultDType fl.DType

// DefaultCodec and DefaultTopKFrac mirror DefaultDType for the uplink
// parameter codec: fedsim's -codec/-topk-frac flags set them once at
// startup and every environment built by this package runs under them
// (experiments that sweep codecs override per run). Zero values keep
// the dense Float64 golden path.
var (
	DefaultCodec    wire.Codec
	DefaultTopKFrac float64
)

// DefaultObserver, when non-nil, is attached to every environment built
// by this package — the same one-knob pattern as DefaultDType: fedsim's
// -journal flag sets it once at startup so in-process experiments leave
// a round journal on disk without threading an observer through every
// experiment entry point.
var DefaultObserver fl.RoundObserver

// MethodNames are the Table-I methods, in the paper's row order.
var MethodNames = []string{"FedAvg", "FedProx", "CFL", "IFCA", "PACFL", "FedClust"}

// datasets maps each dataset name to its synthetic stand-in.
var datasets = map[string]func(seed uint64) data.SynthConfig{
	"cifar10": data.SynthCIFAR10,
	"fmnist":  data.SynthFMNIST,
	"svhn":    data.SynthSVHN,
}

// DatasetConfig returns the synthetic stand-in for a named dataset.
func DatasetConfig(name string, seed uint64) data.SynthConfig {
	mk, ok := datasets[name]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown dataset %q", name))
	}
	return mk(seed)
}

// CheckDatasets returns an error naming the first unknown dataset in
// names, so a caller can reject bad input before any work starts.
func CheckDatasets(names []string) error {
	return checkNames("dataset", names, datasets)
}

// CheckMethods is CheckDatasets for method names (NewTrainer's set).
func CheckMethods(names []string) error {
	return checkNames("method", names, trainers)
}

// checkNames reports the first of names missing from known.
func checkNames[V any](kind string, names []string, known map[string]V) error {
	for _, n := range names {
		if _, ok := known[n]; !ok {
			valid := make([]string, 0, len(known))
			for k := range known {
				valid = append(valid, k)
			}
			sort.Strings(valid)
			return fmt.Errorf("unknown %s %q (want one of %s)", kind, n, strings.Join(valid, ", "))
		}
	}
	return nil
}

// Workload parameterizes one federated run: the dataset, the client
// population, and the training schedule.
type Workload struct {
	Dataset   string
	Clients   int
	Alpha     float64 // Dirichlet concentration (Table I uses 0.1)
	Rounds    int
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	// WidthScale narrows LeNet-5 (1 = faithful architecture).
	WidthScale float64
	// TrainPerClass/TestPerClass override the preset sizes when > 0.
	TrainPerClass, TestPerClass int
	// SepScale multiplies the dataset's class separation (default 1).
	// Larger workloads (more data, more rounds) make any fixed synthetic
	// distribution easier; the paper-scale workload compensates so the
	// absolute accuracy bands stay near the paper's Table I.
	SepScale float64
	// EvalEvery controls periodic evaluation (0 = final only).
	EvalEvery int
	// IFCAK is the predefined cluster count IFCA requires.
	IFCAK int
	// FedProxMu is the proximal coefficient.
	FedProxMu float64
}

// PaperWorkload is the Table-I setting at reproduction scale: 20 clients,
// Dir(0.1), LeNet-5.
func PaperWorkload(dataset string) Workload {
	return Workload{
		Dataset: dataset, Clients: 20, Alpha: 0.1,
		Rounds: 25, Epochs: 2, BatchSize: 32, LR: 0.02, Momentum: 0.5,
		WidthScale: 0.5, IFCAK: 4, FedProxMu: 0.1, SepScale: 0.42,
	}
}

// QuickWorkload is a reduced setting for benchmarks and CI: fewer clients,
// samples, and rounds, same structure.
func QuickWorkload(dataset string) Workload {
	w := PaperWorkload(dataset)
	w.Clients = 10
	w.Rounds = 8
	w.Epochs = 1
	w.TrainPerClass = 120
	w.TestPerClass = 40
	w.IFCAK = 3
	w.SepScale = 1
	return w
}

// workloadDataset resolves a workload's dataset configuration, applying
// per-workload size and difficulty overrides.
func workloadDataset(w Workload, seed uint64) data.SynthConfig {
	cfg := DatasetConfig(w.Dataset, seed)
	if w.TrainPerClass > 0 {
		cfg.TrainPerClass = w.TrainPerClass
	}
	if w.TestPerClass > 0 {
		cfg.TestPerClass = w.TestPerClass
	}
	if w.SepScale > 0 {
		cfg.ClassSep *= w.SepScale
	}
	return cfg
}

// BuildEnv materializes a Workload into an fl.Env with a Dir(alpha)
// population over the named dataset and a LeNet-5 model factory.
func BuildEnv(w Workload, seed uint64) *fl.Env {
	cfg := workloadDataset(w, seed)
	train, test := data.Generate(cfg)
	clients := fl.BuildDirichletClients(train, test, w.Clients, w.Alpha, rng.New(seed).Derive(0xd17))
	c, h, wd, classes := cfg.C, cfg.H, cfg.W, cfg.Classes
	scale := w.WidthScale
	if scale == 0 {
		scale = 1
	}
	return &fl.Env{
		Clients: clients,
		Factory: func(r *rng.Rng) *nn.Sequential {
			return nn.LeNet5(r, c, h, wd, classes, scale)
		},
		Rounds:    w.Rounds,
		Local:     fl.LocalConfig{Epochs: w.Epochs, BatchSize: w.BatchSize, LR: w.LR, Momentum: w.Momentum},
		Seed:      seed,
		EvalEvery: w.EvalEvery,
		DType:     DefaultDType,
		Codec:     DefaultCodec,
		TopKFrac:  DefaultTopKFrac,
		Observer:  DefaultObserver,
	}
}

// trainers maps each method name to its constructor.
var trainers = map[string]func(w Workload) fl.Trainer{
	"FedAvg":      func(Workload) fl.Trainer { return methods.FedAvg{} },
	"FedProx":     func(w Workload) fl.Trainer { return methods.FedProx{Mu: w.FedProxMu} },
	"CFL":         func(Workload) fl.Trainer { return methods.CFL{} },
	"IFCA":        func(w Workload) fl.Trainer { return methods.IFCA{K: w.IFCAK} },
	"PACFL":       func(Workload) fl.Trainer { return methods.PACFL{} },
	"FedClust":    func(Workload) fl.Trainer { return &core.FedClust{} },
	"FedAvgStale": func(Workload) fl.Trainer { return methods.FedAvgStale{} },
	"FedBuff":     func(Workload) fl.Trainer { return methods.FedBuff{} },
}

// NewTrainer instantiates a method by Table-I name with the workload's
// hyperparameters.
func NewTrainer(name string, w Workload) fl.Trainer {
	mk, ok := trainers[name]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown method %q", name))
	}
	return mk(w)
}

// NewTrainerWithLinkage builds FedClust with a specific linkage (for the
// linkage ablation).
func NewTrainerWithLinkage(l cluster.Linkage) fl.Trainer {
	return &core.FedClust{Cfg: core.Config{Linkage: l}}
}
