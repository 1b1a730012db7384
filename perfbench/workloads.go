package main

import (
	"fmt"
	"math"
	"time"

	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/experiments"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/rng"
	"fedclust/internal/transport"
	"fedclust/internal/wire"
)

// workload is one named benchmark input: how to build a federation from
// a seed, and how many federations (sub-seeds) one run averages its
// accuracies over. Accuracy on these small populations swings by tens
// of points from seed to seed; the mean over a fixed set of sub-seeds is
// what makes acc_pct comparable between runs with different seeds.
type workload struct {
	name     string
	subSeeds int
	dtype    fl.DType
	tcp      bool
}

var workloads = []workload{
	{name: "lenet-f64", subSeeds: 12, dtype: fl.Float64},
	{name: "lenet-f32", subSeeds: 12, dtype: fl.Float32},
	{name: "tcp-mlp", subSeeds: 6, dtype: fl.Float64, tcp: true},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives the k-th federation seed of a run. Sub-seed 0 is the
// run's own seed, so seed 1 reproduces the CLI's Table-I cell.
func subSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	z := seed + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z ^ z>>31) >> 1
}

// tcpNodes is the size of the socket federation: one node per core of
// the two-core reference host.
const tcpNodes = 2

// distSpec is `fedsim serve`'s full dist8 workload: MLP(256→64→8) over
// 20 clients in four label groups, dense float64 codec.
func distSpec(seed uint64) *transport.Spec {
	return &transport.Spec{
		Dataset: data.SynthConfig{
			Name: "dist8", C: 1, H: 16, W: 16, Classes: 8,
			TrainPerClass: 100, TestPerClass: 30,
			ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: seed,
		},
		Groups:    [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}},
		PerGroup:  []int{5, 5, 5, 5},
		Hidden:    []int{64},
		Seed:      seed,
		Rounds:    20,
		EvalEvery: 5,
		Local:     fl.LocalConfig{Epochs: 2, BatchSize: 32, LR: 0.1, Momentum: 0.9},
		Codec:     wire.Float64.String(),
	}
}

// federation is one built environment, ready to run methods on.
type federation struct {
	env       *fl.Env
	numParams int
	close     func() error
}

// buildTimes splits a traced set-up into its layers.
type buildTimes struct {
	generate, partition time.Duration
}

// build makes the workload's federation for one seed. With a tracer,
// float64 models carry layer decorators (on the nodes for tcp-mlp) and
// the remote trainer a visit decorator.
func (w workload) build(seed uint64, tr *tracer) (*federation, error) {
	if w.tcp {
		return buildTCP(seed, tr)
	}
	env := experiments.BuildEnv(experiments.QuickWorkload("cifar10"), seed)
	env.DType = w.dtype
	if tr != nil && w.dtype == fl.Float64 {
		env.Factory = tr.decorate(env.Factory, inProcess)
	}
	return &federation{env: env, numParams: env.NewModel().NumParams(), close: func() error { return nil }}, nil
}

// timeBuild replays the set-up's data generation and client partition
// as standalone calls with the recipe the program uses, so the traced
// run can split setup_s by layer. It returns the replica's clients so
// the caller can check the replay against the program's own build.
func (w workload) timeBuild(seed uint64) (buildTimes, []*fl.Client) {
	var cfg data.SynthConfig
	var part func(train, test *data.Dataset) []*fl.Client
	if w.tcp {
		s := distSpec(seed)
		cfg = s.Dataset
		part = func(train, test *data.Dataset) []*fl.Client {
			c, _ := fl.BuildGroupClients(train, test, s.Groups, s.PerGroup, rng.New(s.Seed))
			return c
		}
	} else {
		q := experiments.QuickWorkload("cifar10")
		cfg = experiments.DatasetConfig(q.Dataset, seed)
		cfg.TrainPerClass, cfg.TestPerClass = q.TrainPerClass, q.TestPerClass
		cfg.ClassSep *= q.SepScale
		part = func(train, test *data.Dataset) []*fl.Client {
			return fl.BuildDirichletClients(train, test, q.Clients, q.Alpha, rng.New(seed).Derive(0xd17))
		}
	}
	t0 := time.Now()
	train, test := data.Generate(cfg)
	t1 := time.Now()
	clients := part(train, test)
	return buildTimes{generate: t1.Sub(t0), partition: time.Since(t1)}, clients
}

// buildTCP starts a coordinator and tcpNodes nodes in this process, each
// node a goroutine serving transport.Service over a localhost socket.
func buildTCP(seed uint64, tr *tracer) (*federation, error) {
	spec := distSpec(seed)
	specBytes, err := spec.Marshal()
	if err != nil {
		return nil, err
	}
	env, err := spec.Build()
	if err != nil {
		return nil, err
	}
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	done := make(chan error, tcpNodes)
	for i := 0; i < tcpNodes; i++ {
		go func(lane int) { done <- serveNode(coord.Addr(), lane, tr) }(i)
	}
	nodes, err := coord.AcceptNodes(tcpNodes, len(env.Clients), specBytes, wire.Float64, 0)
	coord.Close()
	if err != nil {
		for i := 0; i < tcpNodes; i++ {
			<-done
		}
		return nil, fmt.Errorf("accepting nodes: %w", err)
	}
	fleet := transport.FleetOf(len(env.Clients), nodes)
	env.Remote = fleet
	if tr != nil {
		laneOf := make([]int16, len(env.Clients))
		for _, nd := range nodes {
			for lane := 0; lane < tcpNodes; lane++ {
				if nd.Name() == nodeName(lane) {
					for c := nd.Lo; c < nd.Hi; c++ {
						laneOf[c] = int16(lane)
					}
				}
			}
		}
		env.Remote = &timedRemote{inner: fleet, tr: tr, laneOf: laneOf, name: tr.intern("transport.visit")}
	}
	closeAll := func() error {
		first := fleet.Close()
		for i := 0; i < tcpNodes; i++ {
			if err := <-done; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return &federation{env: env, numParams: env.NewModel().NumParams(), close: closeAll}, nil
}

func nodeName(lane int) string { return fmt.Sprintf("node%d", lane) }

// serveNode is one node: join, rebuild the environment replica from the
// coordinator's spec, serve until the coordinator says goodbye. A node
// owns one execution slot, i.e. one core.
func serveNode(addr string, lane int, tr *tracer) error {
	conn, _, _, specBytes, err := transport.Join(addr, nodeName(lane))
	if err != nil {
		return err
	}
	spec, err := transport.ParseSpec(specBytes)
	if err != nil {
		conn.Close()
		return err
	}
	env, err := spec.Build()
	if err != nil {
		conn.Close()
		return err
	}
	env.Workers = 1
	if tr != nil {
		env.Factory = tr.decorate(env.Factory, lane)
	}
	return transport.NewService(env).ServeConn(conn)
}

// outcome is what one repetition produced: the learning results that
// must repeat bit for bit, and what it measured.
type outcome struct {
	accAvg, accClust float64
	lossAvg          float64
	perAvg, perClust []float64
	labels           []int
	runNS            int64
	wireBytes        int64
	formationUpBytes int64
	formationNS      int64
	meter            *meter
}

// same reports whether two repetitions learned bit-identical results.
func (o *outcome) same(p *outcome) bool {
	eq := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if len(o.labels) != len(p.labels) {
		return false
	}
	for i := range o.labels {
		if o.labels[i] != p.labels[i] {
			return false
		}
	}
	return eq([]float64{o.accAvg, o.accClust, o.lossAvg}, []float64{p.accAvg, p.accClust, p.lossAvg}) &&
		eq(o.perAvg, p.perAvg) && eq(o.perClust, p.perClust)
}

// rep runs FedAvg and then FedClust on the federation, timing from the
// first Trainer.Run to the last return.
func rep(f *federation, tr *tracer) *outcome {
	env := f.env
	m := newMeter(env, tr)
	env.Observer = m
	defer func() { env.Observer = nil }()
	var began, avgDone int64
	if tr != nil {
		began = tr.now()
	}
	t0 := time.Now()
	avg := methods.FedAvg{}.Run(env)
	if tr != nil {
		avgDone = tr.now()
	}
	clust := (&core.FedClust{}).Run(env)
	o := &outcome{
		accAvg: avg.FinalAcc, accClust: clust.FinalAcc, lossAvg: avg.FinalLoss,
		perAvg: avg.PerClientAcc, perClust: clust.PerClientAcc, labels: clust.Clusters,
		runNS:            time.Since(t0).Nanoseconds(),
		wireBytes:        avg.Comm.UpBytes + avg.Comm.DownBytes + clust.Comm.UpBytes + clust.Comm.DownBytes,
		formationUpBytes: clust.ClusterFormationUpBytes,
		meter:            m,
	}
	if tr != nil {
		end := tr.now()
		// FedClust forms its clusters (warmup, proximity matrix, HC)
		// between Run's entry and its ObserveRunStart.
		o.formationNS = m.runStartAt - avgDone
		for _, s := range []span{
			{start: began, end: end, name: tr.intern("run"), kind: kRun},
			{start: began, end: avgDone, name: tr.intern("FedAvg"), kind: kMethod},
			{start: avgDone, end: end, name: tr.intern("FedClust"), kind: kMethod},
			{start: avgDone, end: m.runStartAt, name: tr.intern("core.formation"), kind: kFormation},
		} {
			s.lane = inProcess
			tr.add(s)
		}
	}
	m.warmup(env.Local.Epochs)
	m.env = nil // retained outcomes must not pin the federation's data
	return o
}
