package main

import (
	"runtime"

	"fedclust/internal/fl"
)

// census counts the images and batches a run pushes through each
// convolution, derived from the schedule alone: every completed epoch of
// a visit trains the client's whole split in batches of the local batch
// size, and every evaluation forwards each client's test split in
// evaluation batches. The float32 path cannot carry layer decorators, so
// its kernel replay uses these counts; on float64 they are checked
// against what the decorators observed.
type census struct {
	fwd, bwd []int64 // calls per batch size
}

func (c *census) batches(h []int64, n, epochs, size int) []int64 {
	if n == 0 || epochs == 0 {
		return h
	}
	full, tail := n/size, n%size
	for e := 0; e < epochs; e++ {
		for b := 0; b < full; b++ {
			h = bump(h, size)
		}
		if tail > 0 {
			h = bump(h, tail)
		}
	}
	return h
}

// train adds one visit of epochs over n examples.
func (c *census) train(n, epochs, size int) {
	c.fwd = c.batches(c.fwd, n, epochs, size)
	c.bwd = c.batches(c.bwd, n, epochs, size)
}

// meter is the round observer of every run. Untraced it only counts:
// round wall times, visits, failures and samples trained. When a tracer
// is attached it also turns each round's phase timing into round and
// phase spans, marks where FedClust's formation ends, and reads the
// allocation counter at every round boundary.
type meter struct {
	env *fl.Env
	tr  *tracer

	roundNS        []int64
	visits, failed int64
	samples        int64
	runStartAt     int64
	phases         fl.RoundPhases
	cen            census
	phaseNames     [5]int32
	roundName      int32
	roundInMethod  int
	mallocs        uint64
	warmMallocs    uint64
	warmRounds     int
	ms             runtime.MemStats
}

func newMeter(env *fl.Env, tr *tracer) *meter {
	m := &meter{env: env, tr: tr, roundNS: make([]int64, 0, 4096)}
	if tr != nil {
		for i, n := range []string{"sample", "broadcast", "local", "combine", "eval"} {
			m.phaseNames[i] = tr.intern("engine." + n)
		}
		m.roundName = tr.intern("round")
	}
	return m
}

func (m *meter) ObserveRunStart(method string, totalRounds, nClients, startRound int) {
	m.roundInMethod = 0
	if m.tr != nil {
		m.runStartAt = m.tr.now()
		runtime.ReadMemStats(&m.ms)
		m.mallocs = m.ms.Mallocs
	}
}

func (m *meter) ObserveRoundStart(round, invited int) {}

func (m *meter) ObserveOutcome(client, done, lag int, failed bool) {
	m.visits++
	if failed {
		m.failed++
		return
	}
	n := m.env.Clients[client].Train.Len()
	m.samples += int64(done * n)
	m.cen.train(n, done, m.env.Local.BatchSize)
}

func (m *meter) ObserveRoundEnd(round, reported int, comm *fl.CommStats) {}

func (m *meter) ObserveEval(round int, meanAcc, meanLoss float64) {
	size := m.env.EvalBatchSize()
	for _, c := range m.env.Clients {
		m.cen.fwd = m.cen.batches(m.cen.fwd, c.Test.Len(), 1, size)
	}
}

func (m *meter) ObserveCheckpoint(round int) {}

// warmup accounts FedClust's one-shot warmup pass, which trains every
// client outside the round loop and so reaches no ObserveOutcome.
func (m *meter) warmup(epochs int) {
	for _, c := range m.env.Clients {
		n := c.Train.Len()
		m.visits++
		m.samples += int64(epochs * n)
		m.cen.train(n, epochs, m.env.Local.BatchSize)
	}
}

// ObservePhases implements fl.PhaseObserver; it is the round's closing
// event.
func (m *meter) ObservePhases(round int, p fl.RoundPhases) {
	m.roundNS = append(m.roundNS, p.TotalNS)
	m.phases.Add(p)
	if m.tr == nil {
		return
	}
	end := m.tr.now()
	start := end - p.TotalNS
	m.tr.add(span{start: start, end: end, name: m.roundName, lane: inProcess, kind: kRound})
	// The engine's phase laps are contiguous from the round's start.
	at := start
	for i, d := range []int64{p.SampleNS, p.BroadcastNS, p.LocalNS, p.CombineNS, p.EvalNS} {
		if d > 0 {
			m.tr.add(span{start: at, end: at + d, name: m.phaseNames[i], lane: inProcess, kind: kPhase})
		}
		at += d
	}
	runtime.ReadMemStats(&m.ms)
	if m.roundInMethod > 0 {
		m.warmMallocs += m.ms.Mallocs - m.mallocs
		m.warmRounds++
	}
	m.mallocs = m.ms.Mallocs
	m.roundInMethod++
}

var (
	_ fl.RoundObserver = (*meter)(nil)
	_ fl.PhaseObserver = (*meter)(nil)
)
