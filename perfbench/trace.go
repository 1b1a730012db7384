package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedclust/internal/fl"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// Span levels, outermost first: run → method → (formation | round) →
// phase → visit → layer.
type spanKind uint8

const (
	kRun spanKind = iota
	kMethod
	kFormation
	kRound
	kPhase
	kVisit
	kLayer
)

var kindNames = [...]string{"run", "method", "formation", "round", "phase", "visit", "layer"}

// inProcess is the lane of spans recorded in the coordinator's own
// goroutines; node-side spans carry their node's lane (0, 1, ...).
const inProcess = -1

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch on the process's monotonic clock, so spans recorded on node
// goroutines and on the coordinator compare directly.
type span struct {
	start, end int64
	name       int32
	parent     int32 // index into tracer.spans, -1 for the root
	lane       int16
	kind       spanKind
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps every span of a traced run in memory. Recording appends
// to a preallocated slice under one mutex, so a warm round allocates
// nothing on the tracer's behalf (engine.mallocs_per_round stays the
// program's own count).
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	names []string
	index map[string]int32
	convs map[string]*convStat // keyed by layer metric name ("conv1")

	inflight, inflightMax atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, 0, 1<<19),
		index: map[string]int32{},
		convs: map[string]*convStat{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// intern returns the id of a span name.
func (t *tracer) intern(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.index[name]; ok {
		return id
	}
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = id
	return id
}

func (t *tracer) add(s span) {
	s.parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// convStat is what the trace observed of one convolution: its geometry
// and how many Forward/Backward calls ran at each batch size.
type convStat struct {
	geom     tensor.ConvGeom
	outC     int
	fwd, bwd []int64 // indexed by batch size
}

func bump(h []int64, batch int) []int64 {
	for batch >= len(h) {
		h = append(h, 0)
	}
	h[batch]++
	return h
}

// timedLayer decorates an nn.Layer with a span around Forward and
// Backward. It delegates everything else, so parameters, gradients and
// the layer's arithmetic are the wrapped layer's own.
type timedLayer struct {
	nn.Layer
	tr       *tracer
	fwd, bwd int32
	lane     int16
	conv     *convStat
}

func (l *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s := l.tr.now()
	y := l.Layer.Forward(x, train)
	l.record(l.fwd, s, x.Shape[0], true)
	return y
}

func (l *timedLayer) Backward(g *tensor.Tensor) *tensor.Tensor {
	s := l.tr.now()
	y := l.Layer.Backward(g)
	l.record(l.bwd, s, g.Shape[0], false)
	return y
}

func (l *timedLayer) record(name int32, start int64, batch int, fwd bool) {
	t := l.tr
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: end, name: name, parent: -1, lane: l.lane, kind: kLayer})
	if c := l.conv; c != nil {
		if fwd {
			c.fwd = bump(c.fwd, batch)
		} else {
			c.bwd = bump(c.bwd, batch)
		}
	}
	t.mu.Unlock()
}

// layerNames gives each layer of a network its metric name: convolutions
// and dense layers are numbered in order (conv1, conv2, dense1, ...),
// pools and activations share one name per kind.
func layerNames(m *nn.Sequential) ([]string, error) {
	names := make([]string, len(m.Layers))
	var convs, denses int
	for i, l := range m.Layers {
		if _, ok := l.(nn.StepSeeded); ok {
			return nil, fmt.Errorf("layer %s draws from the step stream; the timing decorator does not forward SeedStep", l.Name())
		}
		switch l.(type) {
		case *nn.Conv2D:
			convs++
			names[i] = fmt.Sprintf("conv%d", convs)
		case *nn.Dense:
			denses++
			names[i] = fmt.Sprintf("dense%d", denses)
		case *nn.MaxPool2, *nn.AvgPool2:
			names[i] = "pool"
		case *nn.ReLU:
			names[i] = "relu"
		default:
			return nil, fmt.Errorf("layer %s has no metric name", l.Name())
		}
	}
	return names, nil
}

// decorate returns a model factory whose networks carry timedLayer
// decorators. It must only be used on float64 environments: nn.Mirror32
// does not know the decorator type and would silently keep the run on
// the float64 path.
func (t *tracer) decorate(f fl.ModelFactory, lane int) fl.ModelFactory {
	return func(r *rng.Rng) *nn.Sequential {
		m := f(r)
		names, err := layerNames(m)
		if err != nil {
			panic(err) // the benchmark only decorates LeNet-5 and the MLP
		}
		for i, l := range m.Layers {
			tl := &timedLayer{
				Layer: l, tr: t, lane: int16(lane),
				fwd: t.intern("nn." + names[i] + ".fwd"),
				bwd: t.intern("nn." + names[i] + ".bwd"),
			}
			if c, ok := l.(*nn.Conv2D); ok {
				t.mu.Lock()
				cs := t.convs[names[i]]
				if cs == nil {
					cs = &convStat{geom: c.Geom, outC: c.OutC}
					t.convs[names[i]] = cs
				}
				t.mu.Unlock()
				tl.conv = cs
			}
			m.Layers[i] = tl
		}
		return m
	}
}

// timedRemote decorates the engine's RemoteTrainer with one visit span
// per Train call and tracks how many visits are in flight at once.
type timedRemote struct {
	inner  fl.RemoteTrainer
	tr     *tracer
	laneOf []int16 // client → node lane
	name   int32
}

func (r *timedRemote) Owns(c int) bool { return r.inner.Owns(c) }

func (r *timedRemote) Train(req *fl.RemoteRequest, out []float64) (down, up int64, err error) {
	t := r.tr
	n := t.inflight.Add(1)
	for {
		m := t.inflightMax.Load()
		if n <= m || t.inflightMax.CompareAndSwap(m, n) {
			break
		}
	}
	s := t.now()
	down, up, err = r.inner.Train(req, out)
	e := t.now()
	t.inflight.Add(-1)
	t.add(span{start: s, end: e, name: r.name, lane: r.laneOf[req.Client], kind: kVisit})
	return down, up, err
}

// link assigns every span its parent: the innermost span of an outer
// level whose interval contains it. Node-side layers attach to a visit
// of the same node (the earliest still open); in-process layers attach
// to the phase or formation span they ran in. It returns the number of
// spans that found no parent although one was expected.
func (t *tracer) link() (orphans int) {
	sp := t.spans
	byKind := make([][]int, kLayer+1)
	for i := range sp {
		byKind[sp[i].kind] = append(byKind[sp[i].kind], i)
	}
	for _, ids := range byKind {
		sort.Slice(ids, func(a, b int) bool { return sp[ids[a]].start < sp[ids[b]].start })
	}
	// find returns a candidate of the given kinds containing span i,
	// scanning back from the last one that starts before it. Spans of one
	// kind overlap only as far as concurrent visits do, so a short scan
	// suffices; among containing visits of one node the earliest wins,
	// because a node serves its requests in arrival order.
	const scan = 64
	find := func(i int, lane int16, matchLane bool, kinds ...spanKind) int32 {
		s := &sp[i]
		for _, k := range kinds {
			ids := byKind[k]
			j := sort.Search(len(ids), func(j int) bool { return sp[ids[j]].start > s.start }) - 1
			best := int32(-1)
			for stop := j - scan; j >= 0 && j > stop; j-- {
				c := &sp[ids[j]]
				if matchLane && c.lane != lane {
					continue
				}
				if c.end >= s.end {
					best = int32(ids[j])
					if !matchLane {
						break
					}
				}
			}
			if best >= 0 {
				return best
			}
		}
		return -1
	}
	for i := range sp {
		var p int32 = -1
		switch sp[i].kind {
		case kRun:
			continue
		case kMethod:
			p = find(i, 0, false, kRun)
		case kFormation, kRound:
			p = find(i, 0, false, kMethod)
		case kPhase:
			p = find(i, 0, false, kRound)
		case kVisit:
			p = find(i, 0, false, kPhase, kFormation)
		case kLayer:
			if sp[i].lane == inProcess {
				p = find(i, 0, false, kPhase, kFormation)
			} else {
				p = find(i, sp[i].lane, true, kVisit)
			}
		}
		sp[i].parent = p
		if p < 0 {
			orphans++
		}
	}
	return orphans
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once).
func (t *tracer) selfTimes() []int64 {
	sp := t.spans
	children := make(map[int32][]int32)
	for i := range sp {
		if p := sp[i].parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]int64, len(sp))
	for i := range sp {
		self[i] = sp[i].dur()
	}
	for p, kids := range children {
		sort.Slice(kids, func(a, b int) bool { return sp[kids[a]].start < sp[kids[b]].start })
		lo, hi := sp[p].start, sp[p].end
		var covered int64
		curS, curE := int64(-1), int64(-1)
		for _, k := range kids {
			s, e := max(sp[k].start, lo), min(sp[k].end, hi)
			if e <= s {
				continue
			}
			if s > curE {
				covered += curE - curS
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		covered += curE - curS
		self[p] -= covered
	}
	return self
}

// inLocal reports whether span i descends from a "local" phase span.
func (t *tracer) inLocal(i int, local int32) bool {
	for p := t.spans[i].parent; p >= 0; p = t.spans[p].parent {
		if t.spans[p].kind == kPhase {
			return t.spans[p].name == local
		}
	}
	return false
}

// write stores the spans as JSON: a name table plus one row per span
// [kind, name, lane, start_ns, end_ns, parent, self_ns].
func (t *tracer) write(path string, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	names, _ := json.Marshal(t.names)
	kinds, _ := json.Marshal(kindNames)
	fmt.Fprintf(w, "{\"kinds\":%s,\n\"names\":%s,\n\"columns\":[\"kind\",\"name\",\"lane\",\"start_ns\",\"end_ns\",\"parent\",\"self_ns\"],\n\"spans\":[", kinds, names)
	for i := range t.spans {
		s := &t.spans[i]
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d,%d]", s.kind, s.name, s.lane, s.start, s.end, s.parent, self[i])
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
