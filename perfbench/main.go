// Command perfbench is the FedClust simulator's benchmark. It runs one
// named workload in a closed loop — one federation run at a time, from a
// single process — checks the learning results, and prints every metric
// by name and unit. The last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload lenet-f64 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured without
// tracing. With --trace 1 it runs the workload once more with timing
// decorators attached through the program's public seams (nn.Layer via
// Env.Factory, fl.RemoteTrainer via Env.Remote, and a round observer),
// reports the per-layer metrics and writes the spans to -out.
//
// attempted counts client visits (local training passes, FedClust's
// warmup included) and failed the visits the transport lost.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/rng"
	"fedclust/internal/wire"
)

func main() {
	name := flag.String("workload", "", "workload: lenet-f64, lenet-f32 or tcp-mlp")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	flag.Parse()

	w, err := lookup(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds <= 0) {
		err = fmt.Errorf("bad flags: -trace must be 0 or 1 and -seconds positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("host: %s\nworkload: %s seed=%d seconds=%g trace=%d\n", hostFingerprint(), w.name, *seed, *seconds, *trace)
	budget := time.Duration(*seconds * float64(time.Second))
	var r *report
	if *trace == 1 {
		r, err = traced(w, *seed, budget, *out)
	} else {
		r, err = measure(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

type metric struct {
	name, unit string
	value      float64
	note       string
}

type check struct {
	name   string
	ok     bool
	detail string
}

// report is one invocation's result.
type report struct {
	metrics           []metric
	checks            []check
	attempted, failed int64
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// print writes the human-readable table and then the JSON result line.
func (r *report) print(w io.Writer) error {
	for _, c := range r.checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %-28s %s  %s\n", c.name, verdict, c.detail)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "metric %-30s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// measure is the untraced run. It walks the workload's sub-seeds —
// sub-seed 0 twice, to check that a repetition is bit-identical — and
// keeps cycling through them until the budget is spent. Every sub-seed
// gets its own set-up, so setup_s is a median over several set-ups.
func measure(w workload, seed uint64, budget time.Duration) (*report, error) {
	r := &report{}
	var setups, runs, rates, wires, rounds, peaks []float64
	firsts := make([]*outcome, w.subSeeds)
	repeats, mismatches := 0, 0
	var cur *federation
	curK := -1
	start := time.Now()
	for i := 0; i <= w.subSeeds || time.Since(start) < budget; i++ {
		k := 0
		if i > 1 {
			k = (i - 1) % w.subSeeds
		}
		if k != curK {
			if cur != nil {
				peak, err := retire(cur)
				if err != nil {
					return nil, err
				}
				peaks = append(peaks, peak)
				cur = nil
			}
			// Each federation starts from a collected heap whose free
			// pages went back to the OS, with the peak-RSS mark reset, so
			// neither set-up time nor peak memory carries the previous
			// federation's garbage.
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
			t0 := time.Now()
			f, err := w.build(subSeed(seed, k), nil)
			if err != nil {
				return nil, fmt.Errorf("building %s sub-seed %d: %w", w.name, k, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			cur, curK = f, k
		}
		o := rep(cur, nil)
		runS := float64(o.runNS) / 1e9
		runs = append(runs, runS)
		rates = append(rates, float64(o.meter.samples)/runS)
		wires = append(wires, float64(o.wireBytes)/(1<<20))
		for _, ns := range o.meter.roundNS {
			rounds = append(rounds, float64(ns)/1e6)
		}
		r.attempted += o.meter.visits
		r.failed += o.meter.failed
		if firsts[k] == nil {
			firsts[k] = o
		} else {
			repeats++
			if !o.same(firsts[k]) {
				mismatches++
			}
		}
	}
	peak, err := retire(cur)
	if err != nil {
		return nil, err
	}
	peaks = append(peaks, peak)
	cur = nil
	r.check("repeat.bit_identical", repeats > 0 && mismatches == 0,
		"%d repetitions of a sub-seed, %d differ in accuracy or FedClust labels", repeats, mismatches)
	r.check("visits.no_failures", r.failed == 0, "%d of %d visits failed", r.failed, r.attempted)
	if err := outputChecks(r, w, seed, firsts[0]); err != nil {
		return nil, err
	}

	var accAvg, accClust []float64
	for _, o := range firsts {
		accAvg = append(accAvg, 100*o.accAvg)
		accClust = append(accClust, 100*o.accClust)
	}
	p50, p90 := quantile(rounds, 0.5), quantile(rounds, 0.9)
	tail := beyond(rounds, p90)
	r.check("round_ms_p90.support", tail >= 10, "%d of %d rounds lie beyond the p90", tail, len(rounds))
	reps := fmt.Sprintf("median of %d runs", len(runs))
	r.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups, IQR %.4g..%.4g", len(setups), quantile(setups, 0.25), quantile(setups, 0.75)))
	r.add("run_s", "s", median(runs), fmt.Sprintf("%s, IQR %.4g..%.4g, FedAvg then FedClust", reps, quantile(runs, 0.25), quantile(runs, 0.75)))
	r.add("train_samples_per_s", "1/s", median(rates), reps)
	r.add("round_ms_p50", "ms", p50, fmt.Sprintf("n=%d rounds", len(rounds)))
	r.add("round_ms_p90", "ms", p90, fmt.Sprintf("n=%d rounds, %d beyond", len(rounds), tail))
	r.add("acc_pct.FedAvg", "%", mean(accAvg), fmt.Sprintf("mean over %d sub-seeds, sub-seed 0: %.2f", w.subSeeds, accAvg[0]))
	r.add("acc_pct.FedClust", "%", mean(accClust), fmt.Sprintf("mean over %d sub-seeds, sub-seed 0: %.2f", w.subSeeds, accClust[0]))
	wireNote := "priced estimate, " + reps
	if w.tcp {
		wireNote = "measured off the sockets, " + reps
	}
	r.add("wire_MiB", "MiB", median(wires), wireNote)
	r.add("peak_rss_MiB", "MiB", median(peaks), fmt.Sprintf("median over %d federations of VmHWM from set-up to last run", len(peaks)))
	fmt.Printf("visit_error_rate %.6g (%d of %d visits failed)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	return r, nil
}

// retire closes a federation and returns the process's peak RSS since
// its set-up.
func retire(f *federation) (float64, error) {
	if err := f.close(); err != nil {
		return 0, fmt.Errorf("closing federation: %w", err)
	}
	return peakRSSMiB()
}

// outputChecks runs the per-invocation correctness checks that need a
// reference run, outside the timed region.
func outputChecks(r *report, w workload, seed uint64, first *outcome) error {
	ss := subSeed(seed, 0)
	switch {
	case w.name == "lenet-f64" && seed == 1:
		got := fmt.Sprintf("%.2f/%.2f", 100*first.accAvg, 100*first.accClust)
		r.check("lenet.cli_golden", got == "33.59/80.04", "FedAvg/FedClust %s%%, fedsim table1 -quick prints 33.59/80.04", got)
	case w.dtype == fl.Float32:
		ref := workload{name: "lenet-f64", dtype: fl.Float64}
		f, err := ref.build(ss, nil)
		if err != nil {
			return err
		}
		ref64 := methods.FedAvg{}.Run(f.env)
		d := math.Abs(ref64.FinalAcc - first.accAvg)
		r.check("f32.tracks_f64", d <= 0.05, "FedAvg final accuracy |f32-f64| = %.4f (bound 0.05)", d)
		r.check("f32.path_taken", ref64.FinalLoss != first.lossAvg, "FedAvg final loss f32 %.9g vs f64 %.9g (equal would mean a silent float64 fallback)",
			first.lossAvg, ref64.FinalLoss)
	case w.tcp:
		env, err := distSpec(ss).Build()
		if err != nil {
			return err
		}
		o := rep(&federation{env: env}, nil)
		r.check("tcp.matches_inprocess", o.same(first), "2-node TCP accuracies and FedClust labels vs the same spec in-process")
		r.check("tcp.bytes_match_estimate", o.wireBytes == first.wireBytes,
			"bytes measured off the sockets %d, priced in-process %d", first.wireBytes, o.wireBytes)
	}
	return nil
}

// traced is the traced run: an untraced baseline on sub-seed 0 for the
// overhead and the bit-identity check, then the same federation rebuilt
// with decorators and run once.
func traced(w workload, seed uint64, budget time.Duration, outDir string) (*report, error) {
	r := &report{}
	ss := subSeed(seed, 0)
	f, err := w.build(ss, nil)
	if err != nil {
		return nil, err
	}
	var base *outcome
	var runs []float64
	start := time.Now()
	identical := true
	for i := 0; i < 3 || (i < 8 && time.Since(start) < budget/3); i++ {
		o := rep(f, nil)
		runs = append(runs, float64(o.runNS)/1e9)
		if base == nil {
			base = o
		} else if !o.same(base) {
			identical = false
		}
	}
	if err := f.close(); err != nil {
		return nil, err
	}
	bt, replica := w.timeBuild(ss)

	tr := newTracer()
	tf, err := w.build(ss, tr)
	if err != nil {
		return nil, err
	}
	to := rep(tf, tr)
	if err := tf.close(); err != nil {
		return nil, err
	}
	env := tf.env
	r.attempted, r.failed = to.meter.visits, to.meter.failed
	r.check("repeat.bit_identical", identical, "%d untraced repetitions of sub-seed 0", len(runs))
	r.check("trace.bit_identical", to.same(base), "traced accuracies and FedClust labels vs untraced")
	r.check("trace.partition_replica", sameSplits(replica, env.Clients),
		"standalone generate+partition made the program's %d client splits", len(env.Clients))

	orphans := tr.link()
	self := tr.selfTimes()
	r.check("trace.spans_linked", orphans == 0, "%d of %d spans found no parent", orphans, len(tr.spans))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := tr.write(path, self); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)

	// Engine phases, straight from the round observer.
	p := to.meter.phases
	named := p.SampleNS + p.BroadcastNS + p.LocalNS + p.CombineNS + p.EvalNS + p.CheckpointNS
	glue := p.TotalNS - named
	r.check("trace.phases_sum", glue >= 0 && named+glue == p.TotalNS,
		"named phases %.4fs + glue %.4fs = round total %.4fs (glue is the remainder; negative means phases overlap)",
		float64(named)/1e9, float64(glue)/1e9, float64(p.TotalNS)/1e9)

	// Layer and visit spans.
	local, hasLocal := tr.index["engine.local"]
	layerS := map[string]float64{}
	var fwdCalls int64
	var localLayerNS, nodeLayerNS, visitNS int64
	var visitMS []float64
	for i := range tr.spans {
		s := &tr.spans[i]
		switch s.kind {
		case kLayer:
			name := tr.names[s.name]
			layerS[name] += float64(self[i]) / 1e9
			if strings.HasSuffix(name, ".fwd") {
				fwdCalls++
			}
			if hasLocal && tr.inLocal(i, local) {
				localLayerNS += self[i]
			}
			if s.lane != inProcess {
				nodeLayerNS += self[i]
			}
		case kVisit:
			visitNS += s.dur()
			visitMS = append(visitMS, float64(s.dur())/1e6)
		}
	}
	workers := env.WorkerCount()
	localCap := float64(p.LocalNS) * float64(workers)
	r.check("trace.nn_within_local", float64(localLayerNS) <= localCap,
		"layer self time in local phases %.4fs <= engine.local_s x %d workers = %.4fs", float64(localLayerNS)/1e9, workers, localCap/1e9)
	if w.tcp {
		r.check("trace.visit_split", nodeLayerNS <= visitNS,
			"node_busy %.4fs + wire_wait %.4fs = sum of visit time %.4fs", float64(nodeLayerNS)/1e9, float64(visitNS-nodeLayerNS)/1e9, float64(visitNS)/1e9)
	}

	// Kernel replay at the traced shapes and the schedule's call counts.
	convs := convLayers(env.NewModel())
	cen := &to.meter.cen
	for _, c := range convs {
		if cs := tr.convs[c.name]; cs != nil {
			ok := sameHist(cs.fwd, cen.fwd) && sameHist(cs.bwd, cen.bwd)
			r.check("trace.census_"+c.name, ok, "batches the %s decorator saw vs the schedule's count (%d/%d images fwd, %d/%d bwd)",
				c.name, images(cs.fwd), images(cen.fwd), images(cs.bwd), images(cen.bwd))
		}
	}
	rr := rng.New(seed).Derive(0xbe4c)
	costs := map[string]convCost{}
	var lowering, kernels float64
	for _, c := range convs {
		k := replayConv(c, cen, w.dtype == fl.Float32, rr)
		costs[c.name] = k
		lowering += k.im2col + k.col2im
		kernels += k.im2col + k.col2im + k.gemm
	}
	enc, dec, err := replayCodec(wire.Float64, tf.numParams, rr)
	if err != nil {
		return nil, err
	}

	untraced := median(runs)
	tracedS := float64(to.runNS) / 1e9
	na := func(ok bool, why string) string {
		if ok {
			return ""
		}
		return "n/a: " + why
	}
	r.add("trace.overhead_s", "s", tracedS-untraced, fmt.Sprintf("traced run_s %.4f - untraced median %.4f (n=%d)", tracedS, untraced, len(runs)))
	r.add("data.generate_s", "s", bt.generate.Seconds(), "")
	r.add("fl.partition_s", "s", bt.partition.Seconds(), "")
	r.add("core.formation_s", "s", float64(to.formationNS)/1e9, "FedClust Run entry to ObserveRunStart")
	r.add("core.formation_up_KiB", "KiB", float64(to.formationUpBytes)/1024, "")
	for _, ph := range []struct {
		name string
		ns   int64
	}{{"sample", p.SampleNS}, {"broadcast", p.BroadcastNS}, {"local", p.LocalNS}, {"combine", p.CombineNS}, {"eval", p.EvalNS}, {"glue", glue}} {
		r.add("engine."+ph.name+"_s", "s", float64(ph.ns)/1e9, "")
	}
	r.add("engine.rounds", "count", float64(len(to.meter.roundNS)), "")
	r.add("engine.mallocs_per_round", "count", float64(to.meter.warmMallocs)/float64(max(to.meter.warmRounds, 1)),
		fmt.Sprintf("runtime.MemStats delta over %d warm rounds", to.meter.warmRounds))
	r.add("fl.visits", "count", float64(to.meter.visits), "")
	nnNote := "in-process"
	switch {
	case w.tcp:
		nnNote = "node side"
	case w.dtype == fl.Float32:
		nnNote = "n/a: float32 layers are not decorated"
	}
	r.add("fl.local_busy_frac", "ratio", float64(localLayerNS)/math.Max(localCap, 1), nnNote)
	for _, l := range []string{"conv1", "conv2", "pool", "relu", "dense1", "dense2", "dense3"} {
		note := nnNote
		if _, seen := tr.index["nn."+l+".fwd"]; !seen && w.dtype == fl.Float64 {
			note = "n/a: no such layer in the model"
		}
		r.add("nn."+l+".fwd_s", "s", layerS["nn."+l+".fwd"], note)
		r.add("nn."+l+".bwd_s", "s", layerS["nn."+l+".bwd"], note)
	}
	r.add("nn.fwd_calls", "count", float64(fwdCalls), nnNote)
	kernelNote := "replay estimate"
	if w.dtype == fl.Float32 {
		kernelNote += ", float32 kernels"
	}
	for _, name := range []string{"conv1", "conv2"} {
		k, ok := costs[name]
		note := kernelNote
		if !ok {
			note = "n/a: no convolution in the model"
		}
		r.add("tensor.im2col_us."+name, "us", k.im2col, note)
		r.add("tensor.col2im_us."+name, "us", k.col2im, note)
		r.add("tensor.gemm_us."+name, "us", k.gemm, note)
	}
	r.add("tensor.lowering_share", "ratio", lowering/math.Max(kernels, 1e-9), "replay estimate: (im2col+col2im)/(im2col+col2im+gemm)")
	tcpNote := na(w.tcp, "no transport in this workload")
	r.add("transport.visit_ms_p50", "ms", quantile(visitMS, 0.5), strings.TrimSpace(fmt.Sprintf("n=%d %s", len(visitMS), tcpNote)))
	r.add("transport.visit_ms_p95", "ms", quantile(visitMS, 0.95), strings.TrimSpace(fmt.Sprintf("n=%d, %d beyond %s", len(visitMS), beyond(visitMS, quantile(visitMS, 0.95)), tcpNote)))
	r.add("transport.inflight_max", "count", float64(tr.inflightMax.Load()), tcpNote)
	r.add("transport.node_busy_s", "s", float64(nodeLayerNS)/1e9, tcpNote)
	r.add("transport.wire_wait_s", "s", float64(visitNS-nodeLayerNS)/1e9, tcpNote)
	r.add("wire.encode_us", "us", enc, fmt.Sprintf("replay estimate, %d float64 params", tf.numParams))
	r.add("wire.decode_us", "us", dec, fmt.Sprintf("replay estimate, %d float64 params", tf.numParams))
	return r, nil
}

// sameSplits reports whether two client populations hold the same
// train/test split sizes and the same first training label per client.
func sameSplits(a, b []*fl.Client) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ta, tb := a[i].Train, b[i].Train
		if ta.Len() != tb.Len() || a[i].Test.Len() != b[i].Test.Len() || (ta.Len() > 0 && ta.Y[0] != tb.Y[0]) {
			return false
		}
	}
	return true
}

// sameHist compares two batch-size histograms, ignoring trailing zeros.
func sameHist(a, b []int64) bool {
	for len(a) > 0 && a[len(a)-1] == 0 {
		a = a[:len(a)-1]
	}
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
