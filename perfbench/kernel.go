package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/batch"
	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/tree"
	"repro/internal/zs"
)

// setupReps is how many times a workload repeats its set-up; setup_s is
// the median. kernel_shapes' set-up takes about a millisecond, so it
// repeats more.
const (
	setupReps       = 15
	kernelSetupReps = 201
)

// runKernel is kernel_shapes: one client, closed loop, calling
// batch.Engine.Distance on a fixed list of prepared pairs. An op is one
// pair.
func runKernel(cfg config) (*outcome, error) {
	pairs := kernelPairs(cfg.seed)
	var trees []*tree.Tree
	for _, p := range pairs {
		trees = append(trees, p.f, p.g)
	}
	o := &outcome{}
	if cfg.trace {
		return o, traceKernel(cfg, o, pairs, trees)
	}

	e := batch.New(batch.WithWorkers(1))
	var ps []*batch.PreparedTree
	var setups []float64
	for r := 0; r < kernelSetupReps; r++ {
		runtime.GC() // each repetition starts from the same heap
		start := time.Now()
		ps = e.PrepareAll(trees)
		setups = append(setups, time.Since(start).Seconds())
	}
	o.set("setup_s", median(setups))

	for i := range pairs { // warm the pooled arena to the largest pair
		e.Distance(ps[2*i], ps[2*i+1])
	}
	var got [][]float64 // per pass, per pair
	w := newBestOf(cfg.budget(), len(pairs))
	for time.Since(w.start) < w.phase {
		pass := make([]float64, len(pairs))
		for i := range pairs {
			t0 := time.Now()
			pass[i] = e.Distance(ps[2*i], ps[2*i+1])
			w.observe(i, time.Since(t0))
		}
		got = append(got, pass)
	}
	elapsed := time.Since(w.start)
	if err := w.set(o); err != nil {
		return nil, err
	}

	refs, bad, _ := checkKernel(e, ps, pairs, o)
	o.attempted = int64(len(got) * len(pairs))
	for _, pass := range got {
		for i, d := range pass {
			if bad[i] || d != refs[i] {
				o.failed++
			}
		}
	}
	o.set("success_rate", 1-ratio(float64(o.failed), float64(o.attempted)))
	o.note("%d pairs, %d passes in %v", len(pairs), len(got), elapsed.Round(time.Millisecond))
	return o, nil
}

// checkKernel computes every pair's reference distance with classic
// Zhang–Shasha and holds the traced run's pipeline to the engine: on
// every pair the pipeline must return the reference distance and realize
// the subproblem count batch.Engine.Compute reports, and that count must
// be the one the strategy predicted (the paper's cost identity). It
// returns the references, the pairs that break any of these, and the
// engine's subproblem count for one pass of the list.
func checkKernel(e *batch.Engine, ps []*batch.PreparedTree, pairs []kernelPair, o *outcome) (refs []float64, bad []bool, subs int64) {
	bps := make([]batch.Pair, len(pairs))
	for i := range pairs {
		bps[i] = batch.Pair{F: ps[2*i], G: ps[2*i+1]}
	}
	res := e.Compute(bps)
	p := newPipeline(nil)
	refs = make([]float64, len(pairs))
	bad = make([]bool, len(pairs))
	for i, kp := range pairs {
		refs[i] = zsDistance(kp.f, kp.g)
		subs += res[i].Subproblems
		identityKO, before := p.identityKO, p.subs
		d := p.distance(p.prepare(kp.f), p.prepare(kp.g))
		for _, ko := range []struct {
			broken bool
			what   string
		}{
			{p.identityKO != identityKO, "the cost identity is broken"},
			{d != refs[i], fmt.Sprintf("pipeline distance %v != Zhang-Shasha %v", d, refs[i])},
			{p.subs-before != res[i].Subproblems, fmt.Sprintf("pipeline subproblems %d != engine %d", p.subs-before, res[i].Subproblems)},
		} {
			if ko.broken {
				bad[i] = true
				o.note("%s on %s", ko.what, kp.name)
			}
		}
	}
	return refs, bad, subs
}

// zsDistance runs classic Zhang–Shasha in whichever orientation costs it
// fewer subproblems: mirroring both trees preserves the distance, and
// turns the right-branch shapes (Zhang–Shasha's worst case) into
// left-branch ones.
func zsDistance(f, g *tree.Tree) float64 {
	left := zsCost(f, g, strategy.Left)
	right := zsCost(f, g, strategy.Right)
	if right < left {
		f, g = f.Mirror(), g.Mirror()
	}
	return zs.Dist(f, g, cost.Unit{})
}

func zsCost(f, g *tree.Tree, pt strategy.PathType) float64 {
	return float64(strategy.NewDecomp(f).F(f.Root(), pt)) * float64(strategy.NewDecomp(g).F(g.Root(), pt))
}

// traceKernel is kernel_shapes' traced run. Each round runs the list
// three ways: through batch.Engine.Distance (the untraced op), through
// the traced pipeline with a nil tracer, and through the traced pipeline
// recording spans.
func traceKernel(cfg config, o *outcome, pairs []kernelPair, trees []*tree.Tree) error {
	zeroLayerMetrics(o)
	e := batch.New(batch.WithWorkers(1))
	start := time.Now()
	ps := e.PrepareAll(trees)
	o.set("batch.prepare_us", float64(time.Since(start).Microseconds())/float64(len(trees)))

	tr := newTracer()
	plain, traced := newPipeline(nil), newPipeline(tr)
	pp := make([]*prepped, len(trees))
	for i, t := range trees {
		pp[i] = plain.prepare(t)
	}
	tp := make([]*prepped, len(trees))
	for i, t := range trees {
		tp[i] = traced.prepare(t)
	}
	refs, bad, passSubs := checkKernel(e, ps, pairs, o)
	for i := range pairs { // warm every path
		e.Distance(ps[2*i], ps[2*i+1])
		plain.distance(pp[2*i], pp[2*i+1])
	}
	var engineT, plainT, tracedT time.Duration
	rounds := 0
	got := make([]float64, len(pairs))
	deadline := time.Now().Add(cfg.budget())
	for time.Now().Before(deadline) {
		t0 := time.Now()
		for i := range pairs {
			e.Distance(ps[2*i], ps[2*i+1])
		}
		t1 := time.Now()
		for i := range pairs {
			plain.distance(pp[2*i], pp[2*i+1])
		}
		t2 := time.Now()
		for i := range pairs {
			s := tr.op("op.pair")
			got[i] = traced.distance(tp[2*i], tp[2*i+1])
			tr.end(s)
		}
		t3 := time.Now()
		engineT += t1.Sub(t0)
		plainT += t2.Sub(t1)
		tracedT += t3.Sub(t2)
		rounds++
		for i, d := range got {
			if bad[i] || d != refs[i] {
				o.failed++
			}
		}
	}
	o.attempted = int64(rounds * len(pairs))
	if traced.identityKO > 0 {
		o.invalid = append(o.invalid, fmt.Sprintf("%d traced runs broke the cost identity", traced.identityKO))
	}
	if traced.subs != int64(rounds)*passSubs {
		o.invalid = append(o.invalid, fmt.Sprintf("the traced pipeline realized %d subproblems per pass, the engine %d",
			traced.subs/int64(rounds), passSubs))
	}

	self := tr.selfTimes()
	opTime := tr.total("op.pair")
	strat, dp := self["strategy.Opt"], self["gted.Run"]
	o.set("strategy.ns_per_cell", ratio(float64(strat), float64(traced.cells)))
	o.set("gted.ns_per_subproblem", ratio(float64(dp), float64(traced.subs)))
	o.set("gted.subproblems", float64(traced.subs/int64(rounds)))
	o.set("gted.row_cells", float64(traced.rowCells/int64(rounds)))
	// The engine's own glue is its time beyond the strategy pass and the
	// DP, scaled to the engine's share of the rounds.
	engineGlue := float64(engineT) - float64(strat+dp)*ratio(float64(plainT), float64(tracedT))
	o.set("batch.overhead_share", ratio(engineGlue, float64(engineT)))
	o.set("trace.overhead_share", ratio(float64(tracedT), float64(plainT))-1)
	layerShares(o, tr, opTime, "op.pair", 1)
	o.note("%d rounds of %d pairs: engine %v, pipeline %v, traced pipeline %v", rounds, len(pairs),
		engineT.Round(time.Millisecond), plainT.Round(time.Millisecond), tracedT.Round(time.Millisecond))
	o.note("per pass: %d subproblems (strategy predicted %d), %d strategy cells", traced.subs/int64(rounds),
		traced.predicted/int64(rounds), traced.cells/int64(rounds))
	path, err := tr.dump(cfg.out, cfg.workload, cfg.seed)
	if path != "" {
		o.note("spans: %s (%d)", path, len(tr.spans))
	}
	return err
}
