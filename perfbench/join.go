package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"repro/batch"
	"repro/corpus"
	"repro/index"
	"repro/internal/tree"
)

// runJoin is join_clusters: similarity self-joins through corpus.Join
// with each corpus's maintained histogram index, cycling through the
// corpora in a closed loop. An op is one join.
func runJoin(cfg config) (*outcome, error) {
	sets := make([][]*tree.Tree, joinCorpora)
	for k := range sets {
		sets[k] = joinCorpus(cfg.seed, k)
	}
	o := &outcome{}
	if cfg.trace {
		return o, traceJoin(cfg, o, sets)
	}

	cs := make([]*corpus.Corpus, joinCorpora)
	es := make([]*batch.Engine, joinCorpora)
	var setups []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC() // each repetition starts from the same heap
		start := time.Now()
		for k, trees := range sets {
			cs[k] = corpus.New(corpus.WithHistogramIndex())
			for _, t := range trees {
				cs[k].Add(t)
			}
			es[k] = cs[k].Engine(batch.WithWorkers(1))
			cs[k].Warm(es[k])
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.set("setup_s", median(setups))

	opts := batch.JoinOptions{Mode: batch.IndexHistogram}
	var st batch.JoinStats
	for k, c := range cs { // warm-up, and the filter accounting
		_, s := c.Join(es[k], joinTau, opts)
		st.Merge(s)
	}
	var sums []uint64
	w := newBestOf(cfg.budget(), joinCorpora)
	for i := 0; time.Since(w.start) < w.phase; i++ {
		k := i % joinCorpora
		t0 := time.Now()
		ms, _ := cs[k].Join(es[k], joinTau, opts)
		w.observe(k, time.Since(t0))
		sums = append(sums, matchSum(ms))
	}
	if err := w.set(o); err != nil {
		return nil, err
	}

	// Every join must return the enumerate-mode join's match set.
	want := make([]uint64, joinCorpora)
	matches := 0
	for k, c := range cs {
		ref, _ := c.Join(es[k], joinTau, batch.JoinOptions{Mode: batch.IndexEnumerate})
		want[k] = matchSum(ref)
		matches += len(ref)
	}
	o.attempted = int64(len(sums))
	for i, s := range sums {
		if s != want[i%joinCorpora] {
			o.failed++
		}
	}
	o.set("success_rate", 1-ratio(float64(o.failed), float64(o.attempted)))
	pairs := joinCorpora * pairCount(len(sets[0]))
	o.invalid = append(o.invalid, joinDecisions(pairs, st.Comparisons, st.LowerPruned, st.UpperAccepted, st.ExactComputed)...)
	o.note("%d corpora of %d trees, tau %d: %d candidates of %d pairs, %d lower-pruned, %d upper-accepted, %d exact (%d subproblems), %d matches",
		joinCorpora, len(sets[0]), joinTau, st.Comparisons, pairs, st.LowerPruned, st.UpperAccepted, st.ExactComputed, st.Subproblems, matches)
	return o, nil
}

func pairCount(n int) int { return n * (n - 1) / 2 }

// joinDecisions explains each filter stage that decided no pair: the
// workload exists to make every stage do real work.
func joinDecisions(pairs, candidates, lower, upper, exact int) []string {
	var why []string
	for _, s := range []struct {
		stage string
		n     int
	}{{"index", pairs - candidates}, {"lower bound", lower}, {"upper bound", upper}, {"bounded DP", exact}} {
		if s.n == 0 {
			why = append(why, fmt.Sprintf("the %s decided no pair", s.stage))
		}
	}
	return why
}

// matchSum fingerprints a match set, distances included.
func matchSum(ms []corpus.Match) uint64 {
	h := fnv.New64a()
	for _, m := range ms {
		fmt.Fprintf(h, "%d %d %v\n", m.I, m.J, m.Dist)
	}
	return h.Sum64()
}

// traceJoin is join_clusters' traced run: the same joins, evaluated one
// candidate at a time through the traced pipeline (index probes, bounds,
// strategy, bounded GTED), each round once untraced and once traced.
// Both run on one goroutine, so the per-layer times are busy times. The
// pipeline is a copy of batch's join evaluator, so every round's counts
// must equal corpus.Join's JoinStats on the same corpora, or the run is
// marked incorrect.
func traceJoin(cfg config, o *outcome, sets [][]*tree.Tree) error {
	zeroLayerMetrics(o)
	tr := newTracer()
	plain, traced := newPipeline(nil), newPipeline(tr)
	type joinSet struct {
		ix     *index.Histogram
		pp, tp []*prepped
		want   uint64
	}
	js := make([]joinSet, len(sets))
	var want batch.JoinStats // corpus.Join's accounting for one round
	var prep time.Duration
	for k, trees := range sets {
		j := &js[k]
		j.ix = index.NewHistogram()
		for _, t := range trees {
			j.ix.Add(t)
			start := time.Now()
			j.tp = append(j.tp, traced.prepare(t))
			prep += time.Since(start)
			j.pp = append(j.pp, plain.prepare(t))
		}
		// The traced joins must return the enumerate-mode join's matches.
		e := batch.New()
		ref, _ := e.Join(e.PrepareAll(trees), joinTau, true)
		cms := make([]corpus.Match, len(ref))
		for i, m := range ref {
			cms[i] = corpus.Match{I: corpus.ID(m.I), J: corpus.ID(m.J), Dist: m.Dist}
		}
		j.want = matchSum(cms)
		joinPipeline(plain, j.ix, j.pp) // warm-up
		// The program's own indexed join, whose accounting the pipeline's
		// counts must equal.
		c := corpus.New(corpus.WithHistogramIndex())
		for _, t := range trees {
			c.Add(t)
		}
		ce := c.Engine()
		c.Warm(ce)
		_, st := c.Join(ce, joinTau, batch.JoinOptions{Mode: batch.IndexHistogram})
		want.Merge(st)
	}
	o.set("batch.prepare_us", float64(prep.Microseconds())/float64(joinCorpora*len(sets[0])))

	var plainT, tracedT time.Duration
	var counts [3]int
	var candidates, matches int
	var mismatch string // the last round whose counts differ from corpus.Join's
	rounds := 0
	deadline := time.Now().Add(cfg.budget())
	for time.Now().Before(deadline) {
		counts, candidates, matches = [3]int{}, 0, 0
		for _, j := range js {
			t0 := time.Now()
			joinPipeline(plain, j.ix, j.pp)
			t1 := time.Now()
			s := tr.op("op.join")
			res := joinPipeline(traced, j.ix, j.tp)
			tr.end(s)
			tracedT += time.Since(t1)
			plainT += t1.Sub(t0)
			o.attempted++
			if pipelineSum(res) != j.want {
				o.failed++
			}
			candidates += len(res)
			for _, r := range res {
				counts[r.kind]++
				if r.dist < joinTau {
					matches++
				}
			}
		}
		rounds++
		if candidates != want.Comparisons || counts[kindLower] != want.LowerPruned ||
			counts[kindUpper] != want.UpperAccepted || counts[kindExact] != want.ExactComputed {
			mismatch = fmt.Sprintf("round %d: pipeline decided %d candidates as %d lower / %d upper / %d exact, corpus.Join %d as %d / %d / %d",
				rounds, candidates, counts[kindLower], counts[kindUpper], counts[kindExact],
				want.Comparisons, want.LowerPruned, want.UpperAccepted, want.ExactComputed)
		}
	}
	if mismatch != "" {
		o.invalid = append(o.invalid, mismatch)
	}
	r64 := int64(rounds)
	if traced.boundSubs != r64*want.Subproblems || traced.pruned != r64*want.PrunedSubproblems || traced.rowCells != r64*want.RowCells {
		o.invalid = append(o.invalid, fmt.Sprintf("per round the pipeline counted %d subproblems, %d pruned, %d row cells; corpus.Join %d, %d, %d",
			traced.boundSubs/r64, traced.pruned/r64, traced.rowCells/r64, want.Subproblems, want.PrunedSubproblems, want.RowCells))
	}
	o.invalid = append(o.invalid, joinDecisions(joinCorpora*pairCount(len(sets[0])), candidates,
		counts[kindLower], counts[kindUpper], counts[kindExact])...)

	// Counts are per round (one join of every corpus); times per join.
	self := tr.selfTimes()
	joins := float64(o.attempted)
	o.set("index.candidates", float64(candidates))
	o.set("index.probe_ms", ms(self["index.CandidatesBelow"])/joins)
	o.set("index.precision", ratio(float64(matches), float64(candidates)))
	o.set("bounds.lower_pruned", float64(counts[kindLower]))
	o.set("bounds.upper_accepted", float64(counts[kindUpper]))
	o.set("bounds.exact_share", ratio(float64(counts[kindExact]), float64(candidates)))
	o.set("bounds.self_ms", ms(self["bounds.LowerProfiled"]+self["bounds.Constrained"])/joins)
	o.set("strategy.ns_per_cell", ratio(float64(self["strategy.Opt"]), float64(traced.cells)))
	o.set("gted.bounded_ns_per_subproblem", ratio(float64(self["gted.RunBounded"]), float64(traced.boundSubs)))
	o.set("gted.pruned_share", ratio(float64(traced.pruned), float64(traced.pruned+traced.boundSubs)))
	o.set("gted.subproblems", float64(traced.boundSubs/int64(rounds)))
	o.set("gted.row_cells", float64(traced.rowCells/int64(rounds)))
	o.set("trace.overhead_share", ratio(float64(tracedT), float64(plainT))-1)
	layerShares(o, tr, tr.total("op.join"), "op.join", 1)
	o.note("%d rounds of %d joins: pipeline %v, traced pipeline %v; per round %d candidates, %d matches",
		rounds, joinCorpora, plainT.Round(time.Millisecond), tracedT.Round(time.Millisecond), candidates, matches)
	path, err := tr.dump(cfg.out, cfg.workload, cfg.seed)
	if path != "" {
		o.note("spans: %s (%d)", path, len(tr.spans))
	}
	return err
}

// pairResult is one candidate's outcome in the traced join.
type pairResult struct {
	i, j int
	dist float64
	kind int
}

// joinPipeline is corpus.Join's indexed path on the pipeline: probe the
// index once per tree, then run every candidate through the filters in
// (I, J) order.
func joinPipeline(p *pipeline, ix *index.Histogram, ps []*prepped) []pairResult {
	type cand struct {
		i, j int
		lb   float64
	}
	var cands []cand
	var buf []index.Candidate
	for j := range ps {
		buf = p.probe(ix, j, joinTau, buf)
		for _, c := range buf {
			cands = append(cands, cand{c.ID, j, c.LB})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		return cands[a].i < cands[b].i || (cands[a].i == cands[b].i && cands[a].j < cands[b].j)
	})
	out := make([]pairResult, len(cands))
	for k, c := range cands {
		d, kind := p.filtered(ps[c.i], ps[c.j], c.lb, joinTau)
		out[k] = pairResult{c.i, c.j, d, kind}
	}
	return out
}

// pipelineSum fingerprints the matches among a traced join's results,
// as matchSum does a corpus join's.
func pipelineSum(rs []pairResult) uint64 {
	var ms []corpus.Match
	for _, r := range rs {
		if r.dist < joinTau {
			ms = append(ms, corpus.Match{I: corpus.ID(r.i), J: corpus.ID(r.j), Dist: r.dist})
		}
	}
	return matchSum(ms)
}
