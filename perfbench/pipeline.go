package main

import (
	"repro/index"
	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/gted"
	"repro/internal/strategy"
	"repro/internal/tree"
)

// pipeline is the traced run's copy of the batch engine's per-pair path
// (batch.Engine's pairRunner and filtered join evaluator), assembled
// from the layers' public functions so a span can sit around each call:
// OptScratch.Opt (strategy), NewInArena(...).Run / RunBounded (gted),
// LowerProfiled / Constrained (bounds) and CandidatesBelow (index). It
// runs the unit cost model with the engine's default band settings, and
// it counts the work it does. With a nil tracer it records nothing, which
// is how a traced run times the same path untraced.
type pipeline struct {
	tr    *tracer
	in    *cost.Interner
	opt   strategy.OptScratch
	arena *gted.Arena

	// Work counters.
	cells      int64 // strategy (v, w) cells
	subs       int64 // unbounded subproblems
	boundSubs  int64 // bounded subproblems
	pruned     int64 // bounded subproblems skipped
	rowCells   int64
	predicted  int64 // strategy-predicted subproblems of unbounded runs
	identityKO int64 // unbounded runs whose realized count differs from the prediction
}

func newPipeline(tr *tracer) *pipeline {
	return &pipeline{tr: tr, in: cost.NewInterner(), arena: gted.NewArena()}
}

// prepped holds the per-tree inputs batch.Engine.Prepare caches.
type prepped struct {
	t       *tree.Tree
	costs   *cost.PerTree
	decomp  *strategy.Decomp
	lfm     []int32
	spectra []int32
	prof    *bounds.Profile
}

func (p *pipeline) prepare(t *tree.Tree) *prepped {
	return &prepped{
		t:       t,
		costs:   cost.CompileTree(cost.Unit{}, t, p.in),
		decomp:  strategy.NewDecomp(t),
		lfm:     gted.MirrorLeafmost(t),
		spectra: gted.DepthSpectra(t),
		prof:    bounds.NewProfile(t),
	}
}

// runner builds the pair's GTED runner: pair costs by slice sharing, the
// optimal strategy, and the arena-backed runner with default settings.
func (p *pipeline) runner(f, g *prepped) (*gted.Runner, int64) {
	s := p.tr.begin("batch.pair")
	cm := cost.PairPrepared(cost.Unit{}, f.costs, g.costs)
	p.tr.end(s)
	s = p.tr.begin("strategy.Opt")
	st, predicted := p.opt.Opt(f.t, g.t, f.decomp, g.decomp)
	p.tr.end(s)
	p.cells += int64(f.t.Len()) * int64(g.t.Len())
	r := gted.NewInArena(f.t, g.t, cm, st, p.arena)
	r.SetMirrorLeafmost(f.lfm, g.lfm)
	r.SetBanding(true)
	r.SetSparseRows(true)
	r.SetSharpBands(true)
	r.SetDepthSpectra(f.spectra, g.spectra)
	return r, predicted
}

// distance is batch.Engine.Distance.
func (p *pipeline) distance(f, g *prepped) float64 {
	r, predicted := p.runner(f, g)
	s := p.tr.begin("gted.Run")
	d := r.Run()
	p.tr.end(s)
	st := r.Stats()
	p.subs += st.Subproblems
	p.rowCells += st.RowCells
	p.predicted += predicted
	if st.Subproblems != predicted {
		p.identityKO++
	}
	return d
}

// Outcome kinds of a filtered pair, as batch's join evaluator counts them.
const (
	kindExact = iota
	kindLower
	kindUpper
)

// filtered is the join evaluator's per-pair pipeline: the lower bound
// (with the candidate's index bound folded in), the constrained upper
// bound, then cutoff-seeded bounded GTED.
func (p *pipeline) filtered(f, g *prepped, candLB, tau float64) (float64, int) {
	s := p.tr.begin("bounds.LowerProfiled")
	lb := bounds.LowerProfiled(f.prof, g.prof)
	p.tr.end(s)
	if candLB > lb {
		lb = candLB
	}
	if lb >= tau {
		return lb, kindLower
	}
	s = p.tr.begin("bounds.Constrained")
	ub := bounds.Constrained(f.t, g.t)
	p.tr.end(s)
	if ub < tau {
		return ub, kindUpper
	}
	r, _ := p.runner(f, g)
	s = p.tr.begin("gted.RunBounded")
	d, ok := r.RunBounded(tau)
	p.tr.end(s)
	st := r.Stats()
	p.boundSubs += st.Subproblems
	p.pruned += st.PrunedSubproblems
	p.rowCells += st.RowCells
	if !ok {
		d = tau
	}
	return d, kindExact
}

// probe is index.Histogram.CandidatesBelow under a span.
func (p *pipeline) probe(ix *index.Histogram, q int, tau float64, buf []index.Candidate) []index.Candidate {
	s := p.tr.begin("index.CandidatesBelow")
	buf = ix.CandidatesBelow(q, tau, buf)
	p.tr.end(s)
	return buf
}
