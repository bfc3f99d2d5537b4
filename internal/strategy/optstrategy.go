package strategy

import (
	"math"

	"repro/internal/tree"
)

// AllLRH allows all six decomposition choices; it is the default
// restriction for OptStrategy and yields the paper's RTED strategy.
var AllLRH = [numChoices]bool{true, true, true, true, true, true}

// LROnly restricts the strategy search to left and right paths (the
// Zhang–Shasha family); used by the ablation experiments.
var LROnly = [numChoices]bool{LeftF: true, LeftG: true, RightF: true, RightG: true}

// HOnly restricts the search to heavy paths (the Klein/Demaine family).
var HOnly = [numChoices]bool{HeavyF: true, HeavyG: true}

// Opt computes the optimal LRH strategy for the pair (f, g) and the exact
// number of relevant subproblems GTED computes with it. It is a direct
// implementation of Algorithm 2 (OptStrategy) and runs in O(|f|·|g|)
// time; its working memory is O(height(f)·|g|) cost sums plus the
// |f|·|g| choice bytes of the returned Array (see OptScratch).
func Opt(f, g *tree.Tree) (*Array, int64) {
	return OptRestricted(f, g, AllLRH)
}

// OptRestricted is Opt with the candidate set restricted to the allowed
// choices; at least one choice must be allowed. Restrictions support the
// ablation experiments (e.g. "how much do heavy paths buy over {L,R}?").
func OptRestricted(f, g *tree.Tree, allowed [numChoices]bool) (*Array, int64) {
	var s OptScratch
	return s.opt(f, g, NewDecomp(f), NewDecomp(g), allowed)
}

// OptD is Opt with caller-precomputed decompositions, so that a batch of
// pairs over the same trees computes each tree's Decomp once.
func OptD(f, g *tree.Tree, df, dg *Decomp) (*Array, int64) {
	var s OptScratch
	return s.opt(f, g, df, dg, AllLRH)
}

// OptScratch holds the working memory of OptStrategy for reuse across
// pairs: O(height(f)·|g|) cost sums and the |f|·|g| choice bytes of the
// returned Array. Buffers grow to the largest pair served; the returned
// strategy Array is owned by the scratch and is overwritten by the next
// call, so it must not be retained after the pair's GTED run.
//
// The v-side sums of Algorithm 2 (Lv/Rv/Hv, one |g|-row per node v of f)
// are indexed by depth(v)+1 instead of by v: every child adds into its
// parent's row, and in postorder the nodes whose rows are live (read
// later) form one root-to-node path, on which no two nodes share a depth.
// A node clears its row after reading it, so the rows are all zero
// between calls and need no per-pair zeroing. Row 0 is the root's sink.
type OptScratch struct {
	vs  []pathSums // v-side sums, one |g|-row per depth of f plus 1
	ws  []pathSums // w-side sums for the current v; slot |g| is the root's sink
	gn  []gNode    // per-w constants of g
	arr Array
}

// pathSums is one cell of Algorithm 2's cost-sum arrays: the summed
// optimal costs of the relevant subtrees hanging off the left, right and
// heavy path.
type pathSums struct{ l, r, h int64 }

// gNode holds what the inner loop reads of one node w of g: |G_w|, its
// decomposition counts, its parent (|g|, the sink slot, for the root)
// and which of the parent's paths it continues (kind bits).
type gNode struct {
	size, a, fl, fr int64
	par             int32
	kind            uint8
}

// Child-kind bits of a node under its parent: which of the parent's
// left, right and heavy paths it continues.
const (
	kindLeft uint8 = 1 << iota
	kindRight
	kindHeavy
)

// Opt computes the optimal LRH strategy for (f, g) like OptD, drawing
// all working memory (including the returned Array) from the scratch.
func (s *OptScratch) Opt(f, g *tree.Tree, df, dg *Decomp) (*Array, int64) {
	return s.opt(f, g, df, dg, AllLRH)
}

// opt is Algorithm 2 over the candidate set allowed.
//
// Each pair's six candidate costs are compared as keys cost<<3 | choice,
// so one branch-free min yields both the cheapest cost and, among equal
// costs, the smallest Choice: the paper's tie order. A disallowed choice
// has key MaxInt64. Keys need costs below 2^60, which a pair reaches only
// past 10^18 subproblems.
func (s *OptScratch) opt(f, g *tree.Tree, df, dg *Decomp, allowed [numChoices]bool) (*Array, int64) {
	nf, ng := f.Len(), g.Len()
	// The v-side rows rely on the all-zero invariant (see OptScratch);
	// fresh capacity comes zeroed.
	if n := (f.Height() + 2) * ng; cap(s.vs) < n {
		s.vs = make([]pathSums, n)
	}
	if cap(s.ws) < ng+1 {
		s.ws = make([]pathSums, ng+1)
		s.gn = make([]gNode, ng)
	}
	vs, ws, gn := s.vs[:cap(s.vs)], s.ws[:ng+1], s.gn[:ng]
	for w := range gn {
		gn[w] = gNode{size: int64(g.Size(w)), a: dg.A[w], fl: dg.FL[w], fr: dg.FR[w], par: int32(ng)}
		if p := g.Parent(w); p != -1 {
			gn[w].par, gn[w].kind = int32(p), childKind(g, w, p)
		}
	}
	if cap(s.arr.Choices) < nf*ng {
		s.arr.Choices = make([]Choice, nf*ng)
	}
	s.arr = Array{NF: nf, NG: ng, Choices: s.arr.Choices[:nf*ng], name: "RTED"}

	var tag [numChoices]int64
	for c := range tag {
		tag[c] = int64(c)
		if !allowed[c] {
			tag[c] = math.MaxInt64
		}
	}
	var cmin int64
	for v := 0; v < nf; v++ {
		// The w-side sums are per-v quantities: they accumulate costs of
		// pairs (F_v, G') for relevant subtrees G' of G_w, so they must
		// restart for every v. (The paper's pseudocode only spells out
		// the leaf reset; internal entries are accumulated with += and
		// would otherwise leak across v-iterations.)
		clear(ws)
		szv, av, flv, frv := int64(f.Size(v)), df.A[v], df.FL[v], df.FR[v]
		// v reads the row its children filled and adds into its parent's
		// row, one depth up (row 0 for the root: a sink cleared below).
		dep := f.Depth(v)
		row, par := vs[(dep+1)*ng:(dep+2)*ng], vs[dep*ng:(dep+1)*ng]
		var kind uint8
		if pv := f.Parent(v); pv != -1 {
			kind = childKind(f, v, pv)
		}
		choices := s.arr.Choices[v*ng : (v+1)*ng]
		for w := range gn {
			x, vw, ww := &gn[w], row[w], ws[w]

			// The six candidate costs (Algorithm 2 lines 7–12).
			key := min(
				(szv*x.a+vw.h)<<3|tag[HeavyF],
				(x.size*av+ww.h)<<3|tag[HeavyG],
				(szv*x.fl+vw.l)<<3|tag[LeftF],
				(x.size*flv+ww.l)<<3|tag[LeftG],
				(szv*x.fr+vw.r)<<3|tag[RightF],
				(x.size*frv+ww.r)<<3|tag[RightG])
			cmin = key >> 3
			choices[w] = Choice(key & 7)

			// Propagate cost sums to the parents (lines 15–22): if the
			// child continues the parent's path the partial sum carries
			// over, otherwise the child roots a relevant subtree and
			// contributes its full optimal cost.
			par[w].l += carry(kind, kindLeft, vw.l, cmin)
			par[w].r += carry(kind, kindRight, vw.r, cmin)
			par[w].h += carry(kind, kindHeavy, vw.h, cmin)
			p := &ws[x.par]
			p.l += carry(x.kind, kindLeft, ww.l, cmin)
			p.r += carry(x.kind, kindRight, ww.r, cmin)
			p.h += carry(x.kind, kindHeavy, ww.h, cmin)
		}
		clear(row)
	}
	// The root wrote its sums into the sink row 0.
	clear(vs[:ng])
	// cmin still holds the cost of the last pair, (root(F), root(G)),
	// which is the total optimal cost.
	return &s.arr, cmin
}

// carry returns what a child adds to its parent's sum for one path: its
// own partial sum if it continues that path (bit set in kind), else its
// optimal cost, as the root of a relevant subtree.
func carry(kind, bit uint8, sum, cmin int64) int64 {
	if kind&bit != 0 {
		return sum
	}
	return cmin
}

// childKind returns the kind bits of x under its parent p.
func childKind(t *tree.Tree, x, p int) uint8 {
	var k uint8
	if x == t.LeftChild(p) {
		k |= kindLeft
	}
	if x == t.RightChild(p) {
		k |= kindRight
	}
	if x == t.HeavyChild(p) {
		k |= kindHeavy
	}
	return k
}
