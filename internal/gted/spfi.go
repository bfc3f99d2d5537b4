package gted

import (
	"math"

	"repro/internal/cost"
	"repro/internal/tree"
)

// This file implements ΔI, the single-path function for arbitrary
// root-leaf paths (Demaine et al.'s "compute period" in the paper's
// terminology). It computes δ(F_x, G_y) for every x on the given path of
// F and every subtree G_y of G, evaluating exactly
// |F| × |A(G)| relevant subproblems (Lemma 4).
//
// F-side: the relevant subforests of F w.r.t. the path form the
// deterministic removal chain of Definition 3 (remove the root, strip
// off-path subtrees left-to-right node by node, then right-to-left, then
// recurse into the next path subtree). State t of the chain is F minus
// its first t removed nodes; the possible transitions are "remove one
// node" (t → t+1) and "remove the whole leftmost/rightmost subtree"
// (t → t + size(subtree)).
//
// GTED sends only heavy paths here, and for v on a heavy path chain(F_v)
// is the suffix of the chain of v's heavy-path top that starts at v's
// tree state: past that state the top's chain is exactly F_v's removal
// sequence. So a run builds, on its first ΔI call per orientation, one
// chainTable per side holding every heavy-path top's chain (O(n log n)
// entries, each node lying in O(log n) light subtrees) in the arena, and
// each call reads its chain as a suffix. The suffix sums of delete costs
// are the same bits, being summed in the same order from the same end.
// The reference counts are the same except at the suffix's first state,
// which no suffix state reads: a state before the suffix reads at most
// the next tree state's row. Each call copies its counts, since the row
// pool counts them down. The side is chosen by orientation, not by tree:
// a self-distance run passes one tree twice, with delete costs on one
// side and insert costs on the other.
//
// G-side: a forest of the full decomposition A(G) is exactly a node set
// {x : pre(x) ≥ a ∧ post(x) ≤ b} (left removals erase a preorder prefix,
// right removals a postorder suffix), so forests are indexed by local
// (a, b) pairs. Storage keeps, for every local preorder position a, the
// contiguous range b ∈ [post(node at a), size) — which enumerates every
// canonical forest plus a thin band of duplicate cells (same node set,
// larger b) that are filled by O(1) copies and not counted.
//
// Rows (one per chain state, |A(G)| cells each) are produced bottom-up
// and released by reference counting once no later state reads them.
//
// Exact and bounded runs take different loops. A bounded run reads every
// forest through gside.cell, which canonicalizes a first, and tests the
// band per read (spfIBounded). An exact run (spfIExact) instead runs one
// closure-free loop per state kind — whole tree, right strip, left
// strip — over per-call cell-index tables, so no read canonicalizes:
//
//   - kid[la]: the child forest of the node at la, read by the base cell
//     of whole-tree and right-strip states;
//   - tcell[lb]: the whole subtree at local post lb, which whole-tree
//     states pair with F_u when they split off the rightmost G tree;
//   - nextL[c], jumpL[c]: the left-removal targets (la+1, lb) and
//     (la+size(n0), lb) of cell c, read by left-strip states and built
//     only when the chain has such states.
//
// Right-removal reads need no table. Removing the rightmost root lb (or
// its whole subtree) from a forest (la, lb) with more than one root
// never removes the node n0 at la, so la stays canonical and the target
// is c−1 (or c−size(lb)) in the same la-run. An empty target maps to the
// fixed slot rowLen of each row, which holds δ(F_t, ∅) (0 in insRow), so
// no read branches on an empty G forest. Each cell keeps the bounded
// loop's float operands and min order, so both loops agree bit for bit
// wherever the bounded run prunes nothing.
//
// Many ΔI calls of an optimal strategy pair a heavy path with a one-node
// G subtree y (every leaf of G roots one), where every row is one cell
// beside its empty-forest slot. An exact run takes those calls through
// spfIOneNode, a linear scan with one value per chain state:
//
//   - strip states (left and right alike): min(next+del(u),
//     delCost[t]+ins(y), δ(F_u, y)+delCost[t+size(u)]);
//   - tree states: min(next+del(u), delCost[t]+ins(y),
//     delCost[t+1]+ren(u, y)), which is also written to the matrix as
//     δ(F_u, y).
//
// These are spfIExact's operands in its min order. The scan builds no gside and takes no pooled rows, but
// accounts the same subproblems and row cells, and the live-row peak the
// pool would reach, which the chain table stores per state.
//
// ΔI rows stay dense even under SetSparseRows: a row is indexed by the
// (a, b) decomposition cells, whose admissible band is a different
// contiguous span per la-run, so compressing it would need a per-(row,
// la) offset table of the same order as the savings. Band-compressed
// storage therefore applies to the rectangular ΔL/ΔR rows only; ΔI
// contributes its dense rows to Stats.RowCells and benefits from the
// sharp per-region band pricing below.

// chain is the Definition 3 removal sequence of one subtree F_v along its
// heavy path: a suffix of its heavy-path top's chain in a chainTable, plus
// the per-call reference counts the row pool counts down.
type chain struct {
	rem     []int32   // node removed at state t (postorder id in T1)
	size    []int32   // subtree size of rem[t]; the subtree-jump target is t+size
	isTree  []bool    // state t is the whole subtree rooted at rem[t]
	dirR    []bool    // removal direction at state t (true = rightmost)
	delCost []float64 // delCost[t] = total delete cost of state t's forest; len s1+1
	refs    []int32   // number of later states that read row t; len s1+1
	hasLeft bool      // some state removes from the left (a left-strip state)
}

// chainTable holds the removal chain of every heavy-path top of one tree
// under one orientation's delete costs, concatenated: a top's chain takes
// size(top)+1 slots, the last one the empty state. Every node v lies on
// exactly one heavy path, and chain(F_v) is the suffix of its top's chain
// from v's tree state, slot start[v], to the top's empty state (see the
// file comment).
type chainTable struct {
	start   []int32 // node -> slot of its tree state
	hasLeft []bool  // node -> its chain suffix holds a left-strip state
	rem     []int32
	size    []int32
	isTree  []bool
	dirR    []bool
	delCost []float64
	refs    []int32 // reads of each slot's row by later states of the whole chain
	// peak[t] is the most rows live at once while a ΔI call runs the
	// chain suffix from slot t (the row pool's MaxLiveRows of that call).
	peak []int32
	work []int32 // build scratch
}

// build fills tab for the tree t under per-node delete costs del.
func (tab *chainTable) build(t *tree.Tree, del []float64) {
	n := t.Len()
	isTop := func(v int) bool { p := t.Parent(v); return p == -1 || t.HeavyChild(p) != v }
	slots := 0
	for v := 0; v < n; v++ {
		if isTop(v) {
			slots += t.Size(v) + 1
		}
	}
	tab.start = growI32(&tab.start, n)
	tab.hasLeft = growBool(&tab.hasLeft, n)
	tab.rem = growI32(&tab.rem, slots)
	tab.size = growI32(&tab.size, slots)
	tab.isTree = growBool(&tab.isTree, slots)
	tab.dirR = growBool(&tab.dirR, slots)
	tab.delCost = growF64(&tab.delCost, slots)
	tab.refs = growI32(&tab.refs, slots)
	tab.peak = growI32(&tab.peak, slots)
	base := 0
	for v := 0; v < n; v++ {
		if isTop(v) {
			tab.fill(t, v, base, del)
			base += t.Size(v) + 1
		}
	}
}

// put writes one chain state into slot pos and returns the next slot.
func (tab *chainTable) put(pos int, t *tree.Tree, x int, isTree, dirR bool) int {
	tab.rem[pos] = int32(x)
	tab.size[pos] = int32(t.Size(x))
	tab.isTree[pos] = isTree
	tab.dirR[pos] = dirR
	return pos + 1
}

// fill writes the chain of the heavy-path top v into the slots from base.
func (tab *chainTable) fill(t *tree.Tree, v, base int, del []float64) {
	pos := base
	for u := v; u != -1; u = t.HeavyChild(u) {
		// The whole subtree F_u is a chain state; removing its root u
		// starts the decomposition of its child forest.
		tab.start[u] = int32(pos)
		pos = tab.put(pos, t, u, true, true)
		next := t.HeavyChild(u)
		if next == -1 {
			break
		}
		kids := t.Children(u)
		// Left strip: subtrees left of the path child vanish node by
		// node in preorder (each removal takes the leftmost root).
		for _, c := range kids {
			if c == next {
				break
			}
			for p := t.Pre(c); p < t.Pre(c)+t.Size(c); p++ {
				pos = tab.put(pos, t, t.ByPre(p), false, false)
			}
		}
		// Right strip: subtrees right of the path child vanish in
		// reverse postorder (each removal takes the rightmost root).
		for i := len(kids) - 1; kids[i] != next; i-- {
			for x := kids[i]; x >= t.SubtreeFirst(kids[i]); x-- {
				pos = tab.put(pos, t, x, false, true)
			}
		}
	}
	end := base + t.Size(v)
	if pos != end {
		panic("gted: chain construction dropped nodes")
	}
	tab.rem[end], tab.size[end], tab.isTree[end], tab.dirR[end] = 0, 0, false, false
	tab.delCost[end] = 0
	hasLeft := false
	for i := end - 1; i >= base; i-- {
		tab.delCost[i] = tab.delCost[i+1] + del[tab.rem[i]]
		hasLeft = hasLeft || !tab.dirR[i]
		if tab.isTree[i] {
			tab.hasLeft[tab.rem[i]] = hasLeft
		}
	}
	refs := tab.refs[base : end+1]
	clear(refs)
	for i := base; i < end; i++ {
		refs[i+1-base]++
		if !tab.isTree[i] {
			refs[i+int(tab.size[i])-base]++
		}
	}
	// Replay the row pool's takes and drops (spfI) over the whole chain.
	// A call on a suffix sees the same live rows from its first state on:
	// no state before the suffix reads a row past the suffix's first one.
	cnt := growI32(&tab.work, end+1-base)
	copy(cnt, refs)
	drop := func(j int) int32 {
		if j < end {
			if cnt[j-base]--; cnt[j-base] == 0 {
				return 1
			}
		}
		return 0
	}
	live := int32(0)
	tab.peak[end] = 0
	for i := end - 1; i >= base; i-- {
		live++
		tab.peak[i] = max(live, tab.peak[i+1])
		live -= drop(i + 1)
		if !tab.isTree[i] {
			live -= drop(i + int(tab.size[i]))
		}
	}
}

// chainOf points ch at chain(F_v), v's suffix of the table, and copies
// the suffix's reference counts into ch's own buffer for the row pool to
// count down. The suffix's first state has no reader inside it.
func (tab *chainTable) chainOf(v, s1 int, ch *chain) {
	o := int(tab.start[v])
	ch.rem = tab.rem[o : o+s1]
	ch.size = tab.size[o : o+s1]
	ch.isTree = tab.isTree[o : o+s1]
	ch.dirR = tab.dirR[o : o+s1]
	ch.delCost = tab.delCost[o : o+s1+1]
	ch.hasLeft = tab.hasLeft[v]
	refs := growI32(&ch.refs, s1+1)
	copy(refs, tab.refs[o:o+s1+1])
	refs[0] = 0
}

// gside indexes the full decomposition A(G_w) of one subtree. All
// coordinates are subtree-local: local postorder lp ∈ [0, s2) maps to the
// global postorder id g0+lp, local preorder la likewise offsets the
// subtree root's preorder.
type gside struct {
	s2      int
	g0      int       // global postorder id of the subtree's first node
	lPre    []int32   // local post -> local pre
	lByPre  []int32   // local pre -> local post (also the minimum valid b per a)
	sz      []int32   // local post -> subtree size
	off     []int32   // la -> storage offset of cell (la, minB(la)); len s2+1
	szCell  []int32   // per cell: forest node count
	insRow  []float64 // per cell: total insert cost of the forest (= δ(∅, g)); plus a 0 empty-forest slot
	prefIns []float64 // local-postorder insert-cost prefix sums; len s2+1
	canon   int64     // number of canonical cells = |A(G_w)|
	// Cell-index tables of the exact loop (rowLen marks the empty
	// forest): kid[la] is the cell of the child forest of the node at la,
	// tcell[lp] the cell of the whole subtree at local post lp; nextL and
	// jumpL are per-cell left-removal targets (buildLeftTables).
	kid, tcell   []int32
	nextL, jumpL []int32
}

// build (re)fills gs for the subtree of t rooted at w, reusing the
// backing arrays from previous calls.
func (gs *gside) build(t *tree.Tree, w int, ins []float64) {
	s2 := t.Size(w)
	g0 := w - s2 + 1
	preW := t.Pre(w)
	gs.s2 = s2
	gs.g0 = g0
	gs.canon = 0
	gs.lPre = growI32(&gs.lPre, s2)
	gs.lByPre = growI32(&gs.lByPre, s2)
	gs.sz = growI32(&gs.sz, s2)
	gs.off = growI32(&gs.off, s2+1)
	for lp := 0; lp < s2; lp++ {
		gp := g0 + lp
		la := t.Pre(gp) - preW
		gs.lPre[lp] = int32(la)
		gs.lByPre[la] = int32(lp)
		gs.sz[lp] = int32(t.Size(gp))
	}
	// Subtree insert-cost sums via local-postorder prefix sums.
	prefIns := growF64(&gs.prefIns, s2+1)
	prefIns[0] = 0
	for lp := 0; lp < s2; lp++ {
		prefIns[lp+1] = prefIns[lp] + ins[g0+lp]
	}
	gs.off[0] = 0
	for la := 0; la < s2; la++ {
		gs.off[la+1] = gs.off[la] + int32(s2) - gs.lByPre[la]
	}
	gs.tcell = growI32(&gs.tcell, s2)
	for lp := 0; lp < s2; lp++ {
		gs.tcell[lp] = gs.off[gs.lPre[lp]]
	}
	rowLen := int(gs.off[s2])
	gs.szCell = growI32(&gs.szCell, rowLen)
	gs.insRow = growF64(&gs.insRow, rowLen+1)
	gs.insRow[rowLen] = 0
	gs.kid = growI32(&gs.kid, s2)
	for la := 0; la < s2; la++ {
		n0 := int(gs.lByPre[la]) // local post of the node at preorder la
		base := int(gs.off[la])
		gs.szCell[base] = gs.sz[n0]
		gs.insRow[base] = prefIns[n0+1] - prefIns[n0-int(gs.sz[n0])+1]
		gs.canon++
		// The child forest of n0 is (la+1, n0−1); its first child sits
		// at preorder la+1, so the start needs no canonicalizing.
		if gs.sz[n0] == 1 {
			gs.kid[la] = int32(rowLen)
		} else {
			gs.kid[la] = gs.off[la+1] + int32(n0-1) - gs.lByPre[la+1]
		}
		for lb := n0 + 1; lb < s2; lb++ {
			c := base + lb - n0
			if int(gs.lPre[lb]) >= la {
				gs.szCell[c] = gs.szCell[c-1] + 1
				gs.insRow[c] = gs.insRow[c-1] + ins[g0+lb]
				gs.canon++
			} else {
				gs.szCell[c] = gs.szCell[c-1]
				gs.insRow[c] = gs.insRow[c-1]
			}
		}
	}
}

// cell returns the storage index of the forest {lpre ≥ la, lpost ≤ lb},
// canonicalizing la first (skipping preorder positions whose nodes are
// excluded by the b bound). The forest must be non-empty.
func (gs *gside) cell(la, lb int) int {
	for int(gs.lByPre[la]) > lb {
		la++
	}
	return int(gs.off[la]) + lb - int(gs.lByPre[la])
}

// buildLeftTables fills the left-removal tables of the exact loop: for
// every cell c = (la, lb), nextL[c] is the cell of (la+1, lb) — the
// forest minus its leftmost root n0 — and jumpL[c] the cell of
// (la+size(n0), lb) — the forest minus n0's whole subtree — or rowLen
// (the empty-forest slot) when that forest is empty.
func (gs *gside) buildLeftTables() {
	rowLen := len(gs.szCell)
	gs.nextL = growI32(&gs.nextL, rowLen)
	gs.jumpL = growI32(&gs.jumpL, rowLen)
	for la := 0; la < gs.s2; la++ {
		n0sz := gs.sz[gs.lByPre[la]]
		gs.leftTargets(gs.nextL, la, la+1, 1)
		gs.leftTargets(gs.jumpL, la, la+int(n0sz), n0sz)
	}
}

// leftTargets fills tab over la's run with the cells of (from, lb): the
// forest (la, lb) without its nodes at preorder la..from−1, of which drop
// lie in the forest, so a forest of exactly drop nodes maps to the empty
// slot. Within one run the canonical start of (from, lb) only moves
// right as lb falls, so one pointer canonicalizes the whole run.
func (gs *gside) leftTargets(tab []int32, la, from int, drop int32) {
	n0 := int(gs.lByPre[la])
	base, end := int(gs.off[la]), int(gs.off[la+1])
	empty := int32(len(gs.szCell))
	a := from
	for c := end - 1; c >= base; c-- {
		if gs.szCell[c] == drop {
			tab[c] = empty
			continue
		}
		lb := n0 + c - base
		for int(gs.lByPre[a]) > lb {
			a++
		}
		tab[c] = gs.off[a] + int32(lb) - gs.lByPre[a]
	}
}

// spfI runs the ΔI DP for the subtree of t1 rooted at v1, decomposed
// along its heavy path (the only path type GTED sends here), against the
// subtree of t2 rooted at v2.
// Precondition: the distance matrix holds δ(T1_x, T2_y) for every x in a
// subtree hanging off the path and every y in T2_v2. Postcondition: it
// additionally holds δ(T1_x, T2_y) for every x ON the path. In bounded
// mode (tcut finite) cells whose forest sizes differ by more than the
// cheapest operations allow under tcut are saturated to +Inf, as in
// spfLR.
func (r *Runner) spfI(t1 *tree.Tree, v1 int, t2 *tree.Tree, v2 int, cm *cost.Compiled, dv dview, tcut float64) {
	tab := r.chains(t1, cm, dv.swap)
	s1 := t1.Size(v1)
	// With both operation minima zero no size argument can prove a cell
	// above the cutoff, so such a run is exact.
	bounded := r.bounded && !math.IsInf(tcut, 1)
	if bounded {
		oc := r.opCostsFor(cm)
		bounded = oc.dmin > 0 || oc.imin > 0
	}
	if !bounded && t2.Size(v2) == 1 {
		r.spfIOneNode(tab, v1, s1, v2, cm, dv)
		return
	}
	ch := &r.ar.ch
	tab.chainOf(v1, s1, ch)
	r.ar.gs.build(t2, v2, cm.Ins)

	// Chain-state rows come from the arena: the rows slice is grown in
	// place (entries beyond the previous length are nil by the cleanup
	// invariant below), and row buffers cycle through the shared pool.
	if cap(r.ar.rows) < s1+1 {
		grown := make([][]float64, s1+1)
		copy(grown, r.ar.rows)
		r.ar.rows = grown
	}
	rows := r.ar.rows[:s1+1]
	if bounded {
		r.spfIBounded(t1, v1, t2, v2, cm, dv, tcut, rows)
	} else {
		r.spfIExact(cm, dv, rows)
	}
	// Return surviving rows (row 0, plus any still-referenced rows when
	// s1 == 0 edge cases) to the pool. This restores the invariant that
	// every entry of the arena's rows slice is nil between SPF calls.
	for t, b := range rows {
		if b != nil {
			rows[t] = nil
			r.ar.rowPool = append(r.ar.rowPool, b)
			r.liveRows--
		}
	}
}

// chains returns the chain table of the tree t1 that ΔI decomposes,
// building it on the run's first ΔI call on that side. The side is the
// orientation, not the tree: a self-distance run passes one tree twice,
// with delete costs on one side and insert costs on the other.
func (r *Runner) chains(t1 *tree.Tree, cm *cost.Compiled, swap bool) *chainTable {
	side := 0
	if swap {
		side = 1
	}
	tab := &r.ar.chains[side]
	if !r.chainsReady[side] {
		tab.build(t1, cm.Del)
		r.chainsReady[side] = true
	}
	return tab
}

// spfIOneNode is spfIExact against a one-node G subtree y. Every chain
// state's row is then the single cell δ(F_t, y) beside its empty-forest
// slot δ(F_t, ∅) = delCost[t], and every state kind's three reads reduce
// to the previous state's cell, delCost entries and one matrix entry: a
// linear scan with the exact loop's operands in its min order. It
// accounts the subproblems, row cells and live rows the pooled rows would
// have.
func (r *Runner) spfIOneNode(tab *chainTable, v1, s1, y int, cm *cost.Compiled, dv dview) {
	o := int(tab.start[v1])
	rem, size, isTree := tab.rem[o:o+s1], tab.size[o:o+s1], tab.isTree[o:o+s1]
	delCost := tab.delCost[o : o+s1+1]
	insY := cm.Ins[y]
	d := dv.d
	next := insY // δ(∅, y)
	for t := s1 - 1; t >= 0; t-- {
		u := int(rem[t])
		base, stride := dv.line(u)
		at := base + y*stride // δ(F_u, G_y)
		val := next + cm.Del[u]
		if x := delCost[t] + insY; x < val {
			val = x
		}
		if isTree[t] {
			if x := delCost[t+1] + cm.Ren(u, y); x < val {
				val = x
			}
			d[at] = val
		} else if x := d[at] + delCost[t+int(size[t])]; x < val {
			val = x
		}
		next = val
	}
	r.stats.Subproblems += int64(s1)
	r.stats.RowCells += int64(s1)
	r.stats.MaxLiveRows = max(r.stats.MaxLiveRows, r.liveRows+int(tab.peak[o]))
}

// takeRow installs a pooled buffer as chain state t's row and accounts
// it. A row holds the rowLen decomposition cells plus the empty-forest
// slot at index rowLen, which only the exact loop uses.
func (r *Runner) takeRow(rows [][]float64, t, rowLen int) []float64 {
	var row []float64
	if n := len(r.ar.rowPool); n > 0 {
		b := r.ar.rowPool[n-1]
		r.ar.rowPool = r.ar.rowPool[:n-1]
		if cap(b) > rowLen {
			row = b[:rowLen+1]
		}
	}
	if row == nil {
		row = make([]float64, rowLen+1)
	}
	rows[t] = row
	r.stats.RowCells += int64(rowLen)
	r.liveRows++
	if r.liveRows > r.stats.MaxLiveRows {
		r.stats.MaxLiveRows = r.liveRows
	}
	return row
}

// dropRow releases one read of chain state t's row and returns the row
// to the pool once no later state reads it.
func (r *Runner) dropRow(rows [][]float64, t int) {
	if t >= len(rows)-1 {
		return // the empty state is virtual (insRow/delCost)
	}
	ch := &r.ar.ch
	ch.refs[t]--
	if ch.refs[t] == 0 {
		r.ar.rowPool = append(r.ar.rowPool, rows[t])
		rows[t] = nil
		r.liveRows--
	}
}

// spfIExact is the ΔI DP of an exact run. Every read is a precomputed
// cell index (see the cell-index tables in the file comment) and every
// state kind runs its own loop; each cell evaluates the same float
// operands in the same min order as spfIBounded, so the two agree bit
// for bit wherever the bounded run prunes nothing.
func (r *Runner) spfIExact(cm *cost.Compiled, dv dview, rows [][]float64) {
	ch, gs := &r.ar.ch, &r.ar.gs
	s1, s2, g0 := len(rows)-1, gs.s2, gs.g0
	rowLen := len(gs.szCell)
	if ch.hasLeft {
		gs.buildLeftTables()
	}
	lPre, lByPre, sz, off := gs.lPre[:s2], gs.lByPre[:s2], gs.sz[:s2], gs.off[:s2+1]
	kid, tcell := gs.kid[:s2], gs.tcell[:s2]
	insRow := gs.insRow[:rowLen+1]
	ins := cm.Ins[g0 : g0+s2] // local postorder -> insert cost
	d := dv.d
	for t := s1 - 1; t >= 0; t-- {
		row := r.takeRow(rows, t, rowLen)
		r.stats.Subproblems += gs.canon
		row[rowLen] = ch.delCost[t]
		u := int(ch.rem[t])
		delU := cm.Del[u]
		next := insRow
		if t+1 < s1 {
			next = rows[t+1]
		}
		jump := t + int(ch.size[t])
		jr := insRow
		if jump < s1 {
			jr = rows[jump]
		}
		// δ(F_u, G_y) for the node at local postorder y sits at d[dg+y*ds].
		dg, ds := dv.line(u)
		dg += g0 * ds

		switch {
		case ch.isTree[t]:
			for la := s2 - 1; la >= 0; la-- {
				n0 := int(lByPre[la])
				base, end := int(off[la]), int(off[la+1])
				k := kid[la]
				// Tree × tree (Figure 2, second case): delete the F-root,
				// insert the G-root (leaving its child forest), or rename.
				val := next[base] + delU
				if x := row[k] + ins[n0]; x < val {
					val = x
				}
				if x := next[k] + cm.Ren(u, g0+n0); x < val {
					val = x
				}
				row[base] = val
				d[dg+n0*ds] = val
				// Whole path subtree F_u vs a proper forest: the split
				// (3)+(4) pairs F_u with the rightmost G subtree (computed
				// earlier in this row, at its own run's base cell) and
				// leaves δ(∅, rest).
				for c, lb := base+1, n0+1; c < end; c, lb = c+1, lb+1 {
					if int(lPre[lb]) < la {
						row[c] = row[c-1] // duplicate cell
						continue
					}
					val := next[c] + delU
					if x := row[c-1] + ins[lb]; x < val {
						val = x
					}
					if x := row[tcell[lb]] + insRow[c-int(sz[lb])]; x < val {
						val = x
					}
					row[c] = val
				}
			}
		case ch.dirR[t]:
			// Forest state, removing from the right: u roots a whole
			// off-path subtree whose distances to all G subtrees are in
			// the matrix.
			for la := s2 - 1; la >= 0; la-- {
				n0 := int(lByPre[la])
				base, end := int(off[la]), int(off[la+1])
				// Base cell G_n0: inserting its root leaves the child
				// forest, matching u with it leaves nothing.
				val := next[base] + delU
				if x := row[kid[la]] + ins[n0]; x < val {
					val = x
				}
				if x := d[dg+n0*ds] + jr[rowLen]; x < val {
					val = x
				}
				row[base] = val
				for c, lb := base+1, n0+1; c < end; c, lb = c+1, lb+1 {
					if int(lPre[lb]) < la {
						row[c] = row[c-1] // duplicate cell
						continue
					}
					val := next[c] + delU
					if x := row[c-1] + ins[lb]; x < val {
						val = x
					}
					if x := d[dg+lb*ds] + jr[c-int(sz[lb])]; x < val {
						val = x
					}
					row[c] = val
				}
			}
		default:
			// Forest state, removing from the left: the G-side partner
			// is always the run's leftmost root n0, so its insert cost and
			// matrix entry are per-run constants.
			nextL, jumpL := gs.nextL[:rowLen], gs.jumpL[:rowLen]
			for la := s2 - 1; la >= 0; la-- {
				n0 := int(lByPre[la])
				base, end := int(off[la]), int(off[la+1])
				insN := ins[n0]
				dN := d[dg+n0*ds]
				for c, lb := base, n0; c < end; c, lb = c+1, lb+1 {
					if int(lPre[lb]) < la {
						row[c] = row[c-1] // duplicate cell
						continue
					}
					val := next[c] + delU
					if x := row[nextL[c]] + insN; x < val {
						val = x
					}
					if x := dN + jr[jumpL[c]]; x < val {
						val = x
					}
					row[c] = val
				}
			}
		}
		r.dropRow(rows, t+1)
		if !ch.isTree[t] {
			r.dropRow(rows, jump)
		}
	}
}

// spfIBounded is the ΔI DP of a bounded run: the structural band by
// default, the per-cell slack predicate with banding off (SetBanding).
func (r *Runner) spfIBounded(t1 *tree.Tree, v1 int, t2 *tree.Tree, v2 int, cm *cost.Compiled, dv dview, tcut float64, rows [][]float64) {
	ch, gs := &r.ar.ch, &r.ar.gs
	s1, s2 := len(rows)-1, gs.s2
	rowLen := len(gs.szCell)
	// at returns δ(F_t', G-forest(la, lb)) for a forest of known size.
	at := func(tt, la, lb, gsz int) float64 {
		if gsz == 0 {
			return ch.delCost[tt]
		}
		c := gs.cell(la, lb)
		if tt == s1 {
			return gs.insRow[c]
		}
		return rows[tt][c]
	}

	// Band pruning setup, as in spfLR.
	oc := r.opCostsFor(cm)
	dmin, imin := oc.dmin, oc.imin
	tcut += r.cutPad(tcut)
	inf := math.Inf(1)
	// Structural band (default): for a fixed chain state the admissible
	// G-forest sizes form one interval, and within one la-run of the
	// storage the forest size is nondecreasing in lb — so the admissible
	// cells are a contiguous span found by binary search, and the spans
	// outside are skipped (and counted) without per-cell tests. Skipped
	// cells hold stale scratch; atB guards every read that can land on
	// one and prices it +Inf, sound because an out-of-band forest pair
	// needs more than maxD deletions or maxI insertions (SetCutoff).
	banded := r.banded
	var maxD, maxI int
	if banded {
		// Sharp per-region pricing (SetSharpBands): every deleted node
		// lies in T1's subtree at v1 and every inserted one in T2's
		// subtree at v2, so the band widths may be priced at those
		// regions' own floors instead of the global minima.
		dminR, iminR := dmin, imin
		if r.sharp {
			if cm.DelSub != nil && cm.DelSub[v1] > dminR {
				dminR = cm.DelSub[v1]
			}
			if cm.InsSub != nil && cm.InsSub[v2] > iminR {
				iminR = cm.InsSub[v2]
			}
		}
		maxD, maxI = bandWidth(tcut, dminR), bandWidth(tcut, iminR)
		// Widths beyond any possible size difference act identically;
		// capping keeps the index arithmetic comfortably in range.
		if n := t1.Len() + t2.Len(); maxD > n {
			maxD = n
		}
		if n := t1.Len() + t2.Len(); maxI > n {
			maxI = n
		}
	}
	inBand := func(tt, gsz int) bool {
		d := (s1 - tt) - gsz
		return d <= maxD && -d <= maxI
	}
	atB := func(tt, la, lb, gsz int) float64 {
		if !inBand(tt, gsz) {
			return inf
		}
		return at(tt, la, lb, gsz)
	}

	for t := s1 - 1; t >= 0; t-- {
		row := r.takeRow(rows, t, rowLen)
		u := int(ch.rem[t])
		uSz := int(ch.size[t])
		isT := ch.isTree[t]
		dirR := ch.dirR[t]
		jump := t + uSz
		delU := cm.Del[u]
		fSz := s1 - t // F-side forest size of this chain state

		if banded {
			loSz, hiSz := fSz-maxD, fSz+maxI
			for la := s2 - 1; la >= 0; la-- {
				n0 := int(gs.lByPre[la])
				base := int(gs.off[la])
				n0sz := int(gs.sz[n0])
				n0g := gs.g0 + n0
				end := base + (s2 - 1 - n0) // last storage cell of the run
				// Canonical cells in [base..c] number szCell[c]−n0sz+1
				// (the base cell plus one per size increment); that and
				// the monotone size column make span accounting O(log).
				cLo := base
				if int(gs.szCell[base]) < loSz {
					l, h := base, end+1 // first cell with szCell ≥ loSz
					for l < h {
						m := int(uint(l+h) >> 1)
						if int(gs.szCell[m]) < loSz {
							l = m + 1
						} else {
							h = m
						}
					}
					cLo = l
				}
				cHi := end
				if int(gs.szCell[end]) > hiSz {
					l, h := base, end+1 // first cell with szCell > hiSz
					for l < h {
						m := int(uint(l+h) >> 1)
						if int(gs.szCell[m]) <= hiSz {
							l = m + 1
						} else {
							h = m
						}
					}
					cHi = l - 1
				}
				if cLo > end || cHi < base {
					skipped := int64(int(gs.szCell[end]) - n0sz + 1)
					r.stats.PrunedSubproblems += skipped
					r.stats.BandSkippedCells += skipped
					if isT {
						// The base cell — the run's only tree×tree cell —
						// was band-skipped; saturate its matrix entry.
						dv.set(u, n0g, inf)
					}
					continue
				}
				var skipped int64
				if cLo > base {
					skipped += int64(int(gs.szCell[cLo-1]) - n0sz + 1)
					if isT {
						dv.set(u, n0g, inf)
					}
				}
				if cHi < end {
					skipped += int64(int(gs.szCell[end]) - int(gs.szCell[cHi]))
				}
				r.stats.PrunedSubproblems += skipped
				r.stats.BandSkippedCells += skipped
				for c := cLo; c <= cHi; c++ {
					lb := n0 + (c - base)
					if int(gs.lPre[lb]) < la {
						// Duplicate cell: same node set as its predecessor,
						// hence the same forest size — the predecessor is
						// always inside the band too, so the copy is valid.
						row[c] = row[c-1]
						continue
					}
					gSz := int(gs.szCell[c])
					r.stats.Subproblems++
					var val float64
					switch {
					case isT && gSz == n0sz:
						wg := gs.g0 + lb // == n0g: single root
						val = atB(t+1, la, lb, gSz) + delU
						if x := atB(t, la+1, lb-1, gSz-1) + cm.Ins[wg]; x < val {
							val = x
						}
						if x := atB(t+1, la+1, lb-1, gSz-1) + cm.Ren(u, wg); x < val {
							val = x
						}
						dv.set(u, wg, val)
					case isT:
						wl := lb
						wsz := int(gs.sz[wl])
						wg := gs.g0 + wl
						val = atB(t+1, la, lb, gSz) + delU
						if x := atB(t, la, lb-1, gSz-1) + cm.Ins[wg]; x < val {
							val = x
						}
						if x := atB(t, int(gs.lPre[wl]), lb, wsz) + atB(s1, la, lb-wsz, gSz-wsz); x < val {
							val = x
						}
					case dirR:
						wl := lb
						wsz := int(gs.sz[wl])
						wg := gs.g0 + wl
						val = atB(t+1, la, lb, gSz) + delU
						if x := atB(t, la, lb-1, gSz-1) + cm.Ins[wg]; x < val {
							val = x
						}
						if x := dv.get(u, wg) + atB(jump, la, lb-wsz, gSz-wsz); x < val {
							val = x
						}
					default:
						wsz := n0sz
						val = atB(t+1, la, lb, gSz) + delU
						if x := atB(t, la+1, lb, gSz-1) + cm.Ins[n0g]; x < val {
							val = x
						}
						if x := dv.get(u, n0g) + atB(jump, la+wsz, lb, gSz-wsz); x < val {
							val = x
						}
					}
					row[c] = val
				}
			}
			r.dropRow(rows, t+1)
			if !isT {
				r.dropRow(rows, jump)
			}
			continue
		}

		for la := s2 - 1; la >= 0; la-- {
			n0 := int(gs.lByPre[la])
			base := int(gs.off[la])
			n0sz := int(gs.sz[n0])
			n0g := gs.g0 + n0
			for lb := n0; lb < s2; lb++ {
				c := base + lb - n0
				if int(gs.lPre[lb]) < la {
					// Duplicate cell: byPost[lb] is excluded by the a
					// bound, so the node set equals the (la, lb-1) cell.
					row[c] = row[c-1]
					continue
				}
				gSz := int(gs.szCell[c])
				if d := fSz - gSz; (d > 0 && float64(d)*dmin > tcut) ||
					(d < 0 && float64(-d)*imin > tcut) {
					row[c] = inf
					r.stats.PrunedSubproblems++
					if isT && gSz == n0sz {
						dv.set(u, gs.g0+lb, inf)
					}
					continue
				}
				r.stats.Subproblems++
				var val float64
				switch {
				case isT && gSz == n0sz:
					// Tree × tree (Figure 2, second case): delete the
					// F-root, insert the G-root, or rename.
					wg := gs.g0 + lb // == n0g: single root
					val = at(t+1, la, lb, gSz) + delU
					if x := at(t, la+1, lb-1, gSz-1) + cm.Ins[wg]; x < val {
						val = x
					}
					if x := at(t+1, la+1, lb-1, gSz-1) + cm.Ren(u, wg); x < val {
						val = x
					}
					dv.set(u, wg, val)
				case isT:
					// Whole path subtree F_u vs a proper forest: the
					// split (3)+(4) pairs F_u with the rightmost G
					// subtree (whose distance this very row computed —
					// it is a smaller subproblem) and leaves δ(∅, rest).
					wl := lb // rightmost root, local post
					wsz := int(gs.sz[wl])
					wg := gs.g0 + wl
					val = at(t+1, la, lb, gSz) + delU
					if x := at(t, la, lb-1, gSz-1) + cm.Ins[wg]; x < val {
						val = x
					}
					if x := at(t, int(gs.lPre[wl]), lb, wsz) + at(s1, la, lb-wsz, gSz-wsz); x < val {
						val = x
					}
				case dirR:
					// Forest state, removing from the right: the removed
					// F-node u roots a whole off-path subtree whose
					// distances to all G subtrees are in the matrix.
					wl := lb
					wsz := int(gs.sz[wl])
					wg := gs.g0 + wl
					val = at(t+1, la, lb, gSz) + delU
					if x := at(t, la, lb-1, gSz-1) + cm.Ins[wg]; x < val {
						val = x
					}
					if x := dv.get(u, wg) + at(jump, la, lb-wsz, gSz-wsz); x < val {
						val = x
					}
				default:
					// Forest state, removing from the left.
					wsz := n0sz
					val = at(t+1, la, lb, gSz) + delU
					if x := at(t, la+1, lb, gSz-1) + cm.Ins[n0g]; x < val {
						val = x
					}
					if x := dv.get(u, n0g) + at(jump, la+wsz, lb, gSz-wsz); x < val {
						val = x
					}
				}
				row[c] = val
			}
		}
		r.dropRow(rows, t+1)
		if !isT {
			r.dropRow(rows, jump)
		}
	}
}
