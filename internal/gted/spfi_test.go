package gted

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/tree"
	"repro/internal/treegen"
)

// oracleChain builds the Definition 3 removal chain of the subtree of t
// rooted at v along its path of type pt directly, one subtree at a time.
// It is the per-call construction ΔI used before the per-run chain
// tables, kept as the tables' oracle.
func oracleChain(t *tree.Tree, v int, pt strategy.PathType, del []float64) chain {
	s1 := t.Size(v)
	ch := chain{
		rem:     make([]int32, 0, s1),
		size:    make([]int32, 0, s1),
		isTree:  make([]bool, 0, s1),
		dirR:    make([]bool, 0, s1),
		delCost: make([]float64, s1+1),
		refs:    make([]int32, s1+1),
	}
	add := func(x int, isTree, dirR bool) {
		ch.rem = append(ch.rem, int32(x))
		ch.size = append(ch.size, int32(t.Size(x)))
		ch.isTree = append(ch.isTree, isTree)
		ch.dirR = append(ch.dirR, dirR)
	}
	for u := v; u != -1; u = strategy.PathChild(t, u, pt) {
		add(u, true, true)
		next := strategy.PathChild(t, u, pt)
		if next == -1 {
			break
		}
		kids := t.Children(u)
		for _, c := range kids {
			if c == next {
				break
			}
			for p := t.Pre(c); p < t.Pre(c)+t.Size(c); p++ {
				add(t.ByPre(p), false, false)
				ch.hasLeft = true
			}
		}
		for i := len(kids) - 1; kids[i] != next; i-- {
			for x := kids[i]; x >= t.SubtreeFirst(kids[i]); x-- {
				add(x, false, true)
			}
		}
	}
	for i := s1 - 1; i >= 0; i-- {
		ch.delCost[i] = ch.delCost[i+1] + del[ch.rem[i]]
	}
	for i := 0; i < s1; i++ {
		ch.refs[i+1]++
		if !ch.isTree[i] {
			ch.refs[i+int(ch.size[i])]++
		}
	}
	return ch
}

// poolPeak replays the row pool's takes and drops over ch and returns
// the most rows live at once.
func poolPeak(ch chain) int32 {
	s1 := len(ch.rem)
	refs := append([]int32(nil), ch.refs...)
	var live, peak int32
	drop := func(j int) {
		if j < s1 {
			if refs[j]--; refs[j] == 0 {
				live--
			}
		}
	}
	for i := s1 - 1; i >= 0; i-- {
		live++
		peak = max(peak, live)
		drop(i + 1)
		if !ch.isTree[i] {
			drop(i + int(ch.size[i]))
		}
	}
	return peak
}

// TestChainDefinition3 checks the per-run chain table against
// Definition 3 on random trees: for every node v, the table's chain of
// F_v — a suffix of its heavy-path top's chain — must equal the chain
// oracleChain builds for F_v alone, with delete-cost sums equal bit for
// bit under a non-unit model and the same reference counts, and its
// stored peak must equal the row pool's on that chain. The oracle itself
// is checked on all three path types: every node is removed exactly once,
// tree states are exactly the path nodes, the first removal is the root,
// and subtree-jump targets stay within bounds.
func TestChainDefinition3(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		tr := treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(60), MaxDepth: 9, MaxFanout: 5, Labels: 4})
		n := tr.Len()
		unit := cost.Compile(cost.Unit{}, tr, tr)
		for _, pt := range []strategy.PathType{strategy.Left, strategy.Right, strategy.Heavy} {
			ch := oracleChain(tr, tr.Root(), pt, unit.Del)
			seen := make([]bool, n)
			var treeStates []int
			for i, x := range ch.rem {
				if seen[x] {
					t.Fatalf("node %d removed twice (path %v)\n%s", x, pt, tr)
				}
				seen[x] = true
				if ch.isTree[i] {
					treeStates = append(treeStates, int(x))
				}
				if jump := i + int(ch.size[i]); jump > n {
					t.Fatalf("jump target %d beyond chain end %d", jump, n)
				}
			}
			// Tree states are the path nodes, in root-to-leaf order.
			path := strategy.PathNodes(tr, tr.Root(), pt)
			if len(treeStates) != len(path) {
				t.Fatalf("%d tree states, %d path nodes (path %v)", len(treeStates), len(path), pt)
			}
			for i := range path {
				if treeStates[i] != path[i] {
					t.Fatalf("tree state %d is node %d, want path node %d", i, treeStates[i], path[i])
				}
			}
			if int(ch.rem[0]) != tr.Root() || !ch.isTree[0] {
				t.Fatal("chain must start with the whole tree")
			}
			// delCost is the suffix sum of unit deletions: delCost[t] = n-t.
			for i := 0; i <= n; i++ {
				if ch.delCost[i] != float64(n-i) {
					t.Fatalf("delCost[%d] = %v want %d", i, ch.delCost[i], n-i)
				}
			}
		}

		del := cost.Compile(labelCosts, tr, tr).Del
		var tab chainTable
		tab.build(tr, del)
		for v := 0; v < n; v++ {
			s1 := tr.Size(v)
			var got chain
			tab.chainOf(v, s1, &got)
			want := oracleChain(tr, v, strategy.Heavy, del)
			if !slices.Equal(got.rem, want.rem) || !slices.Equal(got.size, want.size) ||
				!slices.Equal(got.isTree, want.isTree) || !slices.Equal(got.dirR, want.dirR) ||
				got.hasLeft != want.hasLeft {
				t.Fatalf("node %d: table chain %+v, oracle %+v\n%s", v, got, want, tr)
			}
			for i := range want.delCost {
				if math.Float64bits(got.delCost[i]) != math.Float64bits(want.delCost[i]) {
					t.Fatalf("node %d: delCost[%d] = %v, oracle %v", v, i, got.delCost[i], want.delCost[i])
				}
			}
			if !slices.Equal(got.refs, want.refs) {
				t.Fatalf("node %d: refs %v, oracle %v", v, got.refs, want.refs)
			}
			if p := tab.peak[tab.start[v]]; p != poolPeak(want) {
				t.Fatalf("node %d: table peak %d, pool peak %d", v, p, poolPeak(want))
			}
		}
	}
}

// TestGSideMatchesLemma1 checks that the canonical (a,b) cell enumeration
// of the ΔI G-side index has exactly |A(G_w)| cells for every subtree w
// (Lemma 1's closed form), and that forest sizes and insert sums are
// internally consistent.
func TestGSideMatchesLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 40; iter++ {
		tr := treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(50), MaxDepth: 8, MaxFanout: 5})
		cm := cost.Compile(cost.Unit{}, tr, tr)
		d := strategy.NewDecomp(tr)
		for w := 0; w < tr.Len(); w++ {
			var gs gside
			gs.build(tr, w, cm.Ins)
			if gs.canon != d.A[w] {
				t.Fatalf("subtree %d: %d canonical cells, |A| = %d\n%s", w, gs.canon, d.A[w], tr)
			}
			// The full-subtree cell: size and insert sum cover everything.
			c := gs.cell(0, gs.s2-1)
			if int(gs.szCell[c]) != gs.s2 {
				t.Fatalf("full cell size %d want %d", gs.szCell[c], gs.s2)
			}
			if gs.insRow[c] != float64(gs.s2) {
				t.Fatalf("full cell insert sum %v want %d", gs.insRow[c], gs.s2)
			}
			// Single-leaf cells have size 1 and cost 1.
			for lp := 0; lp < gs.s2; lp++ {
				if gs.sz[lp] == 1 {
					cc := gs.cell(int(gs.lPre[lp]), lp)
					if gs.szCell[cc] != 1 || gs.insRow[cc] != 1 {
						t.Fatalf("leaf cell wrong: sz=%d ins=%v", gs.szCell[cc], gs.insRow[cc])
					}
				}
			}
		}
	}
}

// TestKleinLiveRows: Klein's strategy exercises ΔI on every pair; the
// row-retention machinery is bounded by the nesting depth of off-path
// strips (see Stats.MaxLiveRows). For branch/zig-zag trees the strips are single
// leaves so retention is a small constant; in general it never exceeds
// the tree height plus the two working rows.
func TestKleinLiveRows(t *testing.T) {
	for _, s := range treegen.Shapes {
		tr := s.Build(201)
		r := New(tr, tr, cost.Unit{}, strategy.KleinH())
		r.Run()
		got := r.Stats().MaxLiveRows
		if got > tr.Height()+2 {
			t.Fatalf("%s: peak live rows %d exceeds height bound %d", s, got, tr.Height()+2)
		}
		switch s {
		case treegen.ShapeLB, treegen.ShapeRB, treegen.ShapeZZ:
			if got > 4 {
				t.Fatalf("%s: peak live rows %d; strips are leaves, expected <= 4", s, got)
			}
		}
	}
}

// TestQuickDistanceSymmetry is a testing/quick property: δ(F,G) = δ(G,F)
// under the unit model for arbitrary seeds, with RTED on both sides.
func TestQuickDistanceSymmetry(t *testing.T) {
	prop := func(seed int64, a, b uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := treegen.Random(rng, treegen.RandomSpec{Size: 1 + int(a%28), MaxDepth: 7, MaxFanout: 4, Labels: 3})
		g := treegen.Random(rng, treegen.RandomSpec{Size: 1 + int(b%28), MaxDepth: 7, MaxFanout: 4, Labels: 3})
		sfg, _ := strategy.Opt(f, g)
		sgf, _ := strategy.Opt(g, f)
		dfg := New(f, g, cost.Unit{}, sfg).Run()
		dgf := New(g, f, cost.Unit{}, sgf).Run()
		return dfg == dgf
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCountLowerBound is a testing/quick property: every strategy
// computes at least max(|F|,|G|) subproblems (each node pairs with at
// least the root), and at most |A(F)|·|A(G)| (the full decomposition).
func TestQuickCountLowerBound(t *testing.T) {
	prop := func(seed int64, a, b uint8, chooser uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := treegen.Random(rng, treegen.RandomSpec{Size: 1 + int(a%40), MaxDepth: 8, MaxFanout: 4})
		g := treegen.Random(rng, treegen.RandomSpec{Size: 1 + int(b%40), MaxDepth: 8, MaxFanout: 4})
		var s strategy.Strategy
		switch chooser % 5 {
		case 0:
			s = strategy.ZhangL()
		case 1:
			s = strategy.ZhangR()
		case 2:
			s = strategy.KleinH()
		case 3:
			s = strategy.DemaineH(f, g)
		default:
			s, _ = strategy.Opt(f, g)
		}
		c := strategy.Count(f, g, s).Total
		df, dg := strategy.NewDecomp(f), strategy.NewDecomp(g)
		lo := int64(max(f.Len(), g.Len()))
		hi := df.A[f.Root()] * dg.A[g.Root()]
		return c >= lo && c <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleNodePairs exercises the degenerate chains (size-1 trees) for
// every path type and both orientations.
func TestSingleNodePairs(t *testing.T) {
	// The shape trees all carry label "x", so a single "x" node is at
	// distance |big|-1 (insert/delete everything else).
	one := tree.MustParseBracket("{x}")
	big := treegen.Mixed(40)
	for _, s := range []strategy.Named{
		strategy.ZhangL(), strategy.ZhangR(), strategy.KleinH(), strategy.DemaineH(one, big),
	} {
		if d := New(one, big, cost.Unit{}, s).Run(); d != float64(big.Len()-1) {
			t.Fatalf("%s: d({a}, MX40) = %v want %d", s.Name(), d, big.Len()-1)
		}
	}
	for _, s := range []strategy.Named{
		strategy.ZhangL(), strategy.ZhangR(), strategy.KleinH(), strategy.DemaineH(big, one),
	} {
		if d := New(big, one, cost.Unit{}, s).Run(); d != float64(big.Len()-1) {
			t.Fatalf("%s: d(MX40, {a}) = %v want %d", s.Name(), d, big.Len()-1)
		}
	}
}
