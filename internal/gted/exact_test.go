package gted

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/tree"
	"repro/internal/treegen"
	"repro/internal/zs"
)

// pinPair is one tree pair of the exact-kernel pin test.
type pinPair struct {
	name string
	f, g *tree.Tree
}

// kernelPinPairs returns small pairs covering the ΔI state kinds and the
// ΔL/ΔR row cases: single nodes, leaf-only children, left/right-branch,
// zig-zag, full binary and mixed shapes, a random pair, and a random
// 30-node tree against one node (the one-node ΔI path; its heavy chain
// has whole-tree, left-strip and right-strip states). Shape trees are
// relabelled from three labels so renames are not all free.
func kernelPinPairs() []pinPair {
	rng := rand.New(rand.NewSource(31))
	relabel := func(t *tree.Tree) *tree.Tree {
		root := t.Builder(t.Root())
		var walk func(n *tree.Node)
		walk = func(n *tree.Node) {
			n.Label = string(rune('a' + rng.Intn(3)))
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
		return tree.Index(root)
	}
	br := tree.MustParseBracket
	return []pinPair{
		{"single", br("{a}"), br("{b}")},
		{"single-tree", br("{a}"), br("{a{b}{c{d}}}")},
		{"leaves", br("{r{a}{b}{c}{d}}"), br("{r{b}{e}{a}}")},
		{"LB-RB", relabel(treegen.LeftBranch(15)), relabel(treegen.RightBranch(13))},
		{"ZZ-LB", relabel(treegen.ZigZag(17)), relabel(treegen.LeftBranch(11))},
		{"RB-ZZ", relabel(treegen.RightBranch(9)), relabel(treegen.ZigZag(12))},
		{"FB-MX", relabel(treegen.FullBinary(15)), relabel(treegen.Mixed(14))},
		{"random", treegen.Random(rng, treegen.RandomSpec{Size: 26, MaxDepth: 6, MaxFanout: 4, Labels: 3}),
			treegen.Random(rng, treegen.RandomSpec{Size: 21, MaxDepth: 6, MaxFanout: 4, Labels: 3})},
		{"tree-leaf", treegen.Random(rand.New(rand.NewSource(3)), treegen.RandomSpec{Size: 30, MaxDepth: 6, MaxFanout: 4, Labels: 3}),
			br("{b}")},
	}
}

// pinnedCounters holds, per pin pair and forced choice (strategy.Choice
// order), the exact run's {Subproblems, RowCells, MaxLiveRows, SPFCalls}
// as computed by the per-cell ΔI/ΔL/ΔR loops that preceded the
// straight-line exact kernels.
var pinnedCounters = map[string][6][4]int64{
	"single":      {{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 4, 0, 1}, {1, 4, 0, 1}, {1, 4, 0, 1}, {1, 4, 0, 1}},
	"single-tree": {{6, 10, 1, 1}, {5, 5, 2, 2}, {6, 16, 0, 1}, {6, 16, 0, 2}, {5, 14, 0, 1}, {5, 14, 0, 2}},
	"leaves":      {{56, 80, 2, 4}, {66, 90, 2, 3}, {48, 108, 0, 4}, {48, 108, 0, 3}, {48, 108, 0, 4}, {48, 108, 0, 3}},
	"LB-RB":       {{1078, 2002, 2, 8}, {1216, 2280, 2, 7}, {1078, 1680, 0, 8}, {1078, 1680, 0, 7}, {1216, 1872, 0, 8}, {1216, 1872, 0, 7}},
	"ZZ-LB":       {{900, 1650, 2, 9}, {1296, 2448, 2, 6}, {912, 1452, 0, 9}, {912, 1452, 0, 6}, {1764, 2436, 0, 9}, {1764, 2436, 0, 6}},
	"RB-ZZ":       {{481, 1014, 2, 5}, {425, 765, 2, 6}, {625, 930, 0, 5}, {625, 930, 0, 6}, {377, 630, 0, 5}, {377, 630, 0, 6}},
	"FB-MX":       {{2624, 3360, 4, 8}, {2064, 2880, 3, 6}, {864, 1320, 0, 8}, {864, 1320, 0, 6}, {864, 1320, 0, 8}, {864, 1320, 0, 6}},
	"random":      {{9486, 11781, 4, 10}, {11767, 14391, 4, 10}, {2530, 3640, 0, 10}, {2530, 3640, 0, 10}, {2610, 3740, 0, 10}, {2610, 3740, 0, 10}},
	"tree-leaf":   {{69, 69, 5, 15}, {379, 465, 1, 1}, {77, 184, 0, 15}, {77, 184, 0, 1}, {74, 178, 0, 15}, {74, 178, 0, 1}},
}

// labelCosts is a non-unit model whose costs depend on the labels, with
// values that are not exactly representable in binary, so any change in
// float operand order would show up in the low bits.
var labelCosts = cost.Func{
	DeleteF: func(l string) float64 { return 0.3 + 0.1*float64(l[len(l)-1]%7) },
	InsertF: func(l string) float64 { return 0.7 + 0.3*float64(l[len(l)-1]%3) },
	RenameF: func(a, b string) float64 {
		if a == b {
			return 0
		}
		return 0.9 + 0.2*float64((a[len(a)-1]+b[len(b)-1])%4)
	},
}

// TestExactKernelMatchesBounded pins the straight-line exact kernels to
// the bounded loops, which evaluate the same cells through the per-cell
// reads: with a finite cutoff above every possible distance the bounded
// run prunes nothing, so every subtree-pair distance must agree bit for
// bit. Each of the six LRH choices is forced on its own (single-choice
// OptRestricted sets), so the F-side and the swapped G-side orientation
// of every single-path function run, and the exact counters must equal
// the ones the per-cell loops reported on the same pairs.
func TestExactKernelMatchesBounded(t *testing.T) {
	models := []struct {
		name string
		m    cost.Model
	}{
		{"unit", cost.Unit{}},
		{"weighted", cost.Weighted{DeleteW: 1.3, InsertW: 0.7, RenameW: 2.1}},
		{"label", labelCosts},
	}
	const tau = 1e9 // finite, so the run is bounded, but above any distance here
	for _, p := range kernelPinPairs() {
		if p.name == "tree-leaf" {
			var tab chainTable
			tab.build(p.f, cost.Compile(cost.Unit{}, p.f, p.g).Del)
			var ch chain
			tab.chainOf(p.f.Root(), p.f.Len(), &ch)
			var left, right bool
			for i := range ch.rem {
				left = left || !ch.dirR[i]
				right = right || (ch.dirR[i] && !ch.isTree[i])
			}
			if !left || !right {
				t.Fatalf("tree-leaf: heavy chain lacks a left strip (%v) or a right strip (%v)", left, right)
			}
		}
		want, ok := pinnedCounters[p.name]
		if !ok {
			t.Fatalf("no pinned counters for pair %s", p.name)
		}
		for c := strategy.Choice(0); c < 6; c++ {
			var allowed [6]bool
			allowed[c] = true
			s, _ := strategy.OptRestricted(p.f, p.g, allowed)
			for _, m := range models {
				exact := New(p.f, p.g, m.m, s)
				exact.Run()
				bounded := New(p.f, p.g, m.m, s)
				bounded.SetCutoff(tau, false)
				bounded.Run()
				if st := bounded.Stats(); st.PrunedSubproblems != 0 {
					t.Fatalf("%s %v %s: bounded reference pruned %d subproblems", p.name, c, m.name, st.PrunedSubproblems)
				}
				got, ref := exact.Matrix(), bounded.Matrix()
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s %v %s: D[%d][%d] exact %v, bounded %v",
							p.name, c, m.name, i/p.g.Len(), i%p.g.Len(), got[i], ref[i])
					}
				}
				st := exact.Stats()
				if g := [4]int64{st.Subproblems, st.RowCells, int64(st.MaxLiveRows), st.SPFCalls}; g != want[c] {
					t.Fatalf("%s %v %s: {Subproblems, RowCells, MaxLiveRows, SPFCalls} = %v, pinned %v",
						p.name, c, m.name, g, want[c])
				}
			}
		}
	}
}

// FuzzExactKernel checks exact runs on random pairs under the unit and
// two non-unit cost models against Zhang–Shasha (internal/zs), within
// the differential harness's tolerance, and checks the paper's cost
// identity: the subproblems an RTED run evaluates equal the count
// OptStrategy predicted for its strategy.
//
// Run continuously with: go test -fuzz=FuzzExactKernel ./internal/gted
func FuzzExactKernel(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(9), uint8(0))
	f.Add(int64(2), uint8(1), uint8(30), uint8(1))
	f.Add(int64(3), uint8(40), uint8(40), uint8(2))
	f.Add(int64(4), uint8(25), uint8(1), uint8(0))
	models := []cost.Model{
		cost.Unit{},
		cost.Weighted{DeleteW: 1.3, InsertW: 0.7, RenameW: 2.1},
		labelCosts,
	}
	var scratch strategy.OptScratch
	f.Fuzz(func(t *testing.T, seed int64, a, b, model uint8) {
		rng := rand.New(rand.NewSource(seed))
		spec := func(n uint8) treegen.RandomSpec {
			s := treegen.RandomSpec{Size: 1 + int(n%48), MaxDepth: 1 + rng.Intn(10), MaxFanout: 1 + rng.Intn(6), Labels: 1 + rng.Intn(4)}
			// Lift the fanout limit when the two limits cap the tree
			// below Size.
			capacity, level := 1, 1
			for dep := 1; dep <= s.MaxDepth && capacity < s.Size; dep++ {
				level *= s.MaxFanout
				capacity += level
			}
			if capacity < s.Size {
				s.MaxFanout = 0
			}
			return s
		}
		ft := treegen.Random(rng, spec(a))
		gt := treegen.Random(rng, spec(b))
		m := models[int(model)%len(models)]
		s, predicted := scratch.Opt(ft, gt, strategy.NewDecomp(ft), strategy.NewDecomp(gt))
		r := New(ft, gt, m, s)
		d := r.Run()
		if want := zs.Dist(ft, gt, m); !approx(d, want) {
			t.Fatalf("model %d: RTED %v, Zhang–Shasha %v\nF=%s\nG=%s", model, d, want, ft, gt)
		}
		if got := r.Stats().Subproblems; got != predicted {
			t.Fatalf("model %d: %d subproblems evaluated, OptStrategy predicted %d\nF=%s\nG=%s", model, got, predicted, ft, gt)
		}
	})
}
