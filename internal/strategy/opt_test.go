package strategy

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/treegen"
)

// baselineRoots returns the subtrees of t that the baseline recursion
// pairs with: the root, and every root of a subtree hanging off a left,
// right or heavy path of a subtree already in the set. Baseline sets a
// choice only for pairs of such subtrees.
func baselineRoots(t *tree.Tree) []int {
	in := make([]bool, t.Len())
	roots := []int{t.Root()}
	in[t.Root()] = true
	for i := 0; i < len(roots); i++ {
		for _, pt := range []PathType{Heavy, Left, Right} {
			ForEachHanging(t, roots[i], pt, func(r int) {
				if !in[r] {
					in[r] = true
					roots = append(roots, r)
				}
			})
		}
	}
	return roots
}

// FuzzOptStrategy checks OptScratch.Opt against the Θ(n³) baseline of
// Section 6.1 on random pairs of at most 40 nodes: the same optimal cost,
// and the same choice for every subtree pair the baseline evaluates. One
// scratch serves every pair, two per input, of varying sizes and
// heights, so a depth-indexed cost row left dirty by an earlier pair
// would change a later pair's choices.
//
// Run continuously with: go test -fuzz=FuzzOptStrategy ./internal/strategy
func FuzzOptStrategy(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(9), uint8(30), uint8(3))
	f.Add(int64(2), uint8(1), uint8(40), uint8(40), uint8(1))
	f.Add(int64(3), uint8(40), uint8(2), uint8(7), uint8(39))
	f.Add(int64(4), uint8(25), uint8(25), uint8(1), uint8(1))
	var scratch OptScratch
	f.Fuzz(func(t *testing.T, seed int64, a, b, c, d uint8) {
		rng := rand.New(rand.NewSource(seed))
		spec := func(n uint8) treegen.RandomSpec {
			s := treegen.RandomSpec{Size: 1 + int(n%40), MaxDepth: 1 + rng.Intn(12), MaxFanout: 1 + rng.Intn(6)}
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
		for _, sizes := range [][2]uint8{{a, b}, {c, d}} {
			ft := treegen.Random(rng, spec(sizes[0]))
			gt := treegen.Random(rng, spec(sizes[1]))
			got, cost := scratch.Opt(ft, gt, NewDecomp(ft), NewDecomp(gt))
			want, wantCost := Baseline(ft, gt)
			if cost != wantCost {
				t.Fatalf("Opt cost %d, baseline %d\nF=%s\nG=%s", cost, wantCost, ft, gt)
			}
			for _, v := range baselineRoots(ft) {
				for _, w := range baselineRoots(gt) {
					if g, b := got.Choose(v, w), want.Choose(v, w); g != b {
						t.Fatalf("pair (%d,%d): Opt chose %v, baseline %v\nF=%s\nG=%s", v, w, g, b, ft, gt)
					}
				}
			}
		}
	})
}

var optSink *Array

// BenchmarkOptScratch times the strategy pass alone on the paper's
// shapes and a random pair, and reports ns per (v, w) cell, the unit of
// perfbench's traced strategy.ns_per_cell.
func BenchmarkOptScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(60))
	spec := treegen.RandomSpec{Size: 60, MaxDepth: 8, MaxFanout: 5}
	pairs := []struct {
		name string
		f, g *tree.Tree
	}{
		{"FB255", treegen.FullBinary(255), treegen.FullBinary(255)},
		{"ZZ301", treegen.ZigZag(301), treegen.ZigZag(301)},
		{"MX301", treegen.Mixed(301), treegen.Mixed(301)},
		{"random60", treegen.Random(rng, spec), treegen.Random(rng, spec)},
	}
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			df, dg := NewDecomp(p.f), NewDecomp(p.g)
			var s OptScratch
			s.Opt(p.f, p.g, df, dg) // grow the scratch outside the timing
			for b.Loop() {
				optSink, _ = s.Opt(p.f, p.g, df, dg)
			}
			cells := float64(p.f.Len()) * float64(p.g.Len())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
		})
	}
}
