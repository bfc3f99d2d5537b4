package main

import (
	"fmt"
	"math/rand"

	"repro/internal/tree"
	"repro/internal/treegen"
)

// Every input of every workload is a pure function of the seed: each
// generator draws from its own rand.Rand seeded from (seed, purpose).

func rngFor(seed int64, purpose string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range purpose {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// datasetTree draws one tree of the given generator family and size.
func datasetTree(rng *rand.Rand, family string, size int) *tree.Tree {
	switch family {
	case "swissprot":
		return treegen.SwissProtLike(rng, size)
	case "treebank":
		return treegen.TreeBankLike(rng, size)
	case "treefam":
		return treegen.TreeFamLike(rng, size)
	case "random":
		return treegen.Random(rng, treegen.PaperRandom(size))
	}
	panic("perfbench: unknown tree family " + family)
}

var families = []string{"swissprot", "treebank", "treefam", "random"}

// kernelPair is one pair of kernel_shapes' fixed list.
type kernelPair struct {
	name string
	f, g *tree.Tree
}

// kernelTiers are the list's size tiers; kernelShapePairs the shape
// combinations at each tier, cross-shape pairs included.
var (
	kernelTiers      = []int{40, 90, 180}
	kernelShapePairs = [][2]treegen.Shape{
		{treegen.ShapeLB, treegen.ShapeLB}, {treegen.ShapeRB, treegen.ShapeRB},
		{treegen.ShapeFB, treegen.ShapeFB}, {treegen.ShapeZZ, treegen.ShapeZZ},
		{treegen.ShapeMX, treegen.ShapeMX}, {treegen.ShapeLB, treegen.ShapeRB},
		{treegen.ShapeRB, treegen.ShapeLB}, {treegen.ShapeFB, treegen.ShapeZZ},
		{treegen.ShapeZZ, treegen.ShapeMX}, {treegen.ShapeMX, treegen.ShapeFB},
	}
)

// kernelPairs builds kernel_shapes' pair list: at each size tier, the
// paper's five shapes paired with themselves and across shapes, and a
// pair of independent trees from each dataset-like generator and the
// paper's random generator; then pairs of serving-fixture trees. The seed draws the shapes' labels (which
// change the distances, not the work: unit-cost RTED does the same DP
// whatever the labels) and the generated trees.
func kernelPairs(seed int64) []kernelPair {
	rng := rngFor(seed, "kernel")
	var ps []kernelPair
	for _, n := range kernelTiers {
		for _, sp := range kernelShapePairs {
			f, g := relabel(rng, sp[0].Build(n)), relabel(rng, sp[1].Build(n))
			ps = append(ps, kernelPair{fmt.Sprintf("%v(%d)x%v(%d)", sp[0], f.Len(), sp[1], g.Len()), f, g})
		}
		for _, fam := range families {
			f, g := datasetTree(rng, fam, n), datasetTree(rng, fam, n)
			ps = append(ps, kernelPair{fmt.Sprintf("%s(%d)x%s(%d)", fam, f.Len(), fam, g.Len()), f, g})
		}
	}
	for i := 0; i < kernelServing; i++ {
		f, g := servingTree(rng), servingTree(rng)
		ps = append(ps, kernelPair{fmt.Sprintf("serving(%d)x(%d)", f.Len(), g.Len()), f, g})
	}
	return ps
}

// kernelServing is how many pairs of serving-fixture trees the list
// holds: the distance requests a server answers most, and numerous
// enough that the list's median pair is one of them.
const kernelServing = 21

// relabel returns t with every label drawn from four.
func relabel(rng *rand.Rand, t *tree.Tree) *tree.Tree {
	root := t.Builder(t.Root())
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		n.Label = fmt.Sprintf("s%d", rng.Intn(4))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return tree.Index(root)
}

// edit applies k random edit operations to a copy of t: node deletions
// (children move up to the parent), insertions (a new node adopting a
// run of siblings, possibly none) and renames, in proportions 4:3:3.
// Labels of inserted and renamed nodes come from t's own vocabulary, so
// variants stay close in label histogram as well as in structure.
func edit(rng *rand.Rand, t *tree.Tree, k int) *tree.Tree {
	root := t.Builder(t.Root())
	labels := make([]string, t.Len())
	for v := range labels {
		labels[v] = t.Label(v)
	}
	for ; k > 0; k-- {
		type slot struct{ parent, node *tree.Node }
		var nodes []slot
		var walk func(p, n *tree.Node)
		walk = func(p, n *tree.Node) {
			nodes = append(nodes, slot{p, n})
			for _, c := range n.Children {
				walk(n, c)
			}
		}
		walk(nil, root)
		at := nodes[rng.Intn(len(nodes))]
		label := labels[rng.Intn(len(labels))]
		switch op := rng.Intn(10); {
		case op < 4 && at.parent != nil: // delete
			var kids []*tree.Node
			for _, c := range at.parent.Children {
				if c == at.node {
					kids = append(kids, at.node.Children...)
				} else {
					kids = append(kids, c)
				}
			}
			at.parent.Children = kids
		case op < 7: // insert
			n := len(at.node.Children)
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			nd := tree.NewNode(label, append([]*tree.Node(nil), at.node.Children[lo:hi]...)...)
			kids := append([]*tree.Node(nil), at.node.Children[:lo]...)
			kids = append(kids, nd)
			at.node.Children = append(kids, at.node.Children[hi:]...)
		default: // rename
			at.node.Label = label
		}
	}
	return tree.Index(root)
}

// join_clusters' corpora: joinCorpora corpora of joinClusters clusters
// of joinClusterSize near-duplicates, the members 1, 2, 3, 4 and 5 edit
// operations away from their cluster's hidden base tree. The ops cycle
// through the corpora; there are enough of them for the joins' tail to
// have ten beyond it.
const (
	joinCorpora     = 48
	joinClusters    = 5
	joinClusterSize = 5
	joinTau         = 8
)

// joinCorpus builds one of join_clusters' corpora. Bases cycle through
// the dataset-like and random generators, and their sizes through 20–60:
// every corpus holds small and large bases alike, so the joins cost
// about the same, and every seed joins trees of the same sizes.
func joinCorpus(seed int64, k int) []*tree.Tree {
	rng := rngFor(seed, fmt.Sprintf("join-%d", k))
	var ts []*tree.Tree
	for c := 0; c < joinClusters; c++ {
		base := datasetTree(rng, families[c%len(families)], 20+(k+c*41/joinClusters)%41)
		for m := 0; m < joinClusterSize; m++ {
			ts = append(ts, edit(rng, base, 1+m))
		}
	}
	return ts
}

// The serving fixture of scripts/server_smoke.sh: 48 random 60-node
// trees over 12 labels.
const (
	serveTrees  = 48
	serveSize   = 60
	serveLabels = 12
)

func serveFixture(seed int64) []*tree.Tree {
	rng := rngFor(seed, "serve-fixture")
	ts := make([]*tree.Tree, serveTrees)
	for i := range ts {
		ts[i] = servingTree(rng)
	}
	return ts
}

func servingTree(rng *rand.Rand) *tree.Tree {
	return treegen.Random(rng, treegen.RandomSpec{Size: serveSize, MaxDepth: 15, MaxFanout: 6, Labels: serveLabels})
}
