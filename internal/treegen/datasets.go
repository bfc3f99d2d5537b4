package treegen

import (
	"fmt"
	"math/rand"

	"repro/internal/tree"
)

// This file simulates the three real-world datasets of the paper's
// evaluation. The originals (SwissProt XML, Penn TreeBank XML, TreeFam
// phylogenies) are not redistributable, so seeded generators reproduce
// their published shape statistics instead: the experiments measure
// decomposition behaviour, which depends on tree shape, not content. The
// statistics the paper reports and the generators target:
//
//	SwissProt: flat and wide — max depth 4, max fanout 346, avg size 187
//	TreeBank:  small and deep — avg depth 10.4, max depth 35, avg size 68
//	TreeFam:   binary and deep — avg depth 14, avg fanout 2, avg size 95,
//	           with trees up to and beyond 1000 nodes

// SwissProtLike generates a protein-entry-shaped XML tree: a root with
// many mid-level record elements, each carrying a handful of shallow
// fields. Depth never exceeds 4.
func SwissProtLike(rng *rand.Rand, size int) *tree.Tree {
	if size < 1 {
		panic("treegen: tree size must be positive")
	}
	sections := []string{"Ref", "Feature", "Comment", "DbRef", "Keyword"}
	fields := []string{"Name", "Type", "Value", "Pos", "Note", "ID"}
	root := tree.NewNode("Entry")
	budget := size - 1
	// Fixed header fields, depth 1.
	for _, h := range []string{"Accession", "Name", "Sequence"} {
		if budget == 0 {
			break
		}
		root.Add(tree.NewNode(h))
		budget--
	}
	// Record sections: depth-2 elements with depth-3 fields, some of
	// which carry a depth-4 text node.
	for budget > 0 {
		sec := tree.NewNode(sections[rng.Intn(len(sections))])
		root.Add(sec)
		budget--
		nf := 1 + rng.Intn(5)
		for i := 0; i < nf && budget > 0; i++ {
			f := tree.NewNode(fields[rng.Intn(len(fields))])
			sec.Add(f)
			budget--
			if budget > 0 && rng.Intn(2) == 0 {
				f.Add(tree.NewNode(fmt.Sprintf("t%d", rng.Intn(50))))
				budget--
			}
		}
	}
	return tree.Index(root)
}

// TreeBankLike generates a parse-tree-shaped tree: narrow fanout (1–3),
// deep recursive phrase structure, words at the leaves.
func TreeBankLike(rng *rand.Rand, size int) *tree.Tree {
	if size < 1 {
		panic("treegen: tree size must be positive")
	}
	phrases := []string{"S", "NP", "VP", "PP", "SBAR", "ADJP", "ADVP"}
	tags := []string{"NN", "VB", "DT", "IN", "JJ", "RB", "PRP", "CC"}
	var build func(budget, depth int) *tree.Node
	build = func(budget, depth int) *tree.Node {
		if budget <= 2 || depth >= 34 {
			nd := tree.NewNode(tags[rng.Intn(len(tags))])
			if budget >= 2 {
				nd.Add(tree.NewNode(fmt.Sprintf("w%d", rng.Intn(200))))
			}
			return nd
		}
		nd := tree.NewNode(phrases[rng.Intn(len(phrases))])
		budget--
		k := 1 + rng.Intn(3)
		for i := 0; i < k && budget > 0; i++ {
			// Skew the budget split so that one child tends to carry
			// most of the remaining material, which yields the deep
			// narrow shape of natural-language parses.
			var part int
			if i == k-1 {
				part = budget
			} else {
				part = 1 + rng.Intn(max(budget/3, 1))
				if part > budget {
					part = budget
				}
			}
			nd.Add(build(part, depth+1))
			budget -= part
		}
		return nd
	}
	return tree.Index(build(size, 0))
}

// TreeFamLike generates a phylogeny-shaped tree: strictly binary internal
// nodes produced by recursive random bipartition (a Yule-like topology,
// average depth logarithmic in the leaf count), gene names at the leaves.
func TreeFamLike(rng *rand.Rand, size int) *tree.Tree {
	if size < 1 {
		panic("treegen: tree size must be positive")
	}
	if size%2 == 0 {
		size++ // strictly binary trees have an odd node count
	}
	leaves := (size + 1) / 2
	var build func(nl int) *tree.Node
	build = func(nl int) *tree.Node {
		if nl == 1 {
			return tree.NewNode(fmt.Sprintf("GENE%d", rng.Intn(10000)))
		}
		l := 1 + rng.Intn(nl-1)
		kind := "spec"
		if rng.Intn(5) == 0 {
			kind = "dup"
		}
		return tree.NewNode(kind, build(l), build(nl-l))
	}
	return tree.Index(build(leaves))
}
