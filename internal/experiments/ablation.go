package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cost"
	"repro/internal/gted"
	"repro/internal/join"
	"repro/internal/strategy"
	"repro/internal/tree"
	"repro/internal/treegen"
)

// Ablations beyond the paper: quantify the design choices
// of the LRH class itself.
//
//   - ablation-lr: optimal strategy restricted to {left,right} paths vs
//     full LRH — how much do heavy paths buy?
//   - ablation-h: optimal strategy restricted to heavy paths vs full LRH
//     — how much do L/R paths buy?
//   - ablation-spf: per-shape comparison of the single-path function
//     workloads |F|·|F(G,ΓL)| (ΔL) vs |F|·|A(G)| (ΔI) at the root pair —
//     the structural reason both families are needed.
//   - ablation-strategy: OptStrategy runtime vs the O(n³) baseline
//     algorithm runtime, verifying the quadratic strategy computation is
//     what makes RTED viable.

func init() {
	register("ablation-lr", "ablation: optimal {L,R}-only strategy vs full LRH", func(cfg Config) error {
		return ablationRestricted(cfg, "ablation-lr", strategy.LROnly)
	})
	register("ablation-h", "ablation: optimal {H}-only strategy vs full LRH", func(cfg Config) error {
		return ablationRestricted(cfg, "ablation-h", strategy.HOnly)
	})
	register("ablation-spf", "ablation: ΔL vs ΔI single-path workloads per shape", ablationSPF)
	register("ablation-strategy", "ablation: OptStrategy vs baseline strategy computation", ablationStrategy)
	register("ablation-filter", "ablation: bounds-filtered join vs plain RTED join", ablationFilter)
}

// ablationFilter quantifies the Section-7 claim that lower/upper bounds
// prune exact computations in threshold joins: a TreeFam-like collection
// is self-joined with and without the bounds pipeline.
func ablationFilter(cfg Config) error {
	header(cfg, "ablation-filter", "bounds-filtered join vs plain RTED join on TreeFam-like trees",
		"tau", "plain[s]", "filtered[s]", "lb-pruned", "ub-accepted", "exact", "matches")
	rng := rand.New(rand.NewSource(cfg.Seed))
	var trees []*tree.Tree
	count := 14
	for i := 0; i < count; i++ {
		trees = append(trees, treegen.TreeFamLike(rng, cfg.size(200)+rng.Intn(cfg.size(200))))
	}
	for _, tauFrac := range []float64{0.05, 0.25, 0.75} {
		tau := tauFrac * float64(cfg.size(300))
		plain := join.SelfJoin(trees, tau, cost.Unit{}, join.RTEDFactory())
		filtered := join.FilteredSelfJoin(trees, tau, join.RTEDFactory(), false)
		if len(filtered.Pairs) != len(plain.Pairs) {
			return fmt.Errorf("ablation-filter: filtered join found %d pairs, plain %d",
				len(filtered.Pairs), len(plain.Pairs))
		}
		fmt.Fprintf(cfg.Out, "%.0f\t%s\t%s\t%d\t%d\t%d\t%d\n",
			tau, secs(plain.Elapsed), secs(filtered.Elapsed),
			filtered.Filter.LowerPruned, filtered.Filter.UpperAccepted,
			filtered.Filter.ExactComputed, len(filtered.Pairs))
	}
	return nil
}

func ablationRestricted(cfg Config, id string, allowed [6]bool) error {
	header(cfg, id, "restricted-optimum / full-optimum per shape (1.00 = no loss)",
		"shape", "size", "fullLRH", "restricted", "ratio")
	n := cfg.size(800)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, s := range treegen.Shapes {
		t := s.Build(n)
		_, full := strategy.Opt(t, t)
		_, restr := strategy.OptRestricted(t, t, allowed)
		fmt.Fprintf(cfg.Out, "%s\t%d\t%d\t%d\t%.2f\n", s, t.Len(), full, restr, float64(restr)/float64(full))
		if restr < full {
			return fmt.Errorf("%s: restricted optimum %d beats full %d on %s", id, restr, full, s)
		}
	}
	t := treegen.Random(rng, treegen.PaperRandom(n))
	_, full := strategy.Opt(t, t)
	_, restr := strategy.OptRestricted(t, t, allowed)
	fmt.Fprintf(cfg.Out, "Random\t%d\t%d\t%d\t%.2f\n", t.Len(), full, restr, float64(restr)/float64(full))
	return nil
}

func ablationSPF(cfg Config) error {
	header(cfg, "ablation-spf", "single-path workloads at the root pair (per Lemma 4)",
		"shape", "size", "|F|*FL(G)", "|F|*FR(G)", "|F|*A(G)")
	n := cfg.size(800)
	for _, s := range treegen.Shapes {
		t := s.Build(n)
		d := strategy.NewDecomp(t)
		sz := int64(t.Len())
		r := t.Root()
		fmt.Fprintf(cfg.Out, "%s\t%d\t%d\t%d\t%d\n", s, t.Len(), sz*d.FL[r], sz*d.FR[r], sz*d.A[r])
	}
	return nil
}

func ablationStrategy(cfg Config) error {
	header(cfg, "ablation-strategy", "strategy computation: OptStrategy (O(n²)) vs baseline (O(n³)), and GTED share",
		"size", "opt[s]", "baseline[s]", "gted[s]")
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, n := range cfg.sizes(100, 1200, 4) {
		t := treegen.Random(rng, treegen.PaperRandom(n))

		start := time.Now()
		str, c1 := strategy.Opt(t, t)
		optT := time.Since(start)

		start = time.Now()
		_, c2 := strategy.Baseline(t, t)
		baseT := time.Since(start)
		if c1 != c2 {
			return fmt.Errorf("ablation-strategy: optimum mismatch %d vs %d", c1, c2)
		}

		start = time.Now()
		gted.New(t, t, cost.Unit{}, str).Run()
		gtedT := time.Since(start)

		fmt.Fprintf(cfg.Out, "%d\t%s\t%s\t%s\n", t.Len(), secs(optT), secs(baseT), secs(gtedT))
	}
	return nil
}
