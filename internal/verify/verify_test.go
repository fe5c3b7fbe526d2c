package verify

import (
	"math"
	"testing"

	"kjoin/internal/elem"
	"kjoin/internal/paperdata"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// newCtx builds a verification context over the Table 1 objects.
func newCtx(t *testing.T, delta, tau float64, plus bool) (*Context, [][]elem.ID) {
	t.Helper()
	h, _ := paperdata.Fig1()
	r := elem.NewResolver(h, elem.Options{Plus: plus, PhiMin: delta})
	var objs [][]elem.ID
	for _, toks := range paperdata.Table1() {
		var o []elem.ID
		for _, tok := range toks {
			o = append(o, r.ID(tok))
		}
		objs = append(objs, o)
	}
	sp := sig.NewSpace(r, elem.Standard, delta, sig.Deep)
	// Warm signature caches (single-threaded requirement).
	for _, o := range objs {
		for _, e := range o {
			sp.GroupKeys(e)
			sp.ElemSigs(e)
		}
	}
	return &Context{
		Res:    r,
		Space:  sp,
		Metric: elem.Standard,
		Set:    setmetric.Jaccard,
		Delta:  delta,
		Tau:    tau,
	}, objs
}

func TestSimilarityPaperS1S4(t *testing.T) {
	// §2.1.2: δ=0.5, SIMδ(S1, S4) = 27/73 (fuzzy overlap 27/20).
	c, objs := newCtx(t, 0.5, 0.6, false)
	if got := c.Overlap(objs[0], objs[3]); !almostEq(got, 27.0/20) {
		t.Errorf("Overlap(S1, S4) = %v, want 27/20", got)
	}
	if got := c.Similarity(objs[0], objs[3]); !almostEq(got, 27.0/73) {
		t.Errorf("SIM(S1, S4) = %v, want 27/73", got)
	}
}

func TestSimilarityPaperS1S3(t *testing.T) {
	// §2.2: δ=0.7, τ=0.6, SIMδ(S1, S3) = 19/29 > τ → answer.
	c, objs := newCtx(t, 0.7, 0.6, false)
	if got := c.Overlap(objs[0], objs[2]); !almostEq(got, 19.0/12) {
		t.Errorf("Overlap(S1, S3) = %v, want 19/12", got)
	}
	if got := c.Similarity(objs[0], objs[2]); !almostEq(got, 19.0/29) {
		t.Errorf("SIM(S1, S3) = %v, want 19/29", got)
	}
	var st Stats
	for _, k := range []Kind{Basic, SubGraph, Adaptive} {
		if !c.Verify(objs[0], objs[2], k, &st) {
			t.Errorf("Verify(S1, S3, %v) = false, want true", k)
		}
	}
	if st.Results != 3 {
		t.Errorf("Results = %d, want 3", st.Results)
	}
}

func TestCountPruningPaperS1S6(t *testing.T) {
	// §3.2: δ=0.7, τ=0.6: S1, S6 partitioned into groups gives
	// Σ min = 1 < τ/(1+τ)(2+2) = 3/2 → count-pruned.
	c, objs := newCtx(t, 0.7, 0.6, false)
	var st Stats
	if c.Verify(objs[0], objs[5], Adaptive, &st) {
		t.Error("S1, S6 must not verify")
	}
	if st.CountPruned != 1 {
		t.Errorf("CountPruned = %d, want 1", st.CountPruned)
	}
	if st.MatchingCalls != 0 {
		t.Errorf("MatchingCalls = %d, want 0 (pruned before matching)", st.MatchingCalls)
	}
}

func TestWeightedCountPruningPaperS1S4(t *testing.T) {
	// §3.2: δ=0.7, τ=0.6: count pruning keeps S1,S4 (Σ min = 2 ≥ 3/2) but
	// the weighted bound 3/4 + 4/5 = 31/20 < 15/8 prunes it.
	c, objs := newCtx(t, 0.7, 0.6, false)
	var st Stats
	if c.Verify(objs[0], objs[3], Adaptive, &st) {
		t.Error("S1, S4 must not verify")
	}
	if st.CountPruned != 0 {
		t.Errorf("CountPruned = %d, want 0", st.CountPruned)
	}
	if st.WeightedPruned != 1 {
		t.Errorf("WeightedPruned = %d, want 1", st.WeightedPruned)
	}
}

func TestAdaptivePaperS8S9(t *testing.T) {
	// §5.2: δ=0.6, τ=0.6 on S8, S9. With the Figure 1 structure the
	// group bounds are Bl = 13/6 + 8/5 = 113/30 (as in the paper) and
	// Bu = 9/4 + 47/20. Neither bound decides; in the paper the location
	// group has the loosest bounds and is solved first (exact 8/5), after
	// which Bu = 9/4 + 8/5 = 77/20 < 4.5 rejects with a single matching
	// call. The B^l rung solves both groups instead of bounding them, in
	// group order: the food group (exact
	// 13/6, Bu = 13/6 + 47/20 still reaches 4.5), then the location group,
	// after which Bu = 113/30 rejects — two exact solves where the paper's
	// loop made one call, and no call of that loop.
	c, objs := newCtx(t, 0.6, 0.6, false)
	var st Stats
	if c.Verify(objs[7], objs[8], Adaptive, &st) {
		t.Error("S8, S9 must not verify")
	}
	if st.UBRejected != 1 {
		t.Errorf("UBRejected = %d, want 1", st.UBRejected)
	}
	if st.ExactSolves != 2 || st.MatchingCalls != 0 {
		t.Errorf("ExactSolves = %d, MatchingCalls = %d, want 2 and 0 (the rung decides)", st.ExactSolves, st.MatchingCalls)
	}
	// SubGraph needs both groups; Basic one big call.
	var st2 Stats
	if c.Verify(objs[7], objs[8], SubGraph, &st2) {
		t.Error("SubGraph must agree")
	}
	if st2.MatchingCalls != 2 {
		t.Errorf("SubGraph MatchingCalls = %d, want 2", st2.MatchingCalls)
	}
	// Exact overlap = 13/6 + 8/5 = 113/30.
	if got := c.Overlap(objs[7], objs[8]); !almostEq(got, 113.0/30) {
		t.Errorf("Overlap(S8, S9) = %v, want 113/30", got)
	}
}

// Basic is the naive verifier of §3.2: it count-prunes (framework level)
// but never applies the weighted pruning of Lemma 4 — it computes the
// matching directly instead.
func TestBasicSkipsWeightedPruning(t *testing.T) {
	c, objs := newCtx(t, 0.7, 0.6, false)
	var st Stats
	// S1, S4 is weighted-prunable (paper §3.2) but survives count pruning.
	if c.Verify(objs[0], objs[3], Basic, &st) {
		t.Error("S1, S4 must not verify")
	}
	if st.WeightedPruned != 0 {
		t.Errorf("Basic should not weighted-prune, got %d", st.WeightedPruned)
	}
	if st.MatchingCalls != 1 {
		t.Errorf("Basic should compute one whole-graph matching, got %d", st.MatchingCalls)
	}
	// The count-prunable pair S1, S6 is pruned even under Basic.
	var st2 Stats
	if c.Verify(objs[0], objs[5], Basic, &st2) {
		t.Error("S1, S6 must not verify")
	}
	if st2.CountPruned != 1 || st2.MatchingCalls != 0 {
		t.Errorf("Basic should count-prune S1,S6: %+v", st2)
	}
}

// Lemma 8: the subgraph decomposition computes the same overlap as the
// whole-graph matching, for every pair of Table 1 objects and several δ.
func TestSubgraphDecompositionExact(t *testing.T) {
	for _, delta := range []float64{0.5, 0.6, 0.7, 0.8} {
		c, objs := newCtx(t, delta, 0.6, false)
		for i := range objs {
			for j := range objs {
				a := c.Overlap(objs[i], objs[j])
				b := c.OverlapBasic(objs[i], objs[j])
				if !almostEq(a, b) {
					t.Errorf("δ=%v: Overlap(S%d,S%d) subgraph %v != basic %v", delta, i+1, j+1, a, b)
				}
			}
		}
	}
}

// All three verifiers agree with the ground-truth similarity on every
// Table 1 pair across a δ × τ grid, in both plain and Plus modes.
func TestVerifierAgreement(t *testing.T) {
	for _, plus := range []bool{false, true} {
		for _, delta := range []float64{0.5, 0.7, 0.8} {
			for _, tau := range []float64{0.3, 0.5, 0.6, 0.8} {
				c, objs := newCtx(t, delta, tau, plus)
				for i := range objs {
					for j := i + 1; j < len(objs); j++ {
						want := c.Similarity(objs[i], objs[j]) >= tau-1e-9
						for _, k := range []Kind{Basic, SubGraph, Adaptive} {
							var st Stats
							if got := c.Verify(objs[i], objs[j], k, &st); got != want {
								t.Errorf("plus=%v δ=%v τ=%v %v: Verify(S%d,S%d)=%v, want %v (sim=%v)",
									plus, delta, tau, k, i+1, j+1, got, want, c.Similarity(objs[i], objs[j]))
							}
						}
					}
				}
			}
		}
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	c, objs := newCtx(t, 0.7, 0.6, false)
	for i, o := range objs {
		if got := c.Similarity(o, o); !almostEq(got, 1) {
			t.Errorf("SIM(S%d, S%d) = %v, want 1", i+1, i+1, got)
		}
	}
}

func TestDiceAndCosineVerify(t *testing.T) {
	h, _ := paperdata.Fig1()
	r := elem.NewResolver(h, elem.Options{})
	var objs [][]elem.ID
	for _, toks := range paperdata.Table1() {
		var o []elem.ID
		for _, tok := range toks {
			o = append(o, r.ID(tok))
		}
		objs = append(objs, o)
	}
	sp := sig.NewSpace(r, elem.Standard, 0.7, sig.Deep)
	for _, o := range objs {
		for _, e := range o {
			sp.GroupKeys(e)
		}
	}
	for _, set := range []setmetric.Kind{setmetric.Dice, setmetric.Cosine} {
		c := &Context{Res: r, Space: sp, Metric: elem.Standard, Set: set, Delta: 0.7, Tau: 0.7}
		for i := range objs {
			for j := i + 1; j < len(objs); j++ {
				want := c.Similarity(objs[i], objs[j]) >= 0.7-1e-9
				var st Stats
				if got := c.Verify(objs[i], objs[j], Adaptive, &st); got != want {
					t.Errorf("%v: Verify(S%d,S%d)=%v, want %v", set, i+1, j+1, got, want)
				}
			}
		}
	}
}

func TestEmptyObjects(t *testing.T) {
	c, objs := newCtx(t, 0.7, 0.6, false)
	var empty []elem.ID
	if got := c.Overlap(empty, objs[0]); got != 0 {
		t.Errorf("Overlap(∅, S1) = %v, want 0", got)
	}
	var st Stats
	if c.Verify(empty, objs[0], Adaptive, &st) {
		t.Error("empty object must not verify against S1")
	}
	if got := c.Similarity(empty, empty); got != 1 {
		t.Errorf("SIM(∅, ∅) = %v, want 1", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Pairs: 1, CountPruned: 2, WeightedPruned: 3, UBRejected: 4, LBAccepted: 5, MatchingCalls: 6, ExactSolves: 8, Results: 7}
	b := a
	a.Add(b)
	if a.Pairs != 2 || a.CountPruned != 4 || a.WeightedPruned != 6 || a.UBRejected != 8 ||
		a.LBAccepted != 10 || a.MatchingCalls != 12 || a.ExactSolves != 16 || a.Results != 14 {
		t.Errorf("Add mismatch: %+v", a)
	}
}

func TestKindString(t *testing.T) {
	if Basic.String() != "basic" || SubGraph.String() != "subgraph" || Adaptive.String() != "adaptive" || Kind(9).String() != "unknown" {
		t.Error("Kind.String mismatch")
	}
}

// Plus-mode grouping merges groups through multi-mapped elements and the
// verifiers still agree (§6.4).
func TestPlusModeGroupMerging(t *testing.T) {
	h, _ := paperdata.Fig1()
	r := elem.NewResolver(h, elem.Options{Plus: true, PhiMin: 0.6})
	// "pizzahat" maps approximately to PizzaHut; with low φ it may also
	// reach other nodes, exercising multi-key grouping.
	x := []elem.ID{r.ID("pizzahat"), r.ID("kfc")}
	y := []elem.ID{r.ID("pizzahut"), r.ID("burgerking")}
	sp := sig.NewSpace(r, elem.Standard, 0.6, sig.Deep)
	for _, e := range append(append([]elem.ID{}, x...), y...) {
		sp.GroupKeys(e)
	}
	c := &Context{Res: r, Space: sp, Metric: elem.Standard, Set: setmetric.Jaccard, Delta: 0.6, Tau: 0.5}
	want := c.Similarity(x, y) >= 0.5-1e-9
	for _, k := range []Kind{Basic, SubGraph, Adaptive} {
		var st Stats
		if got := c.Verify(x, y, k, &st); got != want {
			t.Errorf("%v: got %v, want %v", k, got, want)
		}
	}
	if got, want := c.Overlap(x, y), c.OverlapBasic(x, y); !almostEq(got, want) {
		t.Errorf("plus-mode decomposition %v != basic %v", got, want)
	}
}
