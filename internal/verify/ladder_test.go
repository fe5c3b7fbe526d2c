package verify

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kjoin/internal/elem"
	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
)

// seedWeightedUB is Lemma 4's bound the way the seed ladder sums it:
// group by group in first-seen order.
func seedWeightedUB(c *Context, x, y []elem.ID) float64 {
	w := 0.0
	for _, g := range seedGroups(c, x, y) {
		w += seedGroupWeightedUB(c, g)
	}
	return w
}

// seedVerifyKeyed is the seed's VerifyKeyed: key-count pruning, then
// seedVerify.
func seedVerifyKeyed(c *Context, x, y []elem.ID, kind Kind, st *Stats) bool {
	need := c.Set.PairOverlap(c.Tau, len(x), len(y))
	if mathx.LT(float64(countBound(c.SortedKeys(x), c.SortedKeys(y))), need) {
		st.Pairs++
		st.CountPruned++
		return false
	}
	return seedVerify(c, x, y, kind, st)
}

// TestWeightedBoundMatchesGroups is the merge walk's property: over
// random element multisets — duplicate ids included, Lemma 4 intersects
// multisets — drawn so that objects share groups, the walk's sum is the
// seed's Σ groupWeightedUB up to rounding, a walk cut short only ever
// reports a bound below its floor when the full sum is below it too, and
// with τ placed so that the required overlap sits on, just under and
// just over that sum, the ladder's decision and counters are the seed's.
func TestWeightedBoundMatchesGroups(t *testing.T) {
	ctx, _, _ := diffCtx(t, 300, 0.8, 0.5, elem.Standard, setmetric.Jaccard, false)
	oracle := &Context{Res: ctx.Res, Space: ctx.Space, Metric: ctx.Metric, Set: ctx.Set, Delta: ctx.Delta}
	s := ctx.scratch()

	// Elements by group key, keeping the keys that several elements share.
	byKey := map[sig.Sig][]elem.ID{}
	for e := 0; e < ctx.Res.Len(); e++ {
		k := ctx.Space.GroupKeys(elem.ID(e))[0]
		byKey[k] = append(byKey[k], elem.ID(e))
	}
	var pools [][]elem.ID
	for k := sig.Sig(0); int(k) < ctx.Space.NumSigs(); k++ {
		if len(byKey[k]) >= 3 {
			pools = append(pools, byKey[k])
		}
	}
	if len(pools) < 4 {
		t.Fatalf("only %d groups with three or more elements", len(pools))
	}

	r := rand.New(rand.NewSource(16))
	object := func() []elem.ID {
		var o []elem.ID
		for n := 1 + r.Intn(10); len(o) < n; {
			pool := pools[r.Intn(min(len(pools), 6))] // few groups: objects collide
			e := pool[r.Intn(min(len(pool), 5))]
			o = append(o, e)
			if r.Intn(4) == 0 {
				o = append(o, e) // a duplicate id
			}
		}
		return o
	}
	decided, early, multisets := 0, 0, 0
	for trial := 0; trial < 3000; trial++ {
		x, y := object(), object()
		px, py := ctx.Prepare(x, nil, nil), ctx.Prepare(y, nil, nil)
		if (px.ByKey == nil) != hasRepeat(x) || (py.ByKey == nil) != hasRepeat(y) {
			t.Fatal("Prepare must give exactly the sets of single-key elements their key-ordered column")
		}
		if px.ByKey == nil || py.ByKey == nil {
			multisets++
		}
		ref := seedWeightedUB(oracle, x, y)
		n := float64(len(x) + len(y))
		slack := 4 * n * n * 0x1p-52
		// The walk itself intersects multisets, like the groups' Lemma 4.
		wx, wy := withColumn(ctx, px), withColumn(ctx, py)
		if w := ctx.weightedBound(s, &wx, &wy, math.Inf(-1)); math.Abs(w-ref) > slack {
			t.Fatalf("trial %d: walk %v, groups %v (x=%v y=%v)", trial, w, ref, x, y)
		}
		for _, floor := range []float64{ref - 1, ref - 1e-9, ref, ref + 1e-9, ref + 0.5, ref + 2} {
			w := ctx.weightedBound(s, &wx, &wy, floor)
			if w < ref-slack {
				t.Fatalf("trial %d floor %v: walk reports %v, under the full sum %v", trial, floor, w, ref)
			}
			if w < floor {
				early++
			}
		}

		if ref == 0 {
			continue
		}
		for _, target := range []float64{
			ref, ref + mathx.Eps, ref - mathx.Eps, ref + mathx.Eps + 1e-13, ref + mathx.Eps - 1e-13,
			ref + 2*mathx.Eps, ref + 1e-6, ref - 1e-6, math.Ceil(ref), math.Floor(ref), ref / 2,
		} {
			// Jaccard: need = τ/(1+τ)·(|x|+|y|), so τ = need/(|x|+|y|−need).
			tau := target / (n - target)
			if !(tau > 0 && tau <= 1) {
				continue
			}
			ctx.Tau, oracle.Tau = tau, tau
			for _, kind := range []Kind{SubGraph, Adaptive} {
				var got, want Stats
				g := ctx.VerifyPrepared(&px, &py, kind, &got)
				w := seedVerifyKeyed(oracle, x, y, kind, &want)
				if g != w || got != want {
					t.Fatalf("trial %d τ=%v (need≈%v, Lemma 4 sum %v) %v: got %v %+v, seed %v %+v",
						trial, tau, target, ref, kind, g, got, w, want)
				}
				decided++
			}
		}
	}
	if decided < 10000 || early < 1000 || multisets < 500 {
		t.Fatalf("only %d boundary decisions, %d early exits and %d pairs with a repeated id exercised", decided, early, multisets)
	}
}

// TestBoundChain walks the ladder's chain from its head, sketch ≥ count
// ≥ Lemma 4 ≥ overlap, over every pair of a POI corpus, plain and under
// Plus resolution — where an element with several group keys gives its
// object more keys than elements, merged groups take Lemma 4 out of the
// chain, and sketch ≥ count ≥ overlap must still hold. At every link a
// pair the sketch rejects is one VerifyPrepared count-prunes.
func TestBoundChain(t *testing.T) {
	for _, plus := range []bool{false, true} {
		ctx, objs, keys := diffCtx(t, 140, 0.8, 0.6, elem.Standard, setmetric.Jaccard, plus)
		preps, _ := prepareAll(ctx, objs)
		sketches := make([]uint64, len(keys))
		multiKey := 0
		for i, ks := range keys {
			sketches[i] = KeySketch(ks)
			if len(ks) > len(objs[i]) {
				multiKey++
			}
		}
		if (multiKey > 0) != plus {
			t.Fatalf("plus=%v: %d objects with more keys than elements", plus, multiKey)
		}
		sharing, rejected := 0, 0
		for x := range objs {
			for y := 0; y < x; y++ {
				sketch := SketchBound(sketches[x], len(keys[x]), sketches[y], len(keys[y]))
				count := countBound(keys[x], keys[y])
				overlap := seedOverlap(ctx, objs[x], objs[y])
				ok := sketch >= count && mathx.GE(float64(count), overlap)
				if !plus {
					w := seedWeightedUB(ctx, objs[x], objs[y])
					ok = ok && mathx.GE(float64(count), w) && mathx.GE(w, overlap)
				}
				if !ok {
					t.Fatalf("plus=%v pair (%d, %d): chain broken: sketch %d, count %d, overlap %v", plus, x, y, sketch, count, overlap)
				}
				if count > 0 {
					sharing++
				}
				if _, needCeil := ctx.scratch().pairNeed(ctx, len(objs[x]), len(objs[y])); sketch < needCeil {
					rejected++
					var st Stats
					if ctx.VerifyPrepared(&preps[x], &preps[y], Adaptive, &st) || st != (Stats{Pairs: 1, CountPruned: 1}) {
						t.Fatalf("plus=%v pair (%d, %d): the sketch rejects it, the ladder books %+v", plus, x, y, st)
					}
				}
			}
		}
		if sharing < 100 || rejected < 1000 {
			t.Fatalf("plus=%v: only %d pairs share a key and %d are rejected by the sketch", plus, sharing, rejected)
		}
	}
}

func hasRepeat(o []elem.ID) bool {
	seen := map[elem.ID]bool{}
	for _, e := range o {
		if seen[e] {
			return true
		}
		seen[e] = true
	}
	return false
}

// withColumn returns p with the key-ordered column Prepare withholds
// from an object that repeats an id (its elements all have one key).
func withColumn(c *Context, p Prepared) Prepared {
	if p.ByKey == nil {
		p.ByKey = slices.Clone(p.Elems)
		slices.SortFunc(p.ByKey, func(a, b elem.ID) int {
			return cmp.Or(cmp.Compare(c.Space.GroupKeys(a)[0], c.Space.GroupKeys(b)[0]), cmp.Compare(a, b))
		})
	}
	return p
}
