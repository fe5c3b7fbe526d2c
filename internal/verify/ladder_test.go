package verify

import (
	"math"
	"math/rand"
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

// TestWeightedBoundMatchesGroups is the table walk's property: over
// random element multisets — duplicate ids included, Lemma 4 intersects
// multisets — drawn so that objects share groups, for the pairs of sets
// (the objects Prepare gives the column the walk reads) and either side
// armed as the probe, the walk's sum is the seed's Σ groupWeightedUB up
// to rounding and a walk cut short only ever reports a bound below its
// floor when the full sum is below it too; and for every pair, with τ
// placed so that the required overlap sits on, just under and just over
// that sum, the ladder's decision and counters are the seed's whether x,
// y or neither is the armed probe.
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
	decided, early, walked, multisets := 0, 0, 0, 0
	for trial := 0; trial < 3000; trial++ {
		x, y := object(), object()
		px, py := ctx.Prepare(x, nil, nil), ctx.Prepare(y, nil, nil)
		sx, sy := dropRepeats(x), dropRepeats(y)
		if (px.ByKey == nil) != (len(sx) < len(x)) || (py.ByKey == nil) != (len(sy) < len(y)) {
			t.Fatal("Prepare must give exactly the sets of single-key elements their key-ordered column")
		}
		if px.ByKey == nil || py.ByKey == nil {
			multisets++
		}
		ref := seedWeightedUB(oracle, x, y)
		n := float64(len(x) + len(y))
		slack := 4 * n * n * 0x1p-52
		// The walk reads sets: check it on the pair with its repeats dropped.
		psx, psy := ctx.Prepare(sx, nil, nil), ctx.Prepare(sy, nil, nil)
		setRef := seedWeightedUB(oracle, sx, sy)
		for _, side := range [][2]*Prepared{{&psx, &psy}, {&psy, &psx}} {
			walked++
			ctx.Arm(side[0])
			if w := ctx.weightedBound(s, side[1], math.Inf(-1)); math.Abs(w-setRef) > slack {
				t.Fatalf("trial %d: walk %v, groups %v (probe %v, walked %v)", trial, w, setRef, side[0].Elems, side[1].Elems)
			}
			for _, floor := range []float64{setRef - 1, setRef - 1e-9, setRef, setRef + 1e-9, setRef + 0.5, setRef + 2} {
				w := ctx.weightedBound(s, side[1], floor)
				if w < setRef-slack {
					t.Fatalf("trial %d floor %v: walk reports %v, under the full sum %v", trial, floor, w, setRef)
				}
				if w < floor {
					early++
				}
			}
			ctx.Disarm()
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
				var want Stats
				w := seedVerifyKeyed(oracle, x, y, kind, &want)
				for _, probe := range []*Prepared{nil, &px, &py} {
					if probe != nil {
						ctx.Arm(probe)
					}
					var got Stats
					g := ctx.VerifyPrepared(&px, &py, kind, &got)
					ctx.Disarm()
					if g != w || got != want {
						t.Fatalf("trial %d τ=%v (need≈%v, Lemma 4 sum %v) %v, probe %v: got %v %+v, seed %v %+v",
							trial, tau, target, ref, kind, probe, g, got, w, want)
					}
					decided++
				}
			}
		}
	}
	if decided < 30000 || walked < 6000 || early < 5000 || multisets < 500 {
		t.Fatalf("only %d boundary decisions, %d walks, %d early exits and %d pairs with a repeated id exercised",
			decided, walked, early, multisets)
	}
}

// TestBoundChain walks the ladder's chain from its head, sketch ≥ count
// ≥ Lemma 4 ≥ overlap, over every pair of a POI corpus, plain and under
// Plus resolution — where an element with several group keys gives its
// object more keys than elements, merged groups take Lemma 4 out of the
// chain, and sketch ≥ count ≥ overlap must still hold. At every link a
// pair the sketch rejects is one VerifyPrepared count-prunes, with either
// object armed as the probe.
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
					for _, probe := range []*Prepared{&preps[x], &preps[y]} {
						ctx.Arm(probe)
						var st Stats
						if ctx.VerifyPrepared(&preps[x], &preps[y], Adaptive, &st) || st != (Stats{Pairs: 1, CountPruned: 1}) {
							t.Fatalf("plus=%v pair (%d, %d): the sketch rejects it, the ladder books %+v", plus, x, y, st)
						}
					}
					ctx.Disarm()
				}
			}
		}
		if sharing < 100 || rejected < 1000 {
			t.Fatalf("plus=%v: only %d pairs share a key and %d are rejected by the sketch", plus, sharing, rejected)
		}
	}
}

// dropRepeats returns o without the later copies of a repeated id.
func dropRepeats(o []elem.ID) []elem.ID {
	var out []elem.ID
	seen := map[elem.ID]bool{}
	for _, e := range o {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// TestArmedTablesNeverStale: a Context armed with probe P and then handed
// a pair without P, a pair with P after that, or — once disarmed — a
// different object at P's address, decides every pair and books every
// counter as a fresh Context does.
func TestArmedTablesNeverStale(t *testing.T) {
	for _, plus := range []bool{false, true} {
		ctx, objs, _ := diffCtx(t, 140, 0.6, 0.3, elem.Standard, setmetric.Jaccard, plus)
		preps, _ := prepareAll(ctx, objs)
		r := rand.New(rand.NewSource(29))
		var total Stats
		check := func(trial int, what string, x, y *Prepared, kind Kind) {
			var got, want Stats
			g := ctx.VerifyPrepared(x, y, kind, &got)
			w := ctx.Clone().VerifyPrepared(x, y, kind, &want)
			if g != w || got != want {
				t.Fatalf("plus=%v trial %d, %s: got %v %+v, a fresh Context %v %+v", plus, trial, what, g, got, w, want)
			}
			total.Add(got)
		}
		for trial := 0; trial < 2000; trial++ {
			p, x, y := r.Intn(len(objs)), r.Intn(len(objs)), r.Intn(len(objs))
			if p == x || p == y {
				continue
			}
			kind := []Kind{SubGraph, Adaptive}[trial%2]
			ctx.Arm(&preps[p])
			check(trial, "a pair without the armed probe", &preps[x], &preps[y], kind)
			check(trial, "the probe's pair after it", &preps[p], &preps[y], kind)
			slot := preps[p]
			ctx.Arm(&slot)
			check(trial, "the armed probe", &preps[y], &slot, kind)
			ctx.Disarm()
			slot = preps[x]
			check(trial, "another object at the disarmed probe's address", &slot, &preps[y], kind)
		}
		// Under Plus MaxDiffSim is the best φ, 1, so Lemma 4 never prunes.
		if total.CountPruned < 100 || (total.WeightedPruned < 100) != plus || total.Results < 100 {
			t.Fatalf("plus=%v: the pairs reached too few rungs: %+v", plus, total)
		}
	}
}
