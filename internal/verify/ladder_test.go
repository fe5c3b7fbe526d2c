package verify

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kjoin/internal/elem"
	"kjoin/internal/matching"
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

// columnTerms returns rung 2b's term of every key q shares with the
// loaded probe, in the order the rung reads them (columnTerm).
func columnTerms(c *Context, q *Prepared) (keys []sig.Sig, terms []float64) {
	s := c.scratch()
	for i, k := range q.Keys {
		if (i == 0 || k != q.Keys[i-1]) && s.probe.key(k) != nil {
			keys = append(keys, k)
			terms = append(terms, c.columnTerm(s, q, i))
		}
	}
	return keys, terms
}

// columnSum is rung 2b's full sum of q against the probe p, armed for the
// call.
func columnSum(c *Context, p, q *Prepared) float64 {
	c.Arm(p)
	defer c.Disarm()
	_, terms := columnTerms(c, q)
	b := 0.0
	for _, t := range terms {
		b += t
	}
	return b
}

// refColumnTerm is rung 2b's term for q's run of key k against the probe
// p, computed from Resolver.Sim and Resolver.MaxDiffSim with the sums
// taken in the rung's order: the probe's Σ MaxDiffSim under k in its
// key order, less that of the intersection, against Σ over q's other
// elements under k of each one's best δ-edge to p's elements under k.
func refColumnTerm(c *Context, p, q *Prepared, k sig.Sig) float64 {
	md := func(e elem.ID) float64 { return c.Res.MaxDiffSim(e, c.Metric) }
	probe, pmd := map[elem.ID]bool{}, 0.0
	var run []elem.ID
	for i, e := range p.ByKey {
		probe[e] = true
		if p.Keys[i] == k {
			pmd += md(e)
			run = append(run, e)
		}
	}
	inter, si, col := 0, 0.0, 0.0
	for i, e := range q.ByKey {
		if q.Keys[i] == k && probe[e] {
			inter++
			si += md(e)
		}
	}
	for i, e := range q.ByKey {
		if q.Keys[i] != k || probe[e] {
			continue
		}
		best := 0.0
		for _, f := range run {
			if w := c.Res.Sim(e, f, c.Metric); mathx.GE(w, c.Delta) && w > best {
				best = w
			}
		}
		col += best
	}
	return float64(inter) + min(pmd-si, col)
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
// that sum — and, for pairs of sets, on, under and over rung 2b's sum
// with either side as the probe — the ladder's decision and counters are
// the seed's (booksLikeSeed, solvesCoverSeed) whether x, y or neither is
// the armed probe.
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
	rejects, passes := 0, 0
	var gotAll, wantAll Stats
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
		targets := []float64{
			ref, ref + mathx.Eps, ref - mathx.Eps, ref + mathx.Eps + 1e-13, ref + mathx.Eps - 1e-13,
			ref + 2*mathx.Eps, ref + 1e-6, ref - 1e-6, math.Ceil(ref), math.Floor(ref), ref / 2,
		}
		if px.ByKey != nil && py.ByKey != nil {
			// Rung 2b rejects below need − Eps − slack: put need on its sum
			// and on that edge.
			for _, col := range []float64{columnSum(ctx, &px, &py), columnSum(ctx, &py, &px)} {
				targets = append(targets, col, col+mathx.Eps, col-mathx.Eps, col+1e-13, col-1e-13,
					col+mathx.Eps+1e-13, col+mathx.Eps-1e-13)
			}
		}
		for _, target := range targets {
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
					runs, ep := s.colRuns, s.epoch
					g := ctx.VerifyPrepared(&px, &py, kind, &got)
					ctx.Disarm()
					switch {
					case s.colRuns == runs:
					case s.epoch == ep: // no groups: the rung rejected
						rejects++
					default:
						passes++
					}
					if g != w || !booksLikeSeed(kind, got, want) {
						t.Fatalf("trial %d τ=%v (need≈%v, Lemma 4 sum %v) %v, probe %v: got %v %+v, seed %v %+v",
							trial, tau, target, ref, kind, probe, g, got, w, want)
					}
					gotAll.Add(got)
					wantAll.Add(want)
					decided++
				}
			}
		}
	}
	if decided < 30000 || walked < 6000 || early < 5000 || multisets < 500 {
		t.Fatalf("only %d boundary decisions, %d walks, %d early exits and %d pairs with a repeated id exercised",
			decided, walked, early, multisets)
	}
	if rejects < 500 || passes < 500 {
		t.Fatalf("rung 2b rejected %d pairs and passed %d", rejects, passes)
	}
	solvesCoverSeed(t, gotAll, wantAll)
}

// TestBoundChain walks the ladder's chain from its head, sketch ≥ count
// ≥ Lemma 4 ≥ column ≥ B^u ≥ overlap, over every pair of a POI corpus,
// plain and under Plus resolution — where an element with several group
// keys gives its object more keys than elements, merged groups take
// Lemma 4 out of the chain, and sketch ≥ count ≥ overlap must still
// hold. On the plain corpus, with either object armed as the probe, each
// shared key's rung 2b term lies between its group's Lemma 4 term and
// its seed B^u, and so do their sums; under Plus, a pair with an object
// that has no key-ordered column never reaches the rung. At every link a
// pair the sketch rejects is one VerifyPrepared count-prunes, with either
// object armed as the probe.
func TestBoundChain(t *testing.T) {
	for _, plus := range []bool{false, true} {
		ctx, objs, keys := diffCtx(t, 140, 0.8, 0.6, elem.Standard, setmetric.Jaccard, plus)
		preps, _ := prepareAll(ctx, objs)
		s := ctx.scratch()
		linked, tighter, unflat := 0, 0, 0
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
				if plus && count > 0 && (preps[x].ByKey == nil || preps[y].ByKey == nil) {
					unflat++
					runs := s.colRuns
					for _, probe := range []*Prepared{&preps[x], &preps[y]} {
						ctx.Arm(probe)
						var st Stats
						ctx.VerifyPrepared(&preps[x], &preps[y], Adaptive, &st)
					}
					ctx.Disarm()
					if s.colRuns != runs {
						t.Fatalf("pair (%d, %d) without a key-ordered column reached rung 2b", x, y)
					}
				}
				if !plus && count > 0 {
					l, tt := columnLink(t, ctx, &preps[x], &preps[y])
					linked, tighter = linked+l, tighter+tt
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
		if plus && unflat < 1000 {
			t.Fatalf("only %d key-sharing pairs without a key-ordered column", unflat)
		}
		if !plus && (linked < 10000 || tighter < 1000) {
			t.Fatalf("the column link held for %d groups, %d of them tighter than Lemma 4", linked, tighter)
		}
	}
}

// columnLink checks Lemma 4 ≥ column ≥ B^u for the pair (x, y), both with
// the key-ordered column, with either armed as the probe: per shared key
// against the seed's group and in sum. It returns how many groups it
// checked and in how many the column term was below Lemma 4's.
func columnLink(t *testing.T, ctx *Context, x, y *Prepared) (linked, tighter int) {
	t.Helper()
	if x.ByKey == nil || y.ByKey == nil {
		t.Fatal("a plain K-Join object without the key-ordered column")
	}
	n := float64(len(x.Elems) + len(y.Elems))
	slack := 4 * n * n * 0x1p-52
	byKey := map[sig.Sig]group{}
	for _, g := range seedGroups(ctx, x.Elems, y.Elems) {
		if len(g.xe) > 0 && len(g.ye) > 0 {
			byKey[ctx.Space.GroupKeys(g.xe[0])[0]] = g
		}
	}
	for _, pq := range [][2]*Prepared{{x, y}, {y, x}} {
		ctx.Arm(pq[0])
		keys, terms := columnTerms(ctx, pq[1])
		ctx.Disarm()
		if len(keys) != len(byKey) {
			t.Fatalf("%v against %v: %d shared keys, %d seed groups with both sides", pq[1].Elems, pq[0].Elems, len(keys), len(byKey))
		}
		sumL4, sumCol, sumBu := 0.0, 0.0, 0.0
		for i, k := range keys {
			g := byKey[k]
			l4 := seedGroupWeightedUB(ctx, g)
			bu := 0.0
			if es := seedEdges(ctx, g.xe, g.ye); len(es) > 0 {
				bu = matching.UpperBound(len(g.xe), len(g.ye), es)
			}
			if terms[i] > l4+slack || terms[i] < bu-slack {
				t.Fatalf("%v against probe %v, key %d: Lemma 4 %v, column %v, B^u %v", pq[1].Elems, pq[0].Elems, k, l4, terms[i], bu)
			}
			if terms[i] < l4-slack {
				tighter++
			}
			linked++
			sumL4, sumCol, sumBu = sumL4+l4, sumCol+terms[i], sumBu+bu
		}
		if sumCol > sumL4+slack || sumCol < sumBu-slack {
			t.Fatalf("%v against probe %v: Lemma 4 %v, column %v, B^u %v", pq[1].Elems, pq[0].Elems, sumL4, sumCol, sumBu)
		}
	}
	return linked, tighter
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
// counter as a fresh Context does; and after each pair rung 2b's terms
// against the tables it left loaded have the bits of refColumnTerm, so a
// column cached under one probe is never read under the next. Two probes
// that hold different elements under a key the candidate's element has —
// its column maximum differs between them — pin the same, armed in turn
// and then, after an armed batch, loaded for one pair unarmed.
func TestArmedTablesNeverStale(t *testing.T) {
	for _, plus := range []bool{false, true} {
		ctx, objs, _ := diffCtx(t, 140, 0.6, 0.3, elem.Standard, setmetric.Jaccard, plus)
		preps, _ := prepareAll(ctx, objs)
		r := rand.New(rand.NewSource(29))
		var total Stats
		columns := 0
		// checkColumn compares rung 2b's terms of q against the loaded
		// probe p with the reference.
		checkColumn := func(trial int, what string, p, q *Prepared) {
			if p.ByKey == nil || q.ByKey == nil {
				return
			}
			keys, terms := columnTerms(ctx, q)
			for i, k := range keys {
				if want := refColumnTerm(ctx, p, q, k); math.Float64bits(terms[i]) != math.Float64bits(want) {
					t.Fatalf("plus=%v trial %d, %s: key %d's column term %v, want %v", plus, trial, what, k, terms[i], want)
				}
				columns++
			}
		}
		check := func(trial int, what string, x, y *Prepared, kind Kind) {
			var got, want Stats
			g := ctx.VerifyPrepared(x, y, kind, &got)
			w := ctx.Clone().VerifyPrepared(x, y, kind, &want)
			if g != w || got != want {
				t.Fatalf("plus=%v trial %d, %s: got %v %+v, a fresh Context %v %+v", plus, trial, what, g, got, w, want)
			}
			total.Add(got)
			// The tables hold the armed probe if the pair has it, else x.
			if ctx.scratch().probe.of == y {
				x, y = y, x
			}
			checkColumn(trial, what, x, y)
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
		if total.CountPruned < 100 || (total.WeightedPruned < 100) != plus || total.Results < 100 || columns < 1000 {
			t.Fatalf("plus=%v: the pairs reached too few rungs: %+v, %d column terms", plus, total, columns)
		}

		a, b, q, k := sharedColumn(t, ctx)
		for i, probe := range []*Prepared{a, b, a} {
			ctx.Arm(probe)
			checkColumn(i, fmt.Sprintf("probe %v under key %d", probe.Elems, k), probe, q)
			check(i, "the shared candidate", q, probe, Adaptive)
		}
		ctx.Disarm()
		check(3, "an unarmed pair after the armed batch", b, q, Adaptive)
		check(4, "the same pair the other way round", q, a, Adaptive)
	}
}

// sharedColumn returns two probes and a candidate, all sets of
// single-key elements, such that the candidate's element e, under key k,
// is in neither probe, both probes hold other elements under k, and e's
// best δ-edge to them differs: its column maximum depends on the probe.
func sharedColumn(t *testing.T, ctx *Context) (a, b, q *Prepared, k sig.Sig) {
	t.Helper()
	byKey := map[sig.Sig][]elem.ID{}
	for e := 0; e < ctx.Res.Len(); e++ {
		if ks := ctx.Space.GroupKeys(elem.ID(e)); len(ks) == 1 {
			byKey[ks[0]] = append(byKey[ks[0]], elem.ID(e))
		}
	}
	edge := func(e, f elem.ID) float64 {
		if w := ctx.Res.Sim(e, f, ctx.Metric); mathx.GE(w, ctx.Delta) {
			return w
		}
		return 0
	}
	var keys []sig.Sig
	for k := range byKey {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for ki, k := range keys {
		es := byKey[k]
		for i := 2; i < len(es); i++ {
			e, f, g := es[i], es[0], es[1]
			for _, h := range es[2:i] {
				if math.Float64bits(edge(e, h)) != math.Float64bits(edge(e, f)) {
					g = h
				}
			}
			if math.Float64bits(edge(e, f)) == math.Float64bits(edge(e, g)) {
				continue
			}
			// Each probe also holds an element under another key, so its
			// run of k is not its whole column.
			other := byKey[keys[(ki+1)%len(keys)]][0]
			pa, pb, pq := ctx.Prepare([]elem.ID{other, f}, nil, nil), ctx.Prepare([]elem.ID{g, other}, nil, nil), ctx.Prepare([]elem.ID{e}, nil, nil)
			return &pa, &pb, &pq, k
		}
	}
	t.Fatal("no key whose elements' column maxima depend on the probe")
	return nil, nil, nil, 0
}
