package sig

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kjoin/internal/elem"
	"kjoin/internal/hierarchy"
	"kjoin/internal/paperdata"
)

// table1Space resolves the Table 1 objects and returns the space, the
// resolver, and the objects as element-id slices.
func table1Space(t *testing.T, delta float64, scheme Scheme) (*Space, *elem.Resolver, [][]elem.ID) {
	t.Helper()
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
	return NewSpace(r, elem.Standard, delta, scheme), r, objs
}

// sigNames maps entries to sorted signature names for comparison.
func sigNames(sp *Space, entries []Entry) []string {
	h := sp.h
	var out []string
	for _, e := range entries {
		if int(e.Sig) < h.Len() {
			out = append(out, h.Name(hierarchy.NodeID(e.Sig)))
		} else {
			out = append(out, "tok:"+itoa(int(e.Sig)))
		}
	}
	sort.Strings(out)
	return out
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNodeSignaturesTable1(t *testing.T) {
	// δ=0.7 → d_δ = 3 (§3.1). Node signature column of Table 1.
	sp, _, objs := table1Space(t, 0.7, Node)
	if sp.DDelta() != 3 {
		t.Fatalf("d_δ = %d, want 3", sp.DDelta())
	}
	want := [][]string{
		{"CA", "Fastfood"},          // S1
		{"CA", "NY", "Pizza"},       // S2
		{"CA", "Fastfood"},          // S3
		{"CA", "Fastfood", "Pizza"}, // S4
		{"CA", "Pizza"},             // S5
		{"Fastfood", "NY"},          // S6
		{"Food", "NY"},              // S7
		{"CA", "Fastfood", "NY", "NY", "Pizza", "Pizza"},    // S8
		{"CA", "CA", "Fastfood", "Fastfood", "NY", "Pizza"}, // S9
	}
	for i, o := range objs {
		got := sigNames(sp, sp.ObjectSigs(o))
		if !eqStrings(got, want[i]) {
			t.Errorf("S%d node signatures = %v, want %v", i+1, got, want[i])
		}
	}
}

func TestDeepSignaturesTable1(t *testing.T) {
	// δ=0.7. Deep path signature column of Table 1 (corrected for the
	// Figure 1 structure: PaloAlto is a child of CA, so its deep
	// signatures are {CA, PaloAlto}; the printed table shows
	// SanFrancisco there, an inconsistency with Figure 1).
	sp, _, objs := table1Space(t, 0.7, Deep)
	want := [][]string{
		{"BurgerKing", "Fastfood", "MountainView", "SanFrancisco"}, // S1
		{"Brooklyn", "CA", "NewYork", "PaloAlto", "Pizza"},         // S2
		{"Fastfood", "GoogleHeadquarters", "MountainView"},         // S3
		{"CA", "Fastfood", "KFC", "Pizza", "PizzaHut"},             // S4
		{"GoogleHeadquarters", "MountainView", "Pizza"},            // S5
		{"Fastfood", "Manhattan", "NewYork"},                       // S6
		{"Brooklyn", "Food", "NewYork"},                            // S7
		{"Brooklyn", "CA", "Dominos", "Fastfood", "KFC", "Manhattan", "NewYork", "NewYork", "Pizza", "Pizza", "SanFrancisco"},          // S8
		{"BurgerKing", "CA", "Fastfood", "Fastfood", "MountainView", "NY", "NewYork", "PaloAlto", "Pizza", "PizzaHut", "SanFrancisco"}, // S9
	}
	for i, o := range objs {
		got := sigNames(sp, sp.ObjectSigs(o))
		if !eqStrings(got, want[i]) {
			t.Errorf("S%d deep signatures = %v, want %v", i+1, got, want[i])
		}
	}
}

func TestShallowSignatures(t *testing.T) {
	// §4.1: δ=0.6, BurgerKing (depth 4) → shallow {WesternFood, Fastfood},
	// deep {Fastfood, BurgerKing}. Dominos → shallow {WesternFood, Pizza},
	// deep {Pizza, Dominos}.
	h, _ := paperdata.Fig1()
	r := elem.NewResolver(h, elem.Options{})
	shallow := NewSpace(r, elem.Standard, 0.6, Shallow)
	deep := NewSpace(r, elem.Standard, 0.6, Deep)
	bk := r.ID("BurgerKing")
	dom := r.ID("Dominos")

	got := sigNames(shallow, shallow.ElemSigs(bk))
	if !eqStrings(got, []string{"Fastfood", "WesternFood"}) {
		t.Errorf("shallow(BurgerKing) = %v", got)
	}
	got = sigNames(deep, deep.ElemSigs(bk))
	if !eqStrings(got, []string{"BurgerKing", "Fastfood"}) {
		t.Errorf("deep(BurgerKing) = %v", got)
	}
	got = sigNames(shallow, shallow.ElemSigs(dom))
	if !eqStrings(got, []string{"Pizza", "WesternFood"}) {
		t.Errorf("shallow(Dominos) = %v", got)
	}
	got = sigNames(deep, deep.ElemSigs(dom))
	if !eqStrings(got, []string{"Dominos", "Pizza"}) {
		t.Errorf("deep(Dominos) = %v", got)
	}
	// Shallow signatures share WesternFood (no pruning); deep signatures
	// are disjoint (pruned), as the paper's §4.1 example explains.
	shBK := map[string]bool{}
	for _, n := range sigNames(shallow, shallow.ElemSigs(bk)) {
		shBK[n] = true
	}
	common := false
	for _, n := range sigNames(shallow, shallow.ElemSigs(dom)) {
		if shBK[n] {
			common = true
		}
	}
	if !common {
		t.Error("shallow signatures of BurgerKing and Dominos should overlap")
	}
	dpBK := map[string]bool{}
	for _, n := range sigNames(deep, deep.ElemSigs(bk)) {
		dpBK[n] = true
	}
	for _, n := range sigNames(deep, deep.ElemSigs(dom)) {
		if dpBK[n] {
			t.Error("deep signatures of BurgerKing and Dominos must be disjoint")
		}
	}
}

func TestNonEntityTokenSignature(t *testing.T) {
	h, _ := paperdata.Fig1()
	r := elem.NewResolver(h, elem.Options{})
	sp := NewSpace(r, elem.Standard, 0.7, Deep)
	a := r.ID("ellis")
	b := r.ID("fillmore")
	sa := sp.ElemSigs(a)
	sb := sp.ElemSigs(b)
	if len(sa) != 1 || len(sb) != 1 {
		t.Fatalf("non-entity tokens should have exactly one signature: %v %v", sa, sb)
	}
	if sa[0].Sig == sb[0].Sig {
		t.Error("different tokens must not share a token signature")
	}
	if sa[0].W != 1 {
		t.Errorf("token signature weight = %v, want 1", sa[0].W)
	}
	if sp.ElemSigs(r.ID("ELLIS"))[0].Sig != sa[0].Sig {
		t.Error("same token should intern to the same signature")
	}
	if int(sa[0].Sig) < h.Len() {
		t.Error("token signatures must live beyond the node id space")
	}
}

// Lemma 1 / Lemma 5 property: over the Figure 1 vocabulary, any two
// similar elements share a node signature, a shallow signature, and a
// deep signature.
func TestSignatureLemmas(t *testing.T) {
	h, m := paperdata.Fig1()
	var vocab []string
	for n := range m {
		vocab = append(vocab, n)
	}
	vocab = append(vocab, "ellis", "fillmore")
	for _, metric := range []elem.Metric{elem.Standard, elem.WuPalmer} {
		for _, delta := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
			r := elem.NewResolver(h, elem.Options{})
			spaces := map[Scheme]*Space{
				Node:    NewSpace(r, metric, delta, Node),
				Shallow: NewSpace(r, metric, delta, Shallow),
				Deep:    NewSpace(r, metric, delta, Deep),
			}
			ids := make([]elem.ID, len(vocab))
			for i, v := range vocab {
				ids[i] = r.ID(v)
			}
			for i, a := range ids {
				for j, b := range ids {
					if j <= i {
						continue
					}
					if r.Sim(a, b, metric) < delta {
						continue
					}
					for scheme, sp := range spaces {
						if !shareSig(sp.ElemSigs(a), sp.ElemSigs(b)) {
							t.Errorf("metric=%v δ=%v scheme=%v: similar pair %s~%s shares no signature",
								metric, delta, scheme, vocab[i], vocab[j])
						}
					}
				}
			}
		}
	}
}

func shareSig(a, b []Entry) bool {
	set := map[Sig]bool{}
	for _, e := range a {
		set[e.Sig] = true
	}
	for _, e := range b {
		if set[e.Sig] {
			return true
		}
	}
	return false
}

// Weight soundness property: for every pair of similar elements and every
// shared signature, the actual similarity never exceeds the larger... the
// *smaller* of the two elements' weights for that signature would be the
// tight claim; the sound claim used by the weighted prefix is that each
// element's own weight bounds its similarity to anything matching through
// that signature.
func TestSignatureWeightBounds(t *testing.T) {
	h, m := paperdata.Fig1()
	var vocab []string
	for n := range m {
		vocab = append(vocab, n)
	}
	r := elem.NewResolver(h, elem.Options{})
	sp := NewSpace(r, elem.Standard, 0.6, Deep)
	ids := make([]elem.ID, len(vocab))
	for i, v := range vocab {
		ids[i] = r.ID(v)
	}
	for i, a := range ids {
		for j, b := range ids {
			if i == j {
				continue
			}
			s := r.Sim(a, b, elem.Standard)
			if s < 0.6 {
				continue
			}
			// Max over shared signatures of min(w_a, w_b) must bound s...
			// i.e., there must exist a shared signature whose two weights
			// both reach s.
			wa := map[Sig]float64{}
			for _, e := range sp.ElemSigs(a) {
				wa[e.Sig] = e.W
			}
			ok := false
			for _, e := range sp.ElemSigs(b) {
				if w, has := wa[e.Sig]; has && w >= s-1e-9 && e.W >= s-1e-9 {
					ok = true
				}
			}
			if !ok {
				t.Errorf("similar pair %s~%s (sim %v) has no shared signature with weights covering the similarity",
					vocab[i], vocab[j], s)
			}
		}
	}
}

func TestDistElePrefixPaperExamples(t *testing.T) {
	// §4.2.1 path prefix for S4 (δ=0.7, τ=0.6): sorted path signatures
	// with df computed over Table 1 under Figure 1, the prefix contains
	// the signatures of both elements except the last removable ones —
	// the paper's resulting set is {PizzaHut, CA, KFC, Pizza}.
	sp, _, objs := table1Space(t, 0.7, Deep)
	all := make([][]Entry, len(objs))
	for i, o := range objs {
		all[i] = sp.ObjectSigs(o)
	}
	order := BuildOrder(all)
	// S4 = objs[3], |S4| = 3, τ_S4 = ⌈0.6·3⌉ = 2.
	entries := all[3]
	order.Sort(entries)
	p := DistElePrefix(entries, 2)
	got := sigNames(sp, entries[:p])
	if !eqStrings(got, []string{"CA", "KFC", "Pizza", "PizzaHut"}) {
		t.Errorf("path prefix of S4 = %v, want [CA KFC Pizza PizzaHut]", got)
	}
	// S1 = objs[0], τ_S1 = 2: prefix drops only the last signature.
	entries = all[0]
	order.Sort(entries)
	p = DistElePrefix(entries, 2)
	got = sigNames(sp, entries[:p])
	if !eqStrings(got, []string{"BurgerKing", "MountainView", "SanFrancisco"}) {
		t.Errorf("path prefix of S1 = %v, want [BurgerKing MountainView SanFrancisco]", got)
	}
	// S1 and S4 prefixes must not overlap (the paper prunes this pair).
	pa := all[0][:DistElePrefix(all[0], 2)]
	pb := all[3][:DistElePrefix(all[3], 2)]
	if shareSig(pa, pb) {
		t.Error("path prefixes of S1 and S4 must be disjoint")
	}
}

func TestDistElePrefixEdgeCases(t *testing.T) {
	if got := DistElePrefix(nil, 1); got != 0 {
		t.Errorf("empty entries prefix = %d, want 0", got)
	}
	if got := DistElePrefix([]Entry{{Sig: 1, Elem: 0}}, 0); got != 0 {
		t.Errorf("tauS=0 prefix = %d, want 0", got)
	}
	// tauS larger than distinct elements: whole list.
	es := []Entry{{Sig: 1, Elem: 0}, {Sig: 2, Elem: 0}}
	if got := DistElePrefix(es, 2); got != 2 {
		t.Errorf("prefix = %d, want 2 (whole list)", got)
	}
	// Single-signature-per-element degenerates to |S|−(τ_S−1).
	es = []Entry{{Sig: 1, Elem: 0}, {Sig: 2, Elem: 1}, {Sig: 3, Elem: 2}, {Sig: 4, Elem: 3}}
	if got := DistElePrefix(es, 3); got != 2 { // 4−(3−1) = 2
		t.Errorf("prefix = %d, want 2", got)
	}
}

func TestWeightedPrefixPaperExample(t *testing.T) {
	// §4.2.2, S4 with the paper's own df order: PS4 = {PizzaHut:4/4,
	// CA:3/3, KFC:4/4, Pizza:3/4, Fastfood:3/4}, τ|S4| = 1.8. KFC and
	// Fastfood come from the same element, so removing the last three
	// keeps MSIM = 1 + 3/4 = 1.75 < 1.8; the weighted path prefix is
	// {PizzaHut, CA}.
	entries := []Entry{
		{Sig: 101, W: 1, Elem: 0},    // PizzaHut (elem PizzaHut)
		{Sig: 102, W: 1, Elem: 2},    // CA (elem CA)
		{Sig: 103, W: 1, Elem: 1},    // KFC (elem KFC)
		{Sig: 104, W: 0.75, Elem: 0}, // Pizza (elem PizzaHut)
		{Sig: 105, W: 0.75, Elem: 1}, // Fastfood (elem KFC)
	}
	if got := WeightedPrefix(entries, 1.8); got != 2 {
		t.Errorf("weighted prefix length = %d, want 2", got)
	}
	// The unweighted prefix keeps 4 (distinct elements: KFC, PizzaHut).
	if got := DistElePrefix(entries, 2); got != 4 {
		t.Errorf("unweighted prefix length = %d, want 4", got)
	}
}

func TestWeightedPrefixEdgeCases(t *testing.T) {
	if got := WeightedPrefix(nil, 1); got != 0 {
		t.Errorf("empty = %d, want 0", got)
	}
	if got := WeightedPrefix([]Entry{{Sig: 1, W: 1, Elem: 0}}, 0); got != 0 {
		t.Errorf("minOverlap 0 = %d, want 0", got)
	}
	// Never reaching minOverlap keeps everything.
	es := []Entry{{Sig: 1, W: 0.3, Elem: 0}, {Sig: 2, W: 0.2, Elem: 1}}
	if got := WeightedPrefix(es, 5); got != 2 {
		t.Errorf("unreachable minOverlap = %d, want 2", got)
	}
	// Same element twice: only the max weight counts.
	es = []Entry{{Sig: 1, W: 1, Elem: 0}, {Sig: 2, W: 0.5, Elem: 1}, {Sig: 3, W: 0.9, Elem: 1}}
	// From the end: sig3 (elem1, 0.9) → 0.9; sig2 (elem1, 0.5 ≤ 0.9) → 0.9;
	// sig1 (elem0, 1) → 1.9 ≥ 1.5 → prefix 1.
	if got := WeightedPrefix(es, 1.5); got != 1 {
		t.Errorf("prefix = %d, want 1", got)
	}
}

// TestPrefixScratchStampWrap runs prefix cuts across the scratch's
// stamp limit, its table holding stale marks of the stamps a wrapped or
// restarted counter reaches first: every cut must match a fresh
// scratch's.
func TestPrefixScratchStampWrap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	stale := []int32{math.MinInt32, math.MinInt32 + 1, 1, 2}
	for trial := 0; trial < 50; trial++ {
		var ps PrefixScratch
		ps.grow(16)
		for i := range ps.seen {
			ps.seen[i], ps.best[i] = stale[(i+trial)%len(stale)], 1
		}
		ps.stamp = math.MaxInt32 - 1
		for cut := 0; cut < 3; cut++ {
			es := make([]Entry, 1+r.Intn(12))
			for i := range es {
				es[i] = Entry{Sig: Sig(i), W: 0.1 + 0.9*r.Float64(), Elem: int32(r.Intn(16))}
			}
			if trial%2 == 0 {
				tauS := 1 + r.Intn(4)
				if got, want := DistElePrefixS(es, tauS, &ps), DistElePrefix(es, tauS); got != want {
					t.Errorf("trial %d cut %d: DistElePrefixS = %d, fresh scratch %d", trial, cut, got, want)
				}
			} else {
				minOverlap := 0.5 + 2*r.Float64()
				if got, want := WeightedPrefixS(es, minOverlap, &ps), WeightedPrefix(es, minOverlap); got != want {
					t.Errorf("trial %d cut %d: WeightedPrefixS = %d, fresh scratch %d", trial, cut, got, want)
				}
			}
		}
	}
}

// The weighted prefix is always a subset of the unweighted prefix
// (weights ≤ 1 make removal easier — §4.2.2 "this weighted strategy can
// prune more signatures").
func TestWeightedPrefixNoLongerThanUnweighted(t *testing.T) {
	sp, _, objs := table1Space(t, 0.7, Deep)
	all := make([][]Entry, len(objs))
	for i, o := range objs {
		all[i] = sp.ObjectSigs(o)
	}
	order := BuildOrder(all)
	for i, entries := range all {
		order.Sort(entries)
		tauS := len(objs[i]) // generic: τ_S with τ=1... use τ=0.6 instead
		_ = tauS
		tS := (len(objs[i])*6 + 9) / 10 // ⌈0.6·|S|⌉
		wp := WeightedPrefix(entries, 0.6*float64(len(objs[i])))
		up := DistElePrefix(entries, tS)
		if wp > up {
			t.Errorf("S%d: weighted prefix %d longer than unweighted %d", i+1, wp, up)
		}
	}
}

func TestGroupKeys(t *testing.T) {
	h, _ := paperdata.Fig1()
	r := elem.NewResolver(h, elem.Options{})
	sp := NewSpace(r, elem.Standard, 0.7, Deep)
	bk := r.ID("BurgerKing")
	kfc := r.ID("KFC")
	man := r.ID("Manhattan")
	free := r.ID("ellis")
	if g := sp.GroupKeys(bk); len(g) != 1 || g[0] != sp.GroupKeys(kfc)[0] {
		t.Error("BurgerKing and KFC must share their group key (Fastfood)")
	}
	if sp.GroupKeys(bk)[0] == sp.GroupKeys(man)[0] {
		t.Error("BurgerKing and Manhattan must be in different groups")
	}
	if g := sp.GroupKeys(free); len(g) != 1 {
		t.Errorf("non-entity token should have one group key, got %v", g)
	}
	// Shallow node (depth < d_δ) is its own signature (Definition 4).
	food := r.ID("Food")
	if name := h.Name(hierarchy.NodeID(sp.GroupKeys(food)[0])); name != "Food" {
		t.Errorf("group key of Food = %s, want Food itself", name)
	}
}

func TestOrderDeterminism(t *testing.T) {
	sp, _, objs := table1Space(t, 0.7, Node)
	all := make([][]Entry, len(objs))
	for i, o := range objs {
		all[i] = sp.ObjectSigs(o)
	}
	o1 := BuildOrder(all)
	o2 := BuildOrder(all)
	e1 := append([]Entry(nil), all[7]...)
	e2 := append([]Entry(nil), all[7]...)
	o1.Sort(e1)
	o2.Sort(e2)
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("sort not deterministic at %d: %v vs %v", i, e1[i], e2[i])
		}
	}
	// df values are sane: every signature of S8 occurs at least once.
	for _, e := range e1 {
		if o1.DF(e.Sig) < 1 {
			t.Errorf("df of %v = %d", e.Sig, o1.DF(e.Sig))
		}
	}
}

func TestSchemeString(t *testing.T) {
	if Node.String() != "node" || Shallow.String() != "shallow" || Deep.String() != "deep" || Scheme(9).String() != "unknown" {
		t.Error("Scheme.String mismatch")
	}
}

// TestOrderSortMatchesDfThenID pins the packed sort key against the
// definition it replaces: ascending df, then signature id, then element
// index — for signatures inside the df table, beyond it (df 0, as the
// engine's empty order sees every signature) and a mix of both.
func TestOrderSortMatchesDfThenID(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		df := make([]int32, r.Intn(40))
		for s := range df {
			df[s] = int32(r.Intn(4)) // many ties, many zeros
		}
		order := newOrder(df)
		freq := func(s Sig) int32 {
			if int(s) < len(df) {
				return df[s]
			}
			return 0
		}
		var entries []Entry
		for e := 0; e < 1+r.Intn(6); e++ {
			for _, s := range r.Perm(60)[:1+r.Intn(8)] {
				entries = append(entries, Entry{Sig: Sig(s), W: r.Float64(), Elem: int32(e)})
			}
		}
		if trial%2 == 1 { // not in generation order: Sort must not care
			r.Shuffle(len(entries), func(i, k int) { entries[i], entries[k] = entries[k], entries[i] })
		}
		want := slices.Clone(entries)
		slices.SortFunc(want, func(a, b Entry) int {
			return cmp.Or(cmp.Compare(freq(a.Sig), freq(b.Sig)), cmp.Compare(a.Sig, b.Sig), cmp.Compare(a.Elem, b.Elem))
		})
		order.Sort(entries)
		if !slices.Equal(entries, want) {
			t.Fatalf("trial %d (df %v):\n got  %v\n want %v", trial, df, entries, want)
		}
		for i := 1; i < len(want); i++ {
			a, b := want[i-1].Sig, want[i].Sig
			if a != b && (!order.Less(a, b) || order.Less(b, a)) {
				t.Fatalf("trial %d: Less(%d, %d) disagrees with the sort", trial, a, b)
			}
		}
		for s := Sig(0); s < 60; s++ {
			if order.DF(s) != int(freq(s)) {
				t.Fatalf("trial %d: DF(%d) = %d, want %d", trial, s, order.DF(s), freq(s))
			}
		}
	}
}

// TestDFCounterMatchesBuildOrder: counting df from element lists gives
// the order BuildOrder gives from the materialised entry lists, and Add
// reports each object's entry count.
func TestDFCounterMatchesBuildOrder(t *testing.T) {
	for _, scheme := range []Scheme{Node, Shallow, Deep} {
		sp, r, objs := table1Space(t, 0.7, scheme)
		r.ResolveAll(1)
		sp.Warm(r.Len(), 2)
		all := make([][]Entry, len(objs))
		c := sp.NewDFCounter()
		for i, o := range objs {
			all[i] = sp.ObjectSigs(o)
			if n := c.Add(o); n != len(all[i]) {
				t.Errorf("%v S%d: Add reports %d entries, ObjectSigs has %d", scheme, i+1, n, len(all[i]))
			}
		}
		got, want := c.Order(), BuildOrder(all)
		for s := Sig(0); int(s) < sp.NumSigs(); s++ {
			if got.sortKey(s) != want.sortKey(s) {
				t.Errorf("%v: signature %d has key %#x, BuildOrder gives %#x", scheme, s, got.sortKey(s), want.sortKey(s))
			}
		}
	}
}
