package verify

// Differential tests for the scratch-based verification hot path: the
// functions prefixed "seed" below are verbatim copies of the pre-scratch
// (map-allocating) implementation, kept as the behavioural oracle. The
// scratch path must produce bit-identical similarities and identical
// verification decisions across a randomized matrix of configurations,
// including under concurrent per-worker clones (run with -race).

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"kjoin/internal/dataset"
	"kjoin/internal/elem"
	"kjoin/internal/matching"
	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
)

// seedMaxWeight is the seed Hungarian implementation (per-call dense
// matrix allocation), copied unchanged.
func seedMaxWeight(nx, ny int, edges []matching.Edge) (float64, []int) {
	if nx == 0 || ny == 0 || len(edges) == 0 {
		m := make([]int, nx)
		for i := range m {
			m[i] = -1
		}
		return 0, m
	}
	n := nx
	if ny > n {
		n = ny
	}
	cost := make([][]float64, n+1)
	flat := make([]float64, (n+1)*(n+1))
	for i := range cost {
		cost[i] = flat[i*(n+1) : (i+1)*(n+1)]
	}
	for _, e := range edges {
		if e.W > -cost[e.X+1][e.Y+1] {
			cost[e.X+1][e.Y+1] = -e.W
		}
	}

	const inf = 1e18
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)
	way := make([]int, n+1)
	minv := make([]float64, n+1)
	used := make([]bool, n+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0][j] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}

	matchX := make([]int, nx)
	for i := range matchX {
		matchX[i] = -1
	}
	total := 0.0
	for j := 1; j <= n; j++ {
		i := p[j]
		if i == 0 || i > nx || j > ny {
			continue
		}
		w := -cost[i][j]
		if w > 0 {
			matchX[i-1] = j - 1
			total += w
		}
	}
	return total, matchX
}

// seedGroups is the seed map-and-closure union-find grouping.
func seedGroups(c *Context, x, y []elem.ID) []group {
	parent := map[sig.Sig]sig.Sig{}
	var find func(s sig.Sig) sig.Sig
	find = func(s sig.Sig) sig.Sig {
		p, ok := parent[s]
		if !ok {
			parent[s] = s
			return s
		}
		if p == s {
			return s
		}
		r := find(p)
		parent[s] = r
		return r
	}
	union := func(a, b sig.Sig) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	keyOf := func(e elem.ID) sig.Sig {
		keys := c.Space.GroupKeys(e)
		for i := 1; i < len(keys); i++ {
			union(keys[0], keys[i])
		}
		return keys[0]
	}
	idx := map[sig.Sig]int{}
	var roots []sig.Sig
	var gs []group
	for _, e := range x {
		r := find(keyOf(e))
		i, ok := idx[r]
		if !ok {
			i = len(gs)
			idx[r] = i
			roots = append(roots, r)
			gs = append(gs, group{})
		}
		gs[i].xe = append(gs[i].xe, e)
	}
	for _, e := range y {
		r := find(keyOf(e))
		i, ok := idx[r]
		if !ok {
			i = len(gs)
			idx[r] = i
			roots = append(roots, r)
			gs = append(gs, group{})
		}
		gs[i].ye = append(gs[i].ye, e)
	}
	merged := map[sig.Sig]int{}
	var out []group
	for _, r := range roots {
		i := idx[r]
		root := find(r)
		if j, ok := merged[root]; ok {
			out[j].xe = append(out[j].xe, gs[i].xe...)
			out[j].ye = append(out[j].ye, gs[i].ye...)
		} else {
			merged[root] = len(out)
			out = append(out, gs[i])
		}
	}
	return out
}

// seedEdges is the seed per-call edge builder (uncached Sim).
func seedEdges(c *Context, xe, ye []elem.ID) []matching.Edge {
	var es []matching.Edge
	for i, a := range xe {
		for j, b := range ye {
			if s := c.Res.Sim(a, b, c.Metric); mathx.GE(s, c.Delta) {
				es = append(es, matching.Edge{X: i, Y: j, W: s})
			}
		}
	}
	return es
}

func seedOverlap(c *Context, x, y []elem.ID) float64 {
	total := 0.0
	for _, g := range seedGroups(c, x, y) {
		if len(g.xe) == 0 || len(g.ye) == 0 {
			continue
		}
		es := seedEdges(c, g.xe, g.ye)
		if len(es) == 0 {
			continue
		}
		o, _ := seedMaxWeight(len(g.xe), len(g.ye), es)
		total += o
	}
	return total
}

func seedOverlapBasic(c *Context, x, y []elem.ID) float64 {
	es := seedEdges(c, x, y)
	if len(es) == 0 {
		return 0
	}
	o, _ := seedMaxWeight(len(x), len(y), es)
	return o
}

func seedSimilarity(c *Context, x, y []elem.ID) float64 {
	return c.Set.Sim(seedOverlap(c, x, y), len(x), len(y))
}

// seedGroupWeightedUB is the seed four-map multiset intersection.
func seedGroupWeightedUB(c *Context, g group) float64 {
	if len(g.xe) == 0 || len(g.ye) == 0 {
		return 0
	}
	cnt := map[elem.ID]int{}
	for _, e := range g.xe {
		cnt[e]++
	}
	inter := 0
	used := map[elem.ID]int{}
	for _, e := range g.ye {
		if used[e] < cnt[e] {
			used[e]++
			inter++
		}
	}
	sx, sy := 0.0, 0.0
	takenX := map[elem.ID]int{}
	for _, e := range g.xe {
		takenX[e]++
		if takenX[e] <= used[e] {
			continue
		}
		sx += c.Res.MaxDiffSim(e, c.Metric)
	}
	takenY := map[elem.ID]int{}
	for _, e := range g.ye {
		takenY[e]++
		if takenY[e] <= used[e] {
			continue
		}
		sy += c.Res.MaxDiffSim(e, c.Metric)
	}
	m := sx
	if sy < m {
		m = sy
	}
	return float64(inter) + m
}

func seedAdaptive(c *Context, gs []group, need float64, st *Stats) bool {
	type gbs struct {
		g      group
		es     []matching.Edge
		lo, up float64
	}
	var act []gbs
	bl, bu := 0.0, 0.0
	for _, g := range gs {
		if len(g.xe) == 0 || len(g.ye) == 0 {
			continue
		}
		es := seedEdges(c, g.xe, g.ye)
		if len(es) == 0 {
			continue
		}
		lo := matching.LowerBound(len(g.xe), len(g.ye), es)
		up := matching.UpperBound(len(g.xe), len(g.ye), es)
		act = append(act, gbs{g: g, es: es, lo: lo, up: up})
		bl += lo
		bu += up
	}
	if mathx.GE(bl, need) {
		st.LBAccepted++
		return true
	}
	if mathx.LT(bu, need) {
		st.UBRejected++
		return false
	}
	sort.Slice(act, func(i, j int) bool {
		return act[i].up-act[i].lo > act[j].up-act[j].lo
	})
	for _, a := range act {
		st.MatchingCalls++
		s, _ := seedMaxWeight(len(a.g.xe), len(a.g.ye), a.es)
		bu += s - a.up
		if mathx.LT(bu, need) {
			st.UBRejected++
			return false
		}
		bl += s - a.lo
		if mathx.GE(bl, need) {
			st.LBAccepted++
			return true
		}
	}
	return mathx.GE(bl, need)
}

func seedVerify(c *Context, x, y []elem.ID, kind Kind, st *Stats) bool {
	st.Pairs++
	need := c.Set.PairOverlap(c.Tau, len(x), len(y))
	gs := seedGroups(c, x, y)

	countUB := 0
	for _, g := range gs {
		m := len(g.xe)
		if len(g.ye) < m {
			m = len(g.ye)
		}
		countUB += m
	}
	if mathx.LT(float64(countUB), need) {
		st.CountPruned++
		return false
	}

	if kind == Basic {
		st.MatchingCalls++
		ok := mathx.GE(seedOverlapBasic(c, x, y), need)
		if ok {
			st.Results++
		}
		return ok
	}

	wUB := 0.0
	for _, g := range gs {
		wUB += seedGroupWeightedUB(c, g)
	}
	if mathx.LT(wUB, need) {
		st.WeightedPruned++
		return false
	}

	var ok bool
	switch kind {
	case SubGraph:
		total := 0.0
		for _, g := range gs {
			if len(g.xe) == 0 || len(g.ye) == 0 {
				continue
			}
			es := seedEdges(c, g.xe, g.ye)
			if len(es) == 0 {
				continue
			}
			st.MatchingCalls++
			o, _ := seedMaxWeight(len(g.xe), len(g.ye), es)
			total += o
		}
		ok = mathx.GE(total, need)
	default:
		ok = seedAdaptive(c, gs, need, st)
	}
	if ok {
		st.Results++
	}
	return ok
}

// diffCtx builds a resolved context plus objects for one configuration.
func diffCtx(tb testing.TB, n int, delta, tau float64, metric elem.Metric, set setmetric.Kind, plus bool) (*Context, [][]elem.ID, [][]sig.Sig) {
	tb.Helper()
	hr := dataset.GenHierarchy(dataset.HierarchyConfig{Seed: 7, Nodes: 1200, Height: 6, MaxFanout: 20})
	c := dataset.GenRecords(hr, dataset.POIConfig(n))
	opts := elem.Options{}
	if plus {
		opts = elem.Options{Plus: true, PhiMin: 0.85, MaxMappings: 4}
		// The generated names are unique, so no element would ever map to
		// two nodes and the union-find side of grouping would never run.
		// Give every 20th deep Food node a namesake under a Location node:
		// its token then carries two group keys (§6.4), and about half the
		// objects end up with such an element.
		for d := 4; d <= 6; d++ {
			for i, node := range hr.NodesAt(0, d) {
				if twins := hr.NodesAt(1, d-1); i%20 == 0 && len(twins) > 0 {
					hr.H.Add(twins[i%len(twins)], hr.H.Name(node))
				}
			}
		}
	}
	r := elem.NewResolver(hr.H, opts)
	sp := sig.NewSpace(r, metric, delta, sig.Deep)
	ctx := &Context{Res: r, Space: sp, Metric: metric, Set: set, Delta: delta, Tau: tau}
	objs := make([][]elem.ID, len(c.Records))
	keys := make([][]sig.Sig, len(c.Records))
	for i, rec := range c.Records {
		seen := map[elem.ID]bool{}
		for _, t := range rec {
			id := r.ID(t)
			if !seen[id] {
				seen[id] = true
				objs[i] = append(objs[i], id)
			}
		}
	}
	r.ResolveAll(0)
	sp.Warm(r.Len(), 0)
	for i := range objs {
		keys[i] = ctx.SortedKeys(objs[i])
	}
	return ctx, objs, keys
}

// prepareAll returns the ladder's prepared form of every object, and how
// many of them carry the key-ordered column.
func prepareAll(ctx *Context, objs [][]elem.ID) (preps []Prepared, flat int) {
	preps = make([]Prepared, len(objs))
	for i, o := range objs {
		preps[i] = ctx.Prepare(o, nil, nil)
		if preps[i].ByKey != nil {
			flat++
		}
	}
	return preps, flat
}

// booksLikeSeed reports whether got, one pair's counters, books the pair
// where the seed ladder's want does. Adaptive's B^l rung solves the groups
// the seed bounded (ExactSolves) and has no §5.2.3 loop left to call the
// solver (MatchingCalls 0): for Adaptive the solves are left to
// solvesCoverSeed, every other counter must be the seed's; for the other
// verifiers, all of them.
func booksLikeSeed(kind Kind, got, want Stats) bool {
	if kind == Adaptive {
		if got.MatchingCalls != 0 {
			return false
		}
		got.ExactSolves, got.MatchingCalls = 0, want.MatchingCalls
	}
	return got == want
}

// solvesCoverSeed checks, over the totals of a run of pairs, that the
// rung's solves and the matching calls are at least the seed's matching
// calls: an exact solve replaces a bound and the loop's later solve,
// never skips one the decision needed.
func solvesCoverSeed(tb testing.TB, got, want Stats) {
	tb.Helper()
	if got.ExactSolves+got.MatchingCalls < want.MatchingCalls {
		tb.Fatalf("%d exact solves and %d matching calls, the seed made %d calls", got.ExactSolves, got.MatchingCalls, want.MatchingCalls)
	}
}

// TestScratchMatchesSeed drives random candidate pairs through both the
// scratch-based path — by key multisets and by prepared objects, whose
// key-ordered column turns Lemma 4 into a merge walk — and the copied
// seed implementation across a matrix of δ/τ/metric/set/verifier/Plus
// configurations: decisions, stats (booksLikeSeed, solvesCoverSeed) and
// similarities must match bit for bit.
func TestScratchMatchesSeed(t *testing.T) {
	type cfg struct {
		delta, tau float64
		metric     elem.Metric
		set        setmetric.Kind
		plus       bool
	}
	cfgs := []cfg{
		{0.8, 0.85, elem.Standard, setmetric.Jaccard, false},
		{0.6, 0.5, elem.Standard, setmetric.Dice, false},
		{0.7, 0.6, elem.WuPalmer, setmetric.Cosine, false},
		{0.8, 0.7, elem.Standard, setmetric.Jaccard, true},
		{0.6, 0.6, elem.WuPalmer, setmetric.Jaccard, true},
	}
	kinds := []Kind{Basic, SubGraph, Adaptive}
	for ci, cf := range cfgs {
		cf := cf
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			ctx, objs, keys := diffCtx(t, 120, cf.delta, cf.tau, cf.metric, cf.set, cf.plus)
			oracle := &Context{Res: ctx.Res, Space: ctx.Space, Metric: cf.metric, Set: cf.set, Delta: cf.delta, Tau: cf.tau}
			// Both sides of the single-key test must run: plain resolution
			// gives every object the column, Plus resolution leaves some
			// objects with a multi-key element and so without one.
			preps, flat := prepareAll(ctx, objs)
			if flat == 0 || (flat == len(objs)) == cf.plus {
				t.Fatalf("cfg %d (plus=%v): %d of %d objects carry the key-ordered column", ci, cf.plus, flat, len(objs))
			}
			r := rand.New(rand.NewSource(int64(ci)))
			var gotAll, wantAll Stats
			for trial := 0; trial < 400; trial++ {
				x := r.Intn(len(objs))
				y := r.Intn(len(objs))
				kind := kinds[trial%len(kinds)]
				var gotSt, wantSt Stats
				got := ctx.VerifyKeyed(objs[x], objs[y], keys[x], keys[y], kind, &gotSt)
				// Seed VerifyKeyed == count pruning + seedVerify.
				need := oracle.Set.PairOverlap(oracle.Tau, len(objs[x]), len(objs[y]))
				var want bool
				if mathx.LT(float64(countBound(keys[x], keys[y])), need) {
					wantSt.Pairs++
					wantSt.CountPruned++
					want = false
				} else {
					want = seedVerify(oracle, objs[x], objs[y], kind, &wantSt)
				}
				if got != want {
					t.Fatalf("cfg %d trial %d kind %v: Verify=%v, seed=%v", ci, trial, kind, got, want)
				}
				if !booksLikeSeed(kind, gotSt, wantSt) {
					t.Fatalf("cfg %d trial %d kind %v: stats %+v, seed %+v", ci, trial, kind, gotSt, wantSt)
				}
				gotAll.Add(gotSt)
				wantAll.Add(wantSt)
				var prepSt Stats
				if got := ctx.VerifyPrepared(&preps[x], &preps[y], kind, &prepSt); got != want || prepSt != gotSt {
					t.Fatalf("cfg %d trial %d kind %v: VerifyPrepared=%v stats %+v, VerifyKeyed %v %+v", ci, trial, kind, got, prepSt, want, gotSt)
				}
				gs := ctx.Similarity(objs[x], objs[y])
				ws := seedSimilarity(oracle, objs[x], objs[y])
				if math.Float64bits(gs) != math.Float64bits(ws) {
					t.Fatalf("cfg %d trial %d: Similarity=%v, seed=%v (not bit-identical)", ci, trial, gs, ws)
				}
				go_, wo := ctx.Overlap(objs[x], objs[y]), seedOverlap(oracle, objs[x], objs[y])
				if math.Float64bits(go_) != math.Float64bits(wo) {
					t.Fatalf("cfg %d trial %d: Overlap=%v, seed=%v", ci, trial, go_, wo)
				}
			}
			solvesCoverSeed(t, gotAll, wantAll)
		})
	}
}

// TestScratchCloneIsolation runs the same verification workload from
// several goroutines, each on its own Context clone, and checks every
// worker against the sequential seed answers. Under -race this proves
// per-worker scratch isolation.
func TestScratchCloneIsolation(t *testing.T) {
	ctx, objs, keys := diffCtx(t, 100, 0.8, 0.7, elem.Standard, setmetric.Jaccard, true)
	oracle := &Context{Res: ctx.Res, Space: ctx.Space, Metric: elem.Standard, Set: setmetric.Jaccard, Delta: 0.8, Tau: 0.7}

	type pair struct{ x, y int }
	r := rand.New(rand.NewSource(42))
	var pairs []pair
	for i := 0; i < 300; i++ {
		pairs = append(pairs, pair{r.Intn(len(objs)), r.Intn(len(objs))})
	}
	want := make([]bool, len(pairs))
	wantSim := make([]float64, len(pairs))
	for i, p := range pairs {
		var st Stats
		want[i] = seedVerify(oracle, objs[p.x], objs[p.y], Adaptive, &st)
		wantSim[i] = seedSimilarity(oracle, objs[p.x], objs[p.y])
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vctx := ctx.Clone()
			for i, p := range pairs {
				var st Stats
				got := vctx.VerifyKeyed(objs[p.x], objs[p.y], keys[p.x], keys[p.y], Adaptive, &st)
				if got != want[i] {
					errs[w] = fmt.Errorf("worker %d pair %d: got %v, want %v", w, i, got, want[i])
					return
				}
				if s := vctx.Similarity(objs[p.x], objs[p.y]); math.Float64bits(s) != math.Float64bits(wantSim[i]) {
					errs[w] = fmt.Errorf("worker %d pair %d: sim %v, want %v", w, i, s, wantSim[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
