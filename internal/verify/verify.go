// Package verify implements K-Join's verification ladder: the exact
// knowledge-aware object similarity (Definition 2), count pruning
// (Lemma 3), weighted count pruning (Lemma 4), subgraph-matching
// decomposition (Lemma 8), and the adaptive bound-driven verification of
// §5.2 (Algorithm 3).
package verify

import (
	"slices"

	"kjoin/internal/elem"
	"kjoin/internal/matching"
	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
)

// Kind selects the verification algorithm compared in the paper's Fig 11.
type Kind int

const (
	// Basic computes the similarity with one Hungarian run over the whole
	// element bigraph (§3.2's "compute the real similarity").
	Basic Kind = iota
	// SubGraph decomposes the bigraph into per-node-signature groups and
	// solves each small matching independently (Lemma 8).
	SubGraph
	// Adaptive estimates per-group upper and lower bounds, accepts or
	// rejects early, and solves groups in descending looseness order
	// (Algorithm 3).
	Adaptive
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Basic:
		return "basic"
	case SubGraph:
		return "subgraph"
	case Adaptive:
		return "adaptive"
	default:
		return "unknown"
	}
}

// Stats counts the work done and the pruning achieved by verification.
type Stats struct {
	Pairs          int64 // verified candidate pairs
	CountPruned    int64 // pruned by Lemma 3
	WeightedPruned int64 // pruned by Lemma 4
	UBRejected     int64 // adaptive: rejected via upper bound
	LBAccepted     int64 // adaptive: accepted via lower bound
	MatchingCalls  int64 // Hungarian invocations
	Results        int64 // pairs that verified similar
}

// Add accumulates other into s (for merging per-worker stats).
func (s *Stats) Add(other Stats) {
	s.Pairs += other.Pairs
	s.CountPruned += other.CountPruned
	s.WeightedPruned += other.WeightedPruned
	s.UBRejected += other.UBRejected
	s.LBAccepted += other.LBAccepted
	s.MatchingCalls += other.MatchingCalls
	s.Results += other.Results
}

// Context carries everything verification needs. The configuration
// fields are immutable after construction, but verification runs on a
// lazily created per-Context Scratch workspace, so a Context is NOT
// safe for concurrent use: give every worker goroutine its own via
// Clone. (All elements must be resolved and their signatures generated
// beforehand; see elem.Resolver.)
type Context struct {
	Res    *elem.Resolver
	Space  *sig.Space
	Metric elem.Metric
	Set    setmetric.Kind
	Delta  float64
	Tau    float64

	scr *Scratch
}

// Clone returns a copy of c with its own fresh Scratch, sharing the
// (read-only) resolver and signature space. Use one clone per worker
// goroutine.
func (c *Context) Clone() *Context {
	cp := *c
	cp.scr = NewScratch()
	return &cp
}

// Prime materializes the context's lazily created Scratch. Callers that
// later Clone the context from other goroutines (a sync.Pool New hook)
// must prime it first: Clone reads the scratch pointer, and a concurrent
// first verification on the original would otherwise write it.
func (c *Context) Prime() { c.scratch() }

// scratch returns the context's workspace, creating it on first use.
func (c *Context) scratch() *Scratch {
	if c.scr == nil {
		c.scr = NewScratch()
	}
	return c.scr
}

// sim returns the element similarity Res.Sim(a, b, Metric) through the
// scratch's bounded pair cache. The cache key is the packed unordered
// pair (Resolver.Sim is exactly symmetric: the metric formulas, φ
// products and LCA are all symmetric in their arguments), and a hit
// returns the identical float Sim computed, so caching never changes
// results.
func (c *Context) sim(s *Scratch, a, b elem.ID) float64 {
	if a == b {
		return 1
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	key := uint64(uint32(lo))<<32 | uint64(uint32(hi))
	if v, ok := s.sims.get(key); ok {
		return v
	}
	v := c.Res.Sim(a, b, c.Metric)
	s.sims.put(key, v)
	return v
}

// group is one node-signature group of a candidate pair: the element
// indices (into x and y) whose node signatures fall in the group.
type group struct {
	xe, ye []elem.ID
}

// groups partitions the elements of x and y by node signature (Lemma 1:
// elements in different groups cannot be similar). Elements with several
// node signatures (K-Join+, §6.4) merge their groups via union-find.
//
// The returned slice and its element lists belong to the scratch and are
// valid until the next groups() call on this context.
func (c *Context) groups(x, y []elem.ID) []group {
	s := c.scratch()
	s.epoch++
	ep := s.epoch
	keyOf := func(e elem.ID) sig.Sig {
		keys := c.Space.GroupKeys(e)
		for i := 1; i < len(keys); i++ {
			s.union(keys[0], keys[i])
		}
		return keys[0]
	}
	s.roots = s.roots[:0]
	gs := s.groups[:0]
	for _, e := range x {
		r := s.find(keyOf(e))
		i, ok := s.gidx.lookup(r, ep)
		if !ok {
			i = int32(len(gs))
			s.gidx.set(r, i, ep)
			s.roots = append(s.roots, r)
			gs = appendGroup(gs)
		}
		gs[i].xe = append(gs[i].xe, e)
	}
	for _, e := range y {
		r := s.find(keyOf(e))
		i, ok := s.gidx.lookup(r, ep)
		if !ok {
			i = int32(len(gs))
			s.gidx.set(r, i, ep)
			s.roots = append(s.roots, r)
			gs = appendGroup(gs)
		}
		gs[i].ye = append(gs[i].ye, e)
	}
	s.groups = gs
	// Union-find may have merged two roots after their groups were
	// created; merge such groups, preserving first-seen order so that
	// downstream floating-point sums are deterministic. Without late
	// merges (the common case — multi-mapping elements only arise under
	// Plus resolution) the build order already is the output order.
	needMerge := false
	for _, r := range s.roots {
		if s.find(r) != r {
			needMerge = true
			break
		}
	}
	if !needMerge {
		return gs
	}
	out := s.mgroups[:0]
	for gi, r := range s.roots {
		root := s.find(r)
		if j, ok := s.merged.lookup(root, ep); ok {
			out[j].xe = append(out[j].xe, gs[gi].xe...)
			out[j].ye = append(out[j].ye, gs[gi].ye...)
		} else {
			s.merged.set(root, int32(len(out)), ep)
			out = appendGroup(out)
			out[len(out)-1].xe = append(out[len(out)-1].xe, gs[gi].xe...)
			out[len(out)-1].ye = append(out[len(out)-1].ye, gs[gi].ye...)
		}
	}
	s.mgroups = out
	return out
}

// appendEdges appends the δ-thresholded similarity edges between xe and
// ye to dst (paper §2.1.2: edges below δ are removed from the bigraph).
func (c *Context) appendEdges(s *Scratch, dst []matching.Edge, xe, ye []elem.ID) []matching.Edge {
	for i, a := range xe {
		for j, b := range ye {
			if w := c.sim(s, a, b); mathx.GE(w, c.Delta) {
				dst = append(dst, matching.Edge{X: i, Y: j, W: w})
			}
		}
	}
	return dst
}

// Overlap computes the exact fuzzy overlap ||x ∩̃δ y|| using the subgraph
// decomposition (Lemma 8 guarantees it equals the whole-graph matching).
func (c *Context) Overlap(x, y []elem.ID) float64 {
	s := c.scratch()
	total := 0.0
	for _, g := range c.groups(x, y) {
		if len(g.xe) == 0 || len(g.ye) == 0 {
			continue
		}
		s.edges = c.appendEdges(s, s.edges[:0], g.xe, g.ye)
		if len(s.edges) == 0 {
			continue
		}
		total += s.solver.MaxWeight(len(g.xe), len(g.ye), s.edges)
	}
	return total
}

// OverlapBasic computes the fuzzy overlap with a single Hungarian run on
// the whole bigraph (the Basic verifier's work).
func (c *Context) OverlapBasic(x, y []elem.ID) float64 {
	s := c.scratch()
	s.edges = c.appendEdges(s, s.edges[:0], x, y)
	if len(s.edges) == 0 {
		return 0
	}
	return s.solver.MaxWeight(len(x), len(y), s.edges)
}

// Similarity returns SIMδ(x, y) under the context's set metric, computed
// exactly.
func (c *Context) Similarity(x, y []elem.ID) float64 {
	return c.Set.Sim(c.Overlap(x, y), len(x), len(y))
}

// SortedKeys returns the multiset of node-signature group keys of an
// object, sorted — one key per (element, key) pair. Precompute it once
// per object and pass it to VerifyKeyed for a fast count-pruning path.
func (c *Context) SortedKeys(elems []elem.ID) []sig.Sig {
	n := 0
	for _, e := range elems {
		n += len(c.Space.GroupKeys(e))
	}
	return c.AppendSortedKeys(make([]sig.Sig, 0, n), elems)
}

// AppendSortedKeys appends the object's sorted group-key multiset to dst
// (sorting only the appended region) — the allocation-free form of
// SortedKeys for callers that manage their own key buffers or arenas.
func (c *Context) AppendSortedKeys(dst []sig.Sig, elems []elem.ID) []sig.Sig {
	start := len(dst)
	for _, e := range elems {
		dst = append(dst, c.Space.GroupKeys(e)...)
	}
	slices.Sort(dst[start:])
	return dst
}

// countReaches reports whether Σ_k min(count_x(k), count_y(k)) over the
// sorted key multisets — the size of their multiset intersection —
// reaches need. That sum bounds the number of similar element pairs
// (each matched pair shares a key and consumes one x- and one y-element
// counted under it), and therefore the fuzzy overlap (edge weights are
// ≤ 1): this is Lemma 3 computed without building groups. The walk is
// threshold-aware: it stops as soon as the count gets there, or as soon
// as the keys still unread on the shorter side cannot make up the
// difference — for most filter-generated candidates that is within the
// first few keys.
func countReaches(xk, yk []sig.Sig, need int) bool {
	i, j, total := 0, 0, 0
	for total < need {
		if total+min(len(xk)-i, len(yk)-j) < need {
			return false
		}
		switch {
		case xk[i] < yk[j]:
			i++
		case xk[i] > yk[j]:
			j++
		default:
			total++
			i++
			j++
		}
	}
	return true
}

// VerifyKeyed is Verify with precomputed sorted key multisets (see
// SortedKeys): candidates failing count pruning are rejected without
// building the per-pair group structure, which is where the bulk of
// filter-generated candidates die. A whole-number count is below the
// required overlap exactly when it is below the overlap's ceiling.
func (c *Context) VerifyKeyed(x, y []elem.ID, xKeys, yKeys []sig.Sig, kind Kind, st *Stats) bool {
	need := c.Set.PairOverlap(c.Tau, len(x), len(y))
	if !countReaches(xKeys, yKeys, mathx.CeilInt(need)) {
		st.Pairs++
		st.CountPruned++
		return false
	}
	return c.Verify(x, y, kind, st)
}

// Verify reports whether SIMδ(x, y) ≥ τ using the given verification
// algorithm, updating st. Count pruning (Lemma 3, part of the base
// framework §3.2) runs for every Kind; the weighted count pruning of
// Lemma 4 belongs to the improved verifiers (SubGraph, Adaptive), while
// Basic then computes the similarity directly with one whole-bigraph
// matching — the naive method the paper's Figure 11 compares against.
func (c *Context) Verify(x, y []elem.ID, kind Kind, st *Stats) bool {
	st.Pairs++
	need := c.Set.PairOverlap(c.Tau, len(x), len(y))
	s := c.scratch()
	gs := c.groups(x, y)

	// Count pruning (Lemma 3): Σ min(|Six|, |Siy|) bounds the overlap.
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
		ok := mathx.GE(c.OverlapBasic(x, y), need)
		if ok {
			st.Results++
		}
		return ok
	}

	// Weighted count pruning (Lemma 4): exact matches count 1, the rest
	// at most their MaxDiffSim.
	wUB := 0.0
	for _, g := range gs {
		wUB += c.groupWeightedUB(s, g)
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
			s.edges = c.appendEdges(s, s.edges[:0], g.xe, g.ye)
			if len(s.edges) == 0 {
				continue
			}
			st.MatchingCalls++
			total += s.solver.MaxWeight(len(g.xe), len(g.ye), s.edges)
		}
		ok = mathx.GE(total, need)
	default: // Adaptive
		ok = c.adaptive(s, gs, need, st)
	}
	if ok {
		st.Results++
	}
	return ok
}

// groupWeightedUB computes the per-group term of Lemma 4:
// |Six ∩ Siy| + min(Σ MaxDiffSim over Six−∩, Σ MaxDiffSim over Siy−∩).
// The intersection is a multiset intersection on element identity,
// counted in the scratch's epoch-stamped element tables.
func (c *Context) groupWeightedUB(s *Scratch, g group) float64 {
	if len(g.xe) == 0 || len(g.ye) == 0 {
		return 0
	}
	s.epoch++
	ep := s.epoch
	for _, e := range g.xe {
		s.cnt.incr(e, ep)
	}
	inter := 0
	for _, e := range g.ye {
		if s.used.get(e, ep) < s.cnt.get(e, ep) {
			s.used.incr(e, ep)
			inter++
		}
	}
	sx, sy := 0.0, 0.0
	for _, e := range g.xe {
		if s.takenX.incr(e, ep) <= s.used.get(e, ep) {
			continue // part of the intersection
		}
		sx += c.Res.MaxDiffSim(e, c.Metric)
	}
	for _, e := range g.ye {
		if s.takenY.incr(e, ep) <= s.used.get(e, ep) {
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

// adaptive is Algorithm 3: per-group bounds with early accept/reject and
// loosest-groups-first exact matching. Group edge lists live in the
// scratch edge arena as [start, end) ranges, so arena growth while later
// groups are built never invalidates earlier groups.
func (c *Context) adaptive(s *Scratch, gs []group, need float64, st *Stats) bool {
	act := s.act.act[:0]
	s.edges = s.edges[:0]
	bl, bu := 0.0, 0.0
	for gi, g := range gs {
		if len(g.xe) == 0 || len(g.ye) == 0 {
			continue
		}
		start := len(s.edges)
		s.edges = c.appendEdges(s, s.edges, g.xe, g.ye)
		if len(s.edges) == start {
			continue
		}
		es := s.edges[start:]
		lo := s.solver.LowerBound(len(g.xe), len(g.ye), es)
		up := s.solver.UpperBound(len(g.xe), len(g.ye), es)
		act = append(act, gb{gi: int32(gi), start: int32(start), end: int32(len(s.edges)), lo: lo, up: up})
		bl += lo
		bu += up
	}
	s.act.act = act
	if mathx.GE(bl, need) {
		st.LBAccepted++
		return true
	}
	if mathx.LT(bu, need) {
		st.UBRejected++
		return false
	}
	// Loosest groups first (§5.2.3): largest B^u − B^l gap.
	sortGBs(&s.act)
	for _, a := range act {
		st.MatchingCalls++
		g := gs[a.gi]
		w := s.solver.MaxWeight(len(g.xe), len(g.ye), s.edges[a.start:a.end])
		bu += w - a.up
		if mathx.LT(bu, need) {
			st.UBRejected++
			return false
		}
		bl += w - a.lo
		if mathx.GE(bl, need) {
			st.LBAccepted++
			return true
		}
	}
	return mathx.GE(bl, need)
}
