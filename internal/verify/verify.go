// Package verify implements K-Join's verification ladder: the exact
// knowledge-aware object similarity (Definition 2), count pruning
// (Lemma 3), weighted count pruning (Lemma 4), subgraph-matching
// decomposition (Lemma 8), and the adaptive bound-driven verification of
// §5.2 (Algorithm 3).
//
// The ladder is lazy and threshold-aware: the bounds form the chain
// sketch ≥ count ≥ Lemma 4 ≥ column ≥ B^u ≥ overlap ≥ B^l (the sketch
// rung is the batch index's, see SketchBound; column is columnTerm; a
// group's B^l is its overlap, one Hungarian solve), every rung is the
// cheapest one not yet tried, it stops as soon as τ is decided, and a
// rung that reads a pair group by group adds the looser bound of the
// unread groups and gives up when even that cannot reach the required
// overlap. Every early exit takes the decision, and bumps the Stats
// counter, the eager ladder would have (DESIGN §8 "ladder order"). A pair
// SubGraph or Adaptive accepts keeps its exact overlap for Context.Score.
package verify

import (
	"math/bits"
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
	// Adaptive estimates per-group upper bounds, rejects early, and
	// solves the groups of a pair they leave undecided (Algorithm 3 with
	// an exact lower bound).
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
	MatchingCalls  int64 // Hungarian invocations of Basic and SubGraph
	ExactSolves    int64 // adaptive: groups the B^l rung solved instead of bounding
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
	s.ExactSolves += other.ExactSolves
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

// Clone returns a copy of c with a Scratch of its own, sharing the
// (read-only) resolver and signature space. Use one clone per worker
// goroutine. It never reads c's Scratch, so it may run beside
// verification on c (a sync.Pool New hook does).
func (c *Context) Clone() *Context {
	return &Context{Res: c.Res, Space: c.Space, Metric: c.Metric, Set: c.Set, Delta: c.Delta, Tau: c.Tau}
}

// scratch returns the context's workspace, creating it on first use.
func (c *Context) scratch() *Scratch {
	if c.scr == nil {
		c.scr = NewScratch()
	}
	return c.scr
}

// Arm loads p's key tables for the pairs to come: until Disarm, a
// VerifyPrepared pair with p (this pointer) on either side runs count
// pruning and Lemma 4 over its other side alone. Disarm before p's
// memory can hold another object.
func (c *Context) Arm(p *Prepared) {
	s := c.scratch()
	s.probe.load(c.Space.MaxDiffSims(), c.Space.PathCodes(), p)
	s.probe.of = p
}

// Disarm forgets the armed probe.
func (c *Context) Disarm() { c.scratch().probe.of = nil }

// pathSims[m][dl][da][db] is elem.Metric(m).Sim(dl, da, db).
var pathSims = func() (t [2][8][8][8]float64) {
	for i := range 2 * 8 * 8 * 8 {
		t[i>>9][i>>6&7][i>>3&7][i&7] = elem.Metric(i>>9).Sim(i>>6&7, i>>3&7, i&7)
	}
	return t
}()

// sim returns Res.Sim(a, b, Metric), given the Space's path column. Two
// coded elements are single nodes with φ = 1, so their similarity is
// Metric.Sim of their LCA's depth — the equal leading bytes of the codes,
// capped by the depths in the low bytes — and theirs: a table load, with
// the bits of Res.Sim (its φ product is 1·1). Other pairs take Res.Sim.
func (c *Context) sim(codes []uint64, a, b elem.ID) float64 {
	if a == b {
		return 1
	}
	if ca, cb := pathCode(codes, a), pathCode(codes, b); ca != sig.NoPath && cb != sig.NoPath {
		da, db := ca&0xff, cb&0xff
		return pathSims[c.metricIndex()][min(uint64(bits.LeadingZeros64(ca^cb)/8), da, db)][da][db]
	}
	return c.Res.Sim(a, b, c.Metric)
}

// metricIndex is the context's metric's index into pathSims.
func (c *Context) metricIndex() int {
	if c.Metric == elem.WuPalmer {
		return 1
	}
	return 0
}

// pathCode is codes[e], or NoPath past the column.
func pathCode(codes []uint64, e elem.ID) uint64 {
	if int(e) < len(codes) {
		return codes[e]
	}
	return sig.NoPath
}

// group is one node-signature group of a candidate pair: the element
// indices (into x and y) whose node signatures fall in the group.
type group struct {
	xe, ye []elem.ID
}

// groups partitions the elements of x and y by node signature (Lemma 1:
// elements in different groups cannot be similar). Elements with several
// node signatures (K-Join+, §6.4) merge their groups via union-find;
// until the pair's first such element every key is its own root and the
// union-find tables are not touched.
//
// The returned slice and its element lists belong to the scratch and are
// valid until the next groups() call on this context.
func (c *Context) groups(x, y []elem.ID) []group {
	s := c.scratch()
	s.epoch++
	ep := s.epoch
	unions := false
	rootOf := func(e elem.ID) sig.Sig {
		keys := c.Space.GroupKeys(e)
		for i := 1; i < len(keys); i++ {
			s.union(keys[0], keys[i])
			unions = true
		}
		if !unions {
			return keys[0]
		}
		return s.find(keys[0])
	}
	s.roots = s.roots[:0]
	gs := s.groups[:0]
	for _, e := range x {
		r := rootOf(e)
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
		r := rootOf(e)
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
	if unions {
		for _, r := range s.roots {
			if s.find(r) != r {
				needMerge = true
				break
			}
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
func (c *Context) appendEdges(dst []matching.Edge, xe, ye []elem.ID) []matching.Edge {
	codes := c.Space.PathCodes()
	for i, a := range xe {
		for j, b := range ye {
			if w := c.sim(codes, a, b); mathx.GE(w, c.Delta) {
				dst = append(dst, matching.Edge{X: i, Y: j, W: w})
			}
		}
	}
	return dst
}

// Overlap computes the exact fuzzy overlap ||x ∩̃δ y|| using the subgraph
// decomposition (Lemma 8 guarantees it equals the whole-graph matching).
func (c *Context) Overlap(x, y []elem.ID) float64 {
	var calls int64
	return c.groupsOverlap(c.groups(x, y), &calls)
}

// groupsOverlap sums the groups' maximum-weight matchings, adding the
// Hungarian solves it runs to calls.
func (c *Context) groupsOverlap(gs []group, calls *int64) float64 {
	s := c.scratch()
	total := 0.0
	for _, g := range gs {
		if len(g.xe) == 0 || len(g.ye) == 0 {
			continue
		}
		s.edges = c.appendEdges(s.edges[:0], g.xe, g.ye)
		if len(s.edges) == 0 {
			continue
		}
		*calls++
		total += s.solver.MaxWeight(len(g.xe), len(g.ye), s.edges)
	}
	return total
}

// OverlapBasic computes the fuzzy overlap with a single Hungarian run on
// the whole bigraph (the Basic verifier's work).
func (c *Context) OverlapBasic(x, y []elem.ID) float64 {
	s := c.scratch()
	s.edges = c.appendEdges(s.edges[:0], x, y)
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

// Prepared is one object in the form the ladder reads it. Build it once
// per object with Prepare.
type Prepared struct {
	Elems []elem.ID
	// Keys is the sorted multiset of the elements' node-signature group
	// keys, one per (element, key) pair: Lemma 3 walks one of them against
	// the other's key counts. Nil means not computed; the ladder then
	// starts at the group structure.
	Keys []sig.Sig
	// ByKey is the elements again, in (group key, id) order, so that
	// ByKey[i] is the element behind Keys[i]: Lemma 4 is then such a walk
	// too. It exists only when the object is a set of single-key
	// elements — all of K-Join proper; an object with a multi-mapped
	// K-Join+ element (or a repeated id) has none, and its pairs take the
	// union-find path.
	ByKey []elem.ID
}

// Prepare returns the ladder's form of an object, sorting its packed
// (group key, element) words once. Keys and ByKey are appended to keys
// and byKey: pass nil to allocate, or zero-length slices with room for
// one entry per (element, key) pair and per element to carve them from
// an arena. It reads only the Space's caches, never the Context's
// workspace, so it may run beside verification on the same Context.
func (c *Context) Prepare(elems []elem.ID, keys []sig.Sig, byKey []elem.ID) Prepared {
	var buf [32]uint64
	words := buf[:0]
	for _, e := range elems {
		for _, k := range c.Space.GroupKeys(e) {
			words = append(words, uint64(uint32(k))<<32|uint64(uint32(e)))
		}
	}
	slices.Sort(words)
	p := Prepared{Elems: elems}
	if keys == nil {
		keys = make([]sig.Sig, 0, len(words))
	}
	for _, w := range words {
		keys = append(keys, sig.Sig(w>>32))
	}
	p.Keys = keys
	set := len(words) == len(elems) // every element has a key, so: exactly one each
	for i := 1; set && i < len(words); i++ {
		set = words[i] != words[i-1]
	}
	if set {
		if byKey == nil {
			byKey = make([]elem.ID, 0, len(words))
		}
		for _, w := range words {
			byKey = append(byKey, elem.ID(uint32(w)))
		}
		p.ByKey = byKey
	}
	return p
}

// SortedKeys returns the multiset of node-signature group keys of an
// object, sorted — one key per (element, key) pair: Prepared.Keys on its
// own, for callers of VerifyKeyed.
func (c *Context) SortedKeys(elems []elem.ID) []sig.Sig {
	return c.Prepare(elems, nil, nil).Keys
}

// countReaches reports whether Σ_k min(count_p(k), count_q(k)) over the
// loaded probe's keys and the sorted key multiset qk — the size of their
// multiset intersection — reaches need. That sum bounds the number of
// similar element pairs (each matched pair shares a key and consumes one
// element of either side counted under it), and therefore the fuzzy
// overlap (edge weights are ≤ 1): this is Lemma 3 as one walk over qk's
// runs of equal keys. It stops as soon as the count gets there, or as
// soon as the keys still unread on either side — the probe's past the
// last shared one — cannot make up the difference.
func (t *probeTables) countReaches(qk []sig.Sig, need int) bool {
	total, left := 0, t.n
	for i := 0; total < need; {
		if total+min(len(qk)-i, left) < need {
			return false
		}
		k, j := qk[i], i+1
		for j < len(qk) && qk[j] == k {
			j++
		}
		if pk := t.key(k); pk != nil {
			total += min(int(pk.cnt), j-i)
			left = t.n - int(pk.end)
		}
		i = j
	}
	return true
}

// KeySketch folds a key multiset into 64 bits: bit h(k) is set for every
// key k it holds.
func KeySketch(keys []sig.Sig) uint64 {
	var b uint64
	for _, k := range keys {
		b |= 1 << (uint64(uint32(k)) * 0x9e3779b97f4a7c15 >> 58)
	}
	return b
}

// SketchBound bounds the count countReaches walks to, from the two
// multisets' sketches and lengths alone. A bit set in bx and clear in by
// is the bit of some key of x that y does not hold, so at least one key
// instance of x per such bit has no partner: the count is at most
// nx − popcount(bx &^ by), and by symmetry ny − popcount(by &^ bx). When
// the bound is below need, count pruning rejects the pair.
func SketchBound(bx uint64, nx int, by uint64, ny int) int {
	return min(nx-bits.OnesCount64(bx&^by), ny-bits.OnesCount64(by&^bx))
}

// weightedBound computes Lemma 4's bound Σ_groups |Sᵢᵖ ∩ Sᵢᑫ| +
// min(Σ MaxDiffSim over Sᵢᵖ−∩, Σ MaxDiffSim over Sᵢᑫ−∩) of the loaded
// probe p and q, both with key-ordered columns, in one walk over q's: a
// group is a run of equal keys, its intersection the elements p marks,
// and p's side its key's Σ MaxDiffSim less theirs (a reordered sum:
// VerifyPrepared's slack band absorbs the rounding). While the sum so
// far plus one per entry still unread is below floor it returns that, an
// upper bound of the full sum. The shared keys' runs and their terms are
// left in the scratch (wruns, wterms).
func (c *Context) weightedBound(s *Scratch, q *Prepared, floor float64) float64 {
	md, p := c.Space.MaxDiffSims(), &s.probe
	s.wruns, s.wterms = s.wruns[:0], s.wterms[:0]
	qk, qe := q.Keys, q.ByKey
	w := 0.0
	for i := 0; i < len(qk); {
		k := qk[i]
		pk := p.key(k)
		if pk == nil {
			i++
			continue
		}
		if rest := w + float64(len(qk)-i); rest < floor {
			return rest
		}
		inter, si, sq := 0, 0.0, 0.0
		s.wruns = append(s.wruns, int32(i))
		for ; i < len(qk) && qk[i] == k; i++ {
			if e := qe[i]; p.holds(e) {
				inter++
				si += md[e]
			} else {
				sq += md[e]
			}
		}
		t := float64(inter) + min(pk.md-si, sq)
		s.wterms = append(s.wterms, t)
		w += t
	}
	return w
}

// columnTerm is rung 2b's term for q's run, from q.Keys[i], of a key k
// the loaded probe holds: |∩| + min(md_probe[k] − Σmd(∩), Σ colMax over
// the rest), with Lemma 4's probe side (≥ the group's row maxima) and the
// group's Σ column maxima (≤ Lemma 4's): Lemma 4 term ≥ it ≥ B^u.
func (c *Context) columnTerm(s *Scratch, q *Prepared, i int) float64 {
	p, md, pk := &s.probe, c.Space.MaxDiffSims(), s.probe.key(q.Keys[i])
	qk, qe := q.Keys, q.ByKey
	inter, si, col, codes := 0, 0.0, 0.0, c.Space.PathCodes()
	for j := i; j < len(qk) && qk[j] == qk[i]; j++ {
		if e := qe[j]; p.holds(e) {
			inter++
			si += md[e]
		} else {
			col += p.colMax(c, codes, e, pk)
		}
	}
	return float64(inter) + min(pk.md-si, col)
}

// columnRejects is rung 2b: whether Σ columnTerm over the walk's shared
// keys is below floor. It stops once the sum reaches floor, or once the
// sum plus the unread keys' Lemma 4 terms (wterms) is below it.
func (c *Context) columnRejects(s *Scratch, q *Prepared, floor float64) bool {
	s.colRuns++
	b, rest := 0.0, sum(s.wterms)
	for j, i := range s.wruns {
		b, rest = b+c.columnTerm(s, q, int(i)), rest-s.wterms[j]
		if b >= floor {
			return false
		}
		if b+rest < floor {
			return true
		}
	}
	return b < floor
}

// VerifyKeyed is VerifyPrepared for callers that hold only the sorted
// key multisets (see SortedKeys): the same ladder without the
// key-ordered columns, so Lemma 4 runs over the groups.
func (c *Context) VerifyKeyed(x, y []elem.ID, xKeys, yKeys []sig.Sig, kind Kind, st *Stats) bool {
	return c.verify(&Prepared{Elems: x, Keys: xKeys}, &Prepared{Elems: y, Keys: yKeys}, kind, st)
}

// Verify is VerifyPrepared on bare element lists: count pruning runs on
// the group structure.
func (c *Context) Verify(x, y []elem.ID, kind Kind, st *Stats) bool {
	return c.verify(&Prepared{Elems: x}, &Prepared{Elems: y}, kind, st)
}

// VerifyPrepared reports whether SIMδ(x, y) ≥ τ using the given
// verification algorithm, updating st. Count pruning (Lemma 3, part of
// the base framework §3.2) runs for every Kind; the weighted count
// pruning of Lemma 4 belongs to the improved verifiers (SubGraph,
// Adaptive), while Basic then computes the similarity directly with one
// whole-bigraph matching — the naive method the paper's Figure 11
// compares against.
//
// The rungs run cheapest first — key count, Lemma 4 by table walk, for
// Adaptive rung 2b, and only then the group structure with its count,
// Lemma 4 (when the walk could not run or could not tell), and the
// matching rungs. Candidates failing count pruning, where the bulk of
// filter-generated candidates die, are rejected without building
// anything. The rungs before the groups walk one side against the
// other's tables: the armed probe's (Arm), else x's, loaded for this pair.
//
// Sums of the same terms in another order, or cut short by a looser
// bound, agree with the eager ladder's only up to rounding, so an early
// exit fires only below floor — under the required overlap by mathx's
// tolerance and by more than any rounding of a sum of |x|+|y| terms in
// [0, 1] — and whatever lands in the band around the tolerance is
// decided by the full sum in the eager ladder's order.
//
// A pair SubGraph or Adaptive accepts leaves its exact overlap for Score.
func (c *Context) VerifyPrepared(x, y *Prepared, kind Kind, st *Stats) bool {
	ok := c.verify(x, y, kind, st)
	if ok && kind != Basic {
		c.scr.held.x, c.scr.held.y = x, y
	}
	return ok
}

// verify is VerifyPrepared without keying the held overlap to x and y,
// which would move the callers' temporaries to the heap.
func (c *Context) verify(x, y *Prepared, kind Kind, st *Stats) bool {
	st.Pairs++
	s := c.scratch()
	s.held.x, s.held.y = nil, nil
	need, needCeil := s.pairNeed(c, len(x.Elems), len(y.Elems))
	keyed, q := x.Keys != nil && y.Keys != nil, y
	if keyed {
		switch s.probe.of {
		case x:
		case y:
			q = x
		default:
			s.probe.load(c.Space.MaxDiffSims(), c.Space.PathCodes(), x) // for this pair only
		}
	}
	if keyed && !s.probe.countReaches(q.Keys, needCeil) {
		st.CountPruned++
		return false
	}
	n := float64(len(x.Elems) + len(y.Elems))
	slack := 4 * n * n * 0x1p-52
	floor := need - mathx.Eps - slack

	// weighted: Lemma 4 is still to be decided over the groups.
	weighted, walked := kind != Basic, false
	if weighted && x.ByKey != nil && y.ByKey != nil {
		w := c.weightedBound(s, q, floor)
		if w < floor {
			st.WeightedPruned++
			return false
		}
		weighted, walked = w < need-mathx.Eps+slack, true
		// Rung 2b: ΣB^u ≤ the column sum < floor, so adaptive UB-rejects.
		if kind == Adaptive && !weighted && c.columnRejects(s, q, floor) {
			st.UBRejected++
			return false
		}
	}

	gs := c.groups(x.Elems, y.Elems)

	// Count pruning over the groups (Lemma 3): Σ min(|Six|, |Siy|) bounds
	// the overlap. Merged K-Join+ groups can make it differ from the key
	// count; it is also each group's loosest bound for the passes below.
	countUB := 0
	loose := s.loose[:0]
	for _, g := range gs {
		m := min(len(g.xe), len(g.ye))
		countUB += m
		loose = append(loose, float64(m))
	}
	s.loose = loose
	if mathx.LT(float64(countUB), need) {
		st.CountPruned++
		return false
	}

	if kind == Basic {
		st.MatchingCalls++
		ok := mathx.GE(c.OverlapBasic(x.Elems, y.Elems), need)
		if ok {
			st.Results++
		}
		return ok
	}

	if walked {
		// The walk's terms tighten their groups' bounds: without multi-key
		// elements a group's root is its one key, and the group index of
		// groups() (whose epoch is still current) finds it.
		for i, r := range s.wruns {
			gi, _ := s.gidx.lookup(q.Keys[r], s.epoch)
			loose[gi] = s.wterms[i]
		}
	}

	// Weighted count pruning (Lemma 4) over the groups, in the eager
	// ladder's order: exact matches count 1, the rest at most their
	// MaxDiffSim. Each group's term replaces its looser bound; the bounds
	// of the groups still unread close the sum.
	if weighted {
		wUB, rest := 0.0, sum(loose)
		for gi, g := range gs {
			rest -= loose[gi]
			t, sets := c.groupWeightedUB(s, g)
			if sets {
				loose[gi] = t
			}
			wUB += t
			if wUB+rest < floor {
				st.WeightedPruned++
				return false
			}
		}
		if mathx.LT(wUB, need) {
			st.WeightedPruned++
			return false
		}
	}

	var ok bool
	switch kind {
	case SubGraph:
		s.held.overlap = c.groupsOverlap(gs, &st.MatchingCalls)
		ok = mathx.GE(s.held.overlap, need)
	default: // Adaptive
		ok = c.adaptive(s, gs, loose, need, floor, st)
	}
	if ok {
		st.Results++
	}
	return ok
}

// Score returns SIMδ(x, y) for the pair the last VerifyPrepared call on
// c accepted with SubGraph or Adaptive, from the exact overlap its ladder
// holds, with the bits of Similarity(x.Elems, y.Elems). For any other
// pair — another x or y, a rejected one, one Basic verified — it is
// Similarity.
func (c *Context) Score(x, y *Prepared) float64 {
	if s := c.scratch(); s.held.x == x && s.held.y == y {
		return c.Set.Sim(s.held.overlap, len(x.Elems), len(y.Elems))
	}
	return c.Similarity(x.Elems, y.Elems)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// groupWeightedUB computes the per-group term of Lemma 4:
// |Six ∩ Siy| + min(Σ MaxDiffSim over Six−∩, Σ MaxDiffSim over Siy−∩).
// The intersection is a multiset intersection on element identity,
// counted in the scratch's epoch-stamped element tables. sets reports
// that no id repeats within either side; only then does the term also
// bound the group's B^u (a second copy of an id counts MaxDiffSim here
// but still has its weight-1 edge to the other side's copy there).
func (c *Context) groupWeightedUB(s *Scratch, g group) (term float64, sets bool) {
	if len(g.xe) == 0 || len(g.ye) == 0 {
		return 0, true
	}
	md := c.Space.MaxDiffSims()
	s.epoch++
	ep := s.epoch
	sets = true
	for _, e := range g.xe {
		if s.cnt.incr(e, ep) > 1 {
			sets = false
		}
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
		sx += md[e]
	}
	for _, e := range g.ye {
		n := s.takenY.incr(e, ep)
		if n > 1 {
			sets = false
		}
		if n <= s.used.get(e, ep) {
			continue
		}
		sy += md[e]
	}
	return float64(inter) + min(sx, sy), sets
}

// adaptive is Algorithm 3 with an exact B^l: per-group bounds with early
// accept/reject, the bounds computed cheapest first. B^u is one pass over
// a group's edges. It runs alone first — giving up as soon as the bounds
// read so far plus loose[i] (an upper bound of B^u per group: its Lemma 4
// term or its count) for every group still unread cannot reach need,
// before those groups' similarities are even fetched — and only a pair it
// leaves undecided has its groups solved. Where the paper bounds each
// group from below with two greedy matchings (§5.2.2) and then solves the
// loosest groups first (§5.2.3), every active group is solved here, in
// group order: a greedy bound saves a solve only by accepting without
// one, and an accepted pair's score needs every solve anyway (DESIGN §8
// "The B^l rung"). Each solve tightens ΣB^u, and the solves summed in
// group order are groupsOverlap's sum, which an accepted pair leaves in
// s.held for Score. Group edge lists live in the scratch edge arena as
// [start, end) ranges, so arena growth while later groups are built never
// invalidates earlier groups.
func (c *Context) adaptive(s *Scratch, gs []group, loose []float64, need, floor float64, st *Stats) bool {
	s.act = s.act[:0]
	s.edges = s.edges[:0]
	bu, rest := 0.0, sum(loose)
	for gi, g := range gs {
		if len(g.xe) == 0 || len(g.ye) == 0 {
			continue
		}
		rest -= loose[gi]
		start := len(s.edges)
		s.edges = c.appendEdges(s.edges, g.xe, g.ye)
		if len(s.edges) == start {
			continue
		}
		up := s.solver.UpperBound(len(g.xe), len(g.ye), s.edges[start:])
		s.act = append(s.act, gb{gi: int32(gi), start: int32(start), end: int32(len(s.edges)), up: up})
		bu += up
		if bu+rest < floor {
			st.UBRejected++
			return false
		}
	}
	if bu < floor {
		st.UBRejected++
		return false
	}
	bl := 0.0
	for _, a := range s.act {
		st.ExactSolves++
		g := gs[a.gi]
		w := s.solver.MaxWeight(len(g.xe), len(g.ye), s.edges[a.start:a.end])
		if bu += w - a.up; bu < floor {
			st.UBRejected++
			return false
		}
		bl += w
	}
	if mathx.GE(bl, need) {
		st.LBAccepted++
		s.held.overlap = bl
		return true
	}
	if mathx.LT(bu, need) {
		st.UBRejected++
	}
	return false
}
