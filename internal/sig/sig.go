// Package sig implements K-Join's signature schemes and prefixes:
// node signatures (Definition 4) with the node prefix (Definition 5),
// shallow and deep path signatures (Definitions 6–7) with the path prefix
// (Definition 8) and the weighted path prefix (Definition 9), plus the
// document-frequency global order all prefixes are computed against.
//
// A signature is identified by a Sig: hierarchy node ids for signatures
// that are tree nodes, and interned token ids beyond the node space for
// elements that match no hierarchy node (the paper keeps unmatched tokens
// as elements; two such tokens can only be similar if equal, or synonyms
// under K-Join+ resolution, so their canonical token is the signature).
package sig

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"kjoin/internal/elem"
	"kjoin/internal/hierarchy"
	"kjoin/internal/mathx"
)

// Sig identifies a signature within a Space.
type Sig int32

// Scheme selects the signature scheme used for filtering.
type Scheme int

const (
	// Node uses the single node signature at depth d_δ (§3.1).
	Node Scheme = iota
	// Shallow uses the shallow path signatures (Definition 6).
	Shallow
	// Deep uses the deep path signatures (Definition 7).
	Deep
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Node:
		return "node"
	case Shallow:
		return "shallow"
	case Deep:
		return "deep"
	default:
		return "unknown"
	}
}

// Entry is one signature occurrence of one element of an object.
type Entry struct {
	Sig  Sig     // the signature
	W    float64 // maximum element similarity given this signature matches (§4.2.2)
	Elem int32   // index of the generating element within the object
}

// Space generates signatures for resolved elements. It caches per-element
// signature lists, so each distinct token pays the generation cost once.
//
// Like elem.Resolver, a Space is built single-threaded (ElemSigs and
// GroupKeys mutate the cache) and is safe for concurrent reads afterwards.
type Space struct {
	res    *elem.Resolver
	h      *hierarchy.Hierarchy
	metric elem.Metric
	delta  float64
	dDelta int
	scheme Scheme

	tokSigs map[string]Sig
	next    Sig

	sigCache   [][]sigW // per elem.ID signatures under scheme
	groupCache [][]Sig  // per elem.ID node signatures (grouping keys for verification)
	// maxDiff is the dense per elem.ID column of Resolver.MaxDiffSim under
	// metric (the weight of Lemma 4). Slot e is filled together with
	// groupCache[e], so verification reads a float where it used to load
	// the element's Info and walk its mappings.
	maxDiff []float64
	paths   []uint64 // the path column beside it (PathCodes)

	// pub is an atomically published snapshot of the group caches, for
	// the streaming Indexer: the owner fills the caches for every element
	// of an object under its build lock, then calls Publish; lock-free
	// query goroutines served from the snapshot never touch the mutable
	// caches. Ids beyond the snapshot (or unfilled slots) fall back to
	// the single-threaded lazy path, which remains owner-only.
	pub atomic.Pointer[groupCaches]

	// gen is the generation scratch of the single-threaded cache-fill
	// path; Warm workers carry their own.
	gen genState
	// Warm starts at warmed: every element id below it has both caches
	// filled.
	warmed int
}

// groupCaches is one published snapshot of the per-element verification
// caches: the group keys and, slot for slot, the two columns.
type groupCaches struct {
	keys    [][]Sig
	maxDiff []float64
	paths   []uint64
}

// NoPath is the path slot of an element without a code; a real slot's
// low byte is a depth below 8, so it is never all ones.
const NoPath = ^uint64(0)

// genState is per-goroutine signature-generation state: reusable build
// buffers plus the arenas the cached per-element slices are carved from.
// Arena chunks are never regrown in place (a full chunk is replaced and
// kept alive by the slices pointing into it), so cache entries stay
// valid forever.
type genState struct {
	buf    []sigW
	kbuf   []Sig
	arena  []sigW
	karena []Sig
}

func (g *genState) internSigs() []sigW {
	if len(g.buf) == 0 {
		return []sigW{}
	}
	if len(g.arena)+len(g.buf) > cap(g.arena) {
		n := 2 * cap(g.arena)
		if n < 256 {
			n = 256
		}
		if n < len(g.buf) {
			n = len(g.buf)
		}
		g.arena = make([]sigW, 0, n)
	}
	start := len(g.arena)
	g.arena = append(g.arena, g.buf...)
	return g.arena[start:len(g.arena):len(g.arena)]
}

func (g *genState) internKeys() []Sig {
	if len(g.kbuf) == 0 {
		return []Sig{}
	}
	if len(g.karena)+len(g.kbuf) > cap(g.karena) {
		n := 2 * cap(g.karena)
		if n < 256 {
			n = 256
		}
		if n < len(g.kbuf) {
			n = len(g.kbuf)
		}
		g.karena = make([]Sig, 0, n)
	}
	start := len(g.karena)
	g.karena = append(g.karena, g.kbuf...)
	return g.karena[start:len(g.karena):len(g.karena)]
}

type sigW struct {
	s Sig
	w float64
}

// NewSpace returns a signature space for the resolver under the given
// element metric, element threshold δ and scheme.
func NewSpace(res *elem.Resolver, metric elem.Metric, delta float64, scheme Scheme) *Space {
	return &Space{
		res:     res,
		h:       res.Hierarchy(),
		metric:  metric,
		delta:   delta,
		dDelta:  metric.MinLCADepth(delta),
		scheme:  scheme,
		tokSigs: make(map[string]Sig),
		next:    Sig(res.Hierarchy().Len()),
	}
}

// Scheme returns the space's signature scheme.
func (sp *Space) Scheme() Scheme { return sp.scheme }

// NumSigs returns an exclusive upper bound on every signature id the
// space has handed out so far (hierarchy nodes plus interned token
// signatures). Dense signature-keyed tables are sized with it.
func (sp *Space) NumSigs() int { return int(sp.next) }

// DDelta returns d_δ, the node-signature depth.
func (sp *Space) DDelta() int { return sp.dDelta }

// tokenSig interns the canonical token of a non-entity element.
func (sp *Space) tokenSig(canon string) Sig {
	if s, ok := sp.tokSigs[canon]; ok {
		return s
	}
	s := sp.next
	sp.next++
	sp.tokSigs[canon] = s
	return s
}

// nodeSig returns the node signature of a mapping node per Definition 4:
// the node itself if shallower than d_δ, else its ancestor at depth d_δ.
func (sp *Space) nodeSig(n hierarchy.NodeID) Sig {
	if sp.h.Depth(n) < sp.dDelta {
		return Sig(n)
	}
	return Sig(sp.h.Ancestor(n, sp.dDelta))
}

// ElemSigs returns the signatures of element e under the space's scheme,
// deduplicated with maximum weight. The result is cached and must not be
// modified.
func (sp *Space) ElemSigs(e elem.ID) []Entry {
	sigs := sp.elemSigs(e)
	out := make([]Entry, len(sigs))
	for i, sw := range sigs {
		out[i] = Entry{Sig: sw.s, W: sw.w}
	}
	return out
}

// elemSigs returns e's cached signature list, generating it on a miss.
func (sp *Space) elemSigs(e elem.ID) []sigW {
	for int(e) >= len(sp.sigCache) {
		sp.sigCache = append(sp.sigCache, nil)
	}
	if sp.sigCache[e] == nil {
		sp.sigCache[e] = sp.genSigs(&sp.gen, e)
	}
	return sp.sigCache[e]
}

// ElemSigCount returns the number of signatures of element e — the size
// AppendObjectSigs contributes for it, for pre-sizing entry buffers.
func (sp *Space) ElemSigCount(e elem.ID) int { return len(sp.elemSigs(e)) }

// appendElemSigs appends e's signatures to dst tagged with element index
// idx, avoiding the copy in ElemSigs.
func (sp *Space) appendElemSigs(dst []Entry, e elem.ID, idx int32) []Entry {
	for _, sw := range sp.elemSigs(e) {
		dst = append(dst, Entry{Sig: sw.s, W: sw.w, Elem: idx})
	}
	return dst
}

// genSigs computes the signature list of one element into st's build
// buffer and interns it in st's arena.
func (sp *Space) genSigs(st *genState, e elem.ID) []sigW {
	info := sp.res.Info(e)
	if !info.Entity() {
		// Unmatched token: its canonical token is its only signature and a
		// match means equality (or synonymy), maximum similarity 1.
		return []sigW{{s: sp.tokenSig(info.Canon), w: 1}}
	}
	st.buf = st.buf[:0]
	deepest, deepestIdx := -1, -1
	add := func(s Sig, w float64) int {
		out := st.buf
		for i := range out {
			if out[i].s == s {
				if w > out[i].w {
					out[i].w = w
				}
				return i
			}
		}
		st.buf = append(out, sigW{s: s, w: w})
		return len(st.buf) - 1
	}
	for _, m := range info.Mappings {
		d := int(m.Depth)
		switch sp.scheme {
		case Node:
			// A shared node signature only tells us the elements are in
			// the same group; the sound per-signature weight is the
			// element's bound against any different element.
			i := add(sp.nodeSig(m.Node), sp.res.MaxDiffSim(e, sp.metric))
			if d > deepest {
				deepest, deepestIdx = d, i
			}
		case Shallow:
			// Matching a shallow signature at depth t does not cap the
			// LCA at t (the LCA may be deeper), so t-based weights would
			// be unsound; use the different-element bound here too.
			w := sp.res.MaxDiffSim(e, sp.metric)
			lo, hi := sp.metric.ShallowRange(d, sp.delta)
			for t := lo; t <= hi; t++ {
				i := add(Sig(sp.h.Ancestor(m.Node, t)), w)
				if t == hi && d > deepest {
					deepest, deepestIdx = d, i
				}
			}
		case Deep:
			// Deep signatures cover every depth up to the node itself, so
			// for any similar pair the signature at the LCA depth is
			// shared and its weight t/d_e (×φ) bounds the pair similarity
			// (§4.2.2).
			lo := sp.metric.DeepLow(d, sp.delta)
			for t := lo; t <= d; t++ {
				i := add(Sig(sp.h.Ancestor(m.Node, t)), sp.metric.MaxSimAtDepth(t, d)*m.Phi)
				if t == d && d > deepest {
					deepest, deepestIdx = d, i
				}
			}
		}
	}
	// Identical elements in two objects match with similarity 1 and share
	// all signatures; make one signature carry that weight so the
	// weighted prefix (Definition 9) stays sound under Plus resolution
	// where φ < 1 would otherwise under-weight the self-match.
	if deepestIdx >= 0 && st.buf[deepestIdx].w < 1 {
		st.buf[deepestIdx].w = 1
	}
	return st.internSigs()
}

// Warm precomputes the signature and group-key caches for every element
// id below n not yet warmed, sharding entity elements across workers
// goroutines (their generation only reads immutable resolver/hierarchy
// state and writes exclusive cache slots); non-entity elements intern
// token signatures through a map and run sequentially afterwards.
func (sp *Space) Warm(n, workers int) {
	lo := sp.warmed
	if n <= lo {
		return
	}
	sp.warmed = n
	for len(sp.sigCache) < n {
		sp.sigCache = append(sp.sigCache, nil)
	}
	sp.growGroupCaches(n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n-lo {
		workers = n - lo
	}
	if workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Per-worker generation scratch: its arena chunks stay
				// alive through the cache slices carved from them.
				var st genState
				for i := lo + w; i < n; i += workers {
					e := elem.ID(i)
					if !sp.res.Info(e).Entity() {
						continue
					}
					if sp.sigCache[i] == nil {
						sp.sigCache[i] = sp.genSigs(&st, e)
					}
					if sp.groupCache[i] == nil {
						sp.fillGroupCaches(&st, e)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	// Sequential pass covers non-entity elements (token-signature
	// interning mutates a shared map) and anything a single worker run
	// would have handled.
	for i := lo; i < n; i++ {
		e := elem.ID(i)
		if sp.sigCache[i] == nil {
			sp.sigCache[i] = sp.genSigs(&sp.gen, e)
		}
		if sp.groupCache[i] == nil {
			sp.fillGroupCaches(&sp.gen, e)
		}
	}
}

// growGroupCaches extends the group-key cache and both columns to cover
// element ids below n.
func (sp *Space) growGroupCaches(n int) {
	for len(sp.groupCache) < n {
		sp.groupCache = append(sp.groupCache, nil)
		sp.maxDiff = append(sp.maxDiff, 0)
		sp.paths = append(sp.paths, NoPath)
	}
}

// fillGroupCaches generates e's slot of the group caches.
func (sp *Space) fillGroupCaches(st *genState, e elem.ID) {
	sp.groupCache[e] = sp.genGroupKeys(st, e)
	sp.maxDiff[e] = sp.res.MaxDiffSim(e, sp.metric)
	if ms := sp.res.Info(e).Mappings; len(ms) == 1 && !(ms[0].Phi < 1) {
		if c, ok := sp.h.PathCode(ms[0].Node); ok {
			sp.paths[e] = c | uint64(ms[0].Depth)
		}
	}
}

// GroupKeys returns the node signatures of element e regardless of the
// space's filtering scheme. These are the verification grouping keys of
// Lemmas 1, 3 and 8: elements in different groups cannot be similar.
// The result is cached and must not be modified.
func (sp *Space) GroupKeys(e elem.ID) []Sig {
	if p := sp.pub.Load(); p != nil && int(e) < len(p.keys) && p.keys[e] != nil {
		return p.keys[e]
	}
	sp.growGroupCaches(int(e) + 1)
	if sp.groupCache[e] == nil {
		sp.fillGroupCaches(&sp.gen, e)
	}
	return sp.groupCache[e]
}

// MaxDiffSims returns the dense column of Resolver.MaxDiffSim under the
// space's metric, indexed by elem.ID: the published snapshot when there
// is one, else the owner's column. Slot e is valid once e's group keys
// have been generated (Warm or GroupKeys) and, for snapshot readers,
// published — the same contract as GroupKeys. The result must not be
// modified.
func (sp *Space) MaxDiffSims() []float64 {
	if p := sp.pub.Load(); p != nil {
		return p.maxDiff
	}
	return sp.maxDiff
}

// PathCodes is MaxDiffSims for the path column: slot e is the
// hierarchy.PathCode of e's node with its depth in the low byte when e
// maps to one node with φ = 1 (Definition 1 then gives e's similarities),
// else NoPath.
func (sp *Space) PathCodes() []uint64 {
	if p := sp.pub.Load(); p != nil {
		return p.paths
	}
	return sp.paths
}

// Publish snapshots the group caches for lock-free readers. The caller
// (the cache owner) must have filled every slot it wants readers to see
// — genGroupKeys never stores nil, so a filled slot is exactly a non-nil
// one — and must establish a happens-before edge between Publish and
// those readers (the Indexer does so via its view pointer).
func (sp *Space) Publish() {
	n := len(sp.groupCache)
	sp.pub.Store(&groupCaches{keys: sp.groupCache[:n:n], maxDiff: sp.maxDiff[:n:n], paths: sp.paths[:n:n]})
}

// genGroupKeys computes the node-signature grouping keys of one element
// into st's build buffer and interns them in st's arena.
func (sp *Space) genGroupKeys(st *genState, e elem.ID) []Sig {
	info := sp.res.Info(e)
	if !info.Entity() {
		return []Sig{sp.tokenSig(info.Canon)}
	}
	st.kbuf = st.kbuf[:0]
	for _, m := range info.Mappings {
		s := sp.nodeSig(m.Node)
		dup := false
		for _, k := range st.kbuf {
			if k == s {
				dup = true
				break
			}
		}
		if !dup {
			st.kbuf = append(st.kbuf, s)
		}
	}
	return st.internKeys()
}

// ObjectSigs returns the (unsorted) signature entries of an object: the
// union of its elements' signatures, tagged with element indices. The
// same signature may appear once per generating element (the paper's G_S
// is a multiset).
func (sp *Space) ObjectSigs(elems []elem.ID) []Entry {
	n := 0
	for _, e := range elems {
		n += sp.ElemSigCount(e)
	}
	return sp.AppendObjectSigs(make([]Entry, 0, n), elems)
}

// AppendObjectSigs appends the object's signature entries to dst — the
// allocation-free form of ObjectSigs for callers that manage their own
// entry buffers or arenas.
func (sp *Space) AppendObjectSigs(dst []Entry, elems []elem.ID) []Entry {
	for i, e := range elems {
		dst = sp.appendElemSigs(dst, e, int32(i))
	}
	return dst
}

// Order is the global signature order: ascending document frequency with
// signature id as tie-break (§3.1 "fix a global order for the node
// signatures ... by document frequency in an ascending order"). The df
// table is dense (indexed by Sig); ids beyond it have frequency zero.
type Order struct {
	df []int32
	// key is the order as one dense column, so that sorting compares
	// integers: a signature of df zero keeps its id (ids beyond the table
	// do too), one of positive df gets 1<<31 plus its position among
	// those, by (df, id). Ids are below 1<<31, so keys order signatures
	// exactly as (df, id) does.
	key []uint32
}

// newOrder ranks a dense df table: a counting sort by df, in id order
// within one df.
func newOrder(df []int32) *Order {
	var next []uint32 // next[d]: the position of the next signature of df d
	for _, d := range df {
		for int(d) >= len(next) {
			next = append(next, 0)
		}
		next[d]++
	}
	pos := uint32(1 << 31)
	for d := 1; d < len(next); d++ {
		next[d], pos = pos, pos+next[d]
	}
	key := make([]uint32, len(df))
	for s, d := range df {
		if key[s] = uint32(s); d > 0 {
			key[s] = next[d]
			next[d]++
		}
	}
	return &Order{df: df, key: key}
}

// BuildOrder counts, for every signature, the number of objects whose
// signature set contains it (each object counts once per signature), over
// all the given objects — for an R-S join pass both collections. The
// count runs over a stamp table instead of per-object maps, so building
// the order costs a fixed number of allocations regardless of collection
// size.
func BuildOrder(objects [][]Entry) *Order {
	maxSig := Sig(-1)
	for _, entries := range objects {
		for _, en := range entries {
			if en.Sig > maxSig {
				maxSig = en.Sig
			}
		}
	}
	df := make([]int32, maxSig+1)
	seen := make([]int32, maxSig+1)
	for oi, entries := range objects {
		stamp := int32(oi + 1)
		for _, en := range entries {
			if seen[en.Sig] != stamp {
				seen[en.Sig] = stamp
				df[en.Sig]++
			}
		}
	}
	return newOrder(df)
}

// DFCounter builds the same order as BuildOrder straight from element
// lists: it walks the space's per-element signature cache, so no entry
// list is ever materialised. Its tables are sized by NumSigs when it is
// created, so every element it will see must have been warmed first.
type DFCounter struct {
	sp       *Space
	df, seen []int32
	stamp    int32
}

// NewDFCounter returns an empty counter over the space's signatures.
func (sp *Space) NewDFCounter() *DFCounter {
	return &DFCounter{sp: sp, df: make([]int32, sp.NumSigs()), seen: make([]int32, sp.NumSigs())}
}

// Add counts one object and returns the number of signature entries it
// has (the length ObjectSigs would return for it).
func (c *DFCounter) Add(elems []elem.ID) int {
	c.stamp++
	n := 0
	for _, e := range elems {
		sigs := c.sp.elemSigs(e)
		n += len(sigs)
		for _, sw := range sigs {
			if c.seen[sw.s] != c.stamp {
				c.seen[sw.s] = c.stamp
				c.df[sw.s]++
			}
		}
	}
	return n
}

// Order returns the order over the objects added so far.
func (c *DFCounter) Order() *Order { return newOrder(c.df) }

// sortKey returns the position of s in the order (its id beyond the
// built range — signatures first seen after BuildOrder, or an empty
// order).
func (o *Order) sortKey(s Sig) uint32 {
	if int(s) < len(o.key) {
		return o.key[s]
	}
	return uint32(s)
}

// Less reports whether signature a precedes b in the global order.
func (o *Order) Less(a, b Sig) bool { return o.sortKey(a) < o.sortKey(b) }

// Sort sorts entries by the global order (rarest signatures first).
// Entries of the same signature stay adjacent; ties break on element
// index for determinism. It allocates its workspace; loops use SortS.
func (o *Order) Sort(entries []Entry) {
	ps := PrefixScratch{words: make([]uint64, 0, len(entries)), moved: make([]Entry, 0, len(entries))}
	o.SortS(entries, &ps)
}

// SortS is Sort over a caller-owned scratch. It sorts one word per entry
// — the signature's key above the entry's position — and then moves the
// entries. Entry lists are generated element by element (and are put in
// that order if not), so among entries of one signature position order
// is element order; the (Sig, Elem) pairs of an object are unique, so
// the order is total.
func (o *Order) SortS(entries []Entry, ps *PrefixScratch) {
	ps.words = ps.words[:0]
	inOrder := true
	for i, e := range entries {
		inOrder = inOrder && (i == 0 || entries[i-1].Elem <= e.Elem)
		ps.words = append(ps.words, uint64(o.sortKey(e.Sig))<<32|uint64(i))
	}
	if !inOrder {
		slices.SortFunc(entries, func(a, b Entry) int { return int(a.Elem - b.Elem) })
		o.SortS(entries, ps)
		return
	}
	ps.moved = append(ps.moved[:0], entries...)
	slices.Sort(ps.words)
	for i, w := range ps.words {
		entries[i] = ps.moved[uint32(w)]
	}
}

// DF returns the document frequency of s under the order.
func (o *Order) DF(s Sig) int {
	if int(s) < len(o.df) {
		return int(o.df[s])
	}
	return 0
}

// DistElePrefix returns the prefix length p of entries (sorted by the
// global order) such that entries[:p] is the (node or path) prefix of
// Definitions 5/8: the suffix beyond the prefix covers at most τ_S − 1
// distinct elements, and shrinking the prefix further would let the
// suffix cover τ_S. If the object has fewer than τ_S distinct elements,
// the whole list is the prefix.
func DistElePrefix(entries []Entry, tauS int) int {
	var ps PrefixScratch
	return DistElePrefixS(entries, tauS, &ps)
}

// DistElePrefixS is DistElePrefix over a caller-owned scratch — the
// allocation-free form for prefix-building loops.
func DistElePrefixS(entries []Entry, tauS int, ps *PrefixScratch) int {
	if tauS <= 0 {
		return 0
	}
	ps.next()
	distinct := 0
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i].Elem
		ps.grow(int(e) + 1)
		if ps.seen[e] != ps.stamp {
			ps.seen[e] = ps.stamp
			distinct++
			if distinct == tauS {
				return i + 1
			}
		}
	}
	return len(entries)
}

// WeightedPrefix returns the prefix length p of entries (sorted by the
// global order) per Definition 9: the suffix beyond the prefix has
// MSIM < minOverlap, where MSIM sums, per distinct element, the maximum
// signature weight in the suffix. minOverlap is τ·|S| for Jaccard
// (setmetric.Kind.MinOverlap in general).
func WeightedPrefix(entries []Entry, minOverlap float64) int {
	var ps PrefixScratch
	return WeightedPrefixS(entries, minOverlap, &ps)
}

// WeightedPrefixS is WeightedPrefix over a caller-owned scratch — the
// allocation-free form for prefix-building loops.
func WeightedPrefixS(entries []Entry, minOverlap float64, ps *PrefixScratch) int {
	if minOverlap <= 0 {
		return 0
	}
	ps.next()
	msim := 0.0
	for i := len(entries) - 1; i >= 0; i-- {
		en := entries[i]
		ps.grow(int(en.Elem) + 1)
		w := 0.0
		if ps.seen[en.Elem] == ps.stamp {
			w = ps.best[en.Elem]
		}
		if en.W > w {
			msim += en.W - w
			ps.seen[en.Elem] = ps.stamp
			ps.best[en.Elem] = en.W
		}
		if mathx.GE(msim, minOverlap) {
			return i + 1
		}
	}
	return len(entries)
}

// PrefixScratch is the reusable state of prefix building: for the
// prefix-length computations an epoch-stamped dense table keyed by
// element index within the object (bumping the stamp invalidates the
// whole table; a slot is live only when its stamp matches, reproducing
// the seed's per-call map semantics), and SortS's sort words and copy of
// the entries.
type PrefixScratch struct {
	stamp int32
	seen  []int32
	best  []float64
	words []uint64
	moved []Entry
}

// next starts a new stamp epoch. A scratch can outlive 2^31 prefix
// cuts, so at MaxInt32 the table is cleared and the stamp restarts
// rather than wrap onto values stale slots still hold.
func (ps *PrefixScratch) next() {
	if ps.stamp == math.MaxInt32 {
		clear(ps.seen)
		ps.stamp = 0
	}
	ps.stamp++
}

func (ps *PrefixScratch) grow(n int) {
	if n <= len(ps.seen) {
		return
	}
	if n < 2*len(ps.seen) {
		n = 2 * len(ps.seen)
	}
	ns := make([]int32, n)
	copy(ns, ps.seen)
	ps.seen = ns
	nb := make([]float64, n)
	copy(nb, ps.best)
	ps.best = nb
}
