// Per-worker scratch state for the verification hot path. The seed
// implementation built three maps per candidate pair in groups() and four
// more per group in groupWeightedUB(); at millions of candidates the
// allocator dominated wall clock. A Scratch replaces every per-pair map
// with an epoch-stamped dense table: a flat array indexed by elem.ID or
// sig.Sig plus a parallel epoch array. Bumping the epoch invalidates the
// whole table in O(1) — no clearing, no rehashing — and a slot is live
// only when its stamp equals the current epoch, which reproduces map
// "missing key reads as zero" semantics exactly.
package verify

import (
	"math/bits"
	"sort"

	"kjoin/internal/elem"
	"kjoin/internal/matching"
	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
)

// denseTable is the storage of both table kinds: a value and an epoch
// stamp per key. It grows by doubling, but never to less than floor —
// the key range a caller that knows it has reserved (Scratch.reserve) —
// so a reserved table is allocated once, and only if it is ever touched.
type denseTable struct {
	epoch []uint64
	val   []int32
	floor int
}

func (t *denseTable) grow(n int) {
	if n <= len(t.epoch) {
		return
	}
	n = max(n, 2*len(t.epoch), t.floor)
	ne := make([]uint64, n)
	copy(ne, t.epoch)
	t.epoch = ne
	nv := make([]int32, n)
	copy(nv, t.val)
	t.val = nv
}

// sigTable is an epoch-stamped dense map from sig.Sig to int32 with
// presence semantics (lookup reports whether the key was set this epoch).
type sigTable struct{ denseTable }

func (t *sigTable) lookup(s sig.Sig, ep uint64) (int32, bool) {
	if int(s) >= len(t.epoch) || t.epoch[s] != ep {
		return 0, false
	}
	return t.val[s], true
}

func (t *sigTable) set(s sig.Sig, v int32, ep uint64) {
	t.grow(int(s) + 1)
	t.epoch[s] = ep
	t.val[s] = v
}

// elemTable is an epoch-stamped dense map from elem.ID to int32 where a
// missing key reads as zero (multiset-counter semantics).
type elemTable struct{ denseTable }

func (t *elemTable) get(e elem.ID, ep uint64) int32 {
	if int(e) >= len(t.epoch) || t.epoch[e] != ep {
		return 0
	}
	return t.val[e]
}

// incr adds one to the counter for e and returns the new value.
func (t *elemTable) incr(e elem.ID, ep uint64) int32 {
	t.grow(int(e) + 1)
	if t.epoch[e] != ep {
		t.epoch[e] = ep
		t.val[e] = 0
	}
	t.val[e]++
	return t.val[e]
}

// simCacheMinBits/simCacheMaxBits bound the element-pair similarity
// cache: it starts at 1<<simCacheMinBits slots (16 KiB of keys+values)
// and doubles as it fills, up to 1<<simCacheMaxBits (~512 KiB per
// worker) — so a one-shot Similarity call pays for a small cache while
// a long join grows to the full size. A reserved scratch starts at eight
// or more slots per element of its collection (within the same bounds).
const (
	simCacheMinBits = 10
	simCacheMaxBits = 15
)

// simCacheProbes is the linear-probe window before evicting.
const simCacheProbes = 4

// simCache is a bounded cache of element-pair similarities keyed by the
// packed (min ID, max ID) pair. The Resolver's Sim runs a
// mappings×mappings LCA loop per call; distinct element pairs recur
// across many candidate pairs, so caching turns that loop into a single
// probe. Eviction overwrites the home slot (deterministic), growth drops
// the contents (it is a cache), and a hit returns exactly the value Sim
// computed, so results are unaffected by cache policy. Key 0 marks an
// empty slot; packed keys are never 0 because the max ID occupies the
// low word and exceeds the min ID. Allocation is lazy (first put) and
// growth stops at the cap, so the steady state performs none.
type simCache struct {
	keys  []uint64
	vals  []float64
	shift uint // 64 - log2(len(keys))
	fills int  // occupied slots since last resize
	bits  uint // log2 of the first allocation; 0 selects simCacheMinBits
}

func (sc *simCache) slot(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> sc.shift
}

func (sc *simCache) get(key uint64) (float64, bool) {
	if sc.keys == nil {
		return 0, false
	}
	mask := uint64(len(sc.keys) - 1)
	h := sc.slot(key)
	for i := uint64(0); i < simCacheProbes; i++ {
		j := (h + i) & mask
		if sc.keys[j] == key {
			return sc.vals[j], true
		}
		if sc.keys[j] == 0 {
			return 0, false
		}
	}
	return 0, false
}

func (sc *simCache) put(key uint64, v float64) {
	if sc.keys == nil {
		b := max(sc.bits, simCacheMinBits)
		sc.keys = make([]uint64, 1<<b)
		sc.vals = make([]float64, 1<<b)
		sc.shift = 64 - b
	} else if sc.fills > len(sc.keys)/2 && len(sc.keys) < 1<<simCacheMaxBits {
		sc.keys = make([]uint64, 2*len(sc.keys))
		sc.vals = make([]float64, len(sc.vals)*2)
		sc.shift--
		sc.fills = 0
	}
	mask := uint64(len(sc.keys) - 1)
	h := sc.slot(key)
	for i := uint64(0); i < simCacheProbes; i++ {
		j := (h + i) & mask
		if sc.keys[j] == 0 || sc.keys[j] == key {
			if sc.keys[j] == 0 {
				sc.fills++
			}
			sc.keys[j] = key
			sc.vals[j] = v
			return
		}
	}
	sc.keys[h&mask] = key // window full: evict the home slot
	sc.vals[h&mask] = v
}

// gb is one active group of the adaptive verifier: its index into the
// group list, its edge range in the scratch edge arena, and its bounds.
type gb struct {
	gi         int32
	start, end int32
	lo, up     float64
}

// gbSorter orders active groups loosest-first (§5.2.3: largest B^u − B^l
// gap). Addressed through the Scratch pointer so sort.Sort's interface
// conversion does not allocate.
type gbSorter struct {
	act []gb
}

func (s *gbSorter) Len() int           { return len(s.act) }
func (s *gbSorter) Less(i, j int) bool { return s.act[i].up-s.act[i].lo > s.act[j].up-s.act[j].lo }
func (s *gbSorter) Swap(i, j int)      { s.act[i], s.act[j] = s.act[j], s.act[i] }

// sortGBs sorts the active groups in place. The sorter is addressed
// through a pointer that already lives on the heap (inside Scratch), so
// this performs no interface-conversion allocation.
func sortGBs(s *gbSorter) { sort.Sort(s) }

// Scratch is the per-worker workspace of the verification hot path.
// All buffers grow monotonically toward the workload's steady-state
// sizes; after warm-up, verifying a candidate pair performs zero heap
// allocations. A Scratch (and therefore the Context holding it) is NOT
// safe for concurrent use — every worker goroutine needs its own, via
// Context.Clone.
type Scratch struct {
	// epoch is the current table generation. Bumping it invalidates
	// every epoch-stamped table at once; tables stamped in earlier
	// phases of the same logical operation share one epoch value.
	epoch uint64

	// groups() state: union-find parents and group indices keyed by
	// node signature, the insertion-ordered root list, and two group
	// buffer sets (build output and merge output — the merge step
	// appends element lists across groups, so it needs distinct
	// backing arrays).
	parent  sigTable
	gidx    sigTable
	merged  sigTable
	roots   []sig.Sig
	groups  []group
	mgroups []group

	// groupWeightedUB() multiset counters keyed by element.
	cnt    elemTable
	used   elemTable
	takenX elemTable
	takenY elemTable

	// loose is the ladder's per-group upper bound of the current pair,
	// parallel to the group list: a group's count, then its Lemma 4 term
	// once that is known. wkeys/wterms are the pair's shared keys and
	// their Lemma 4 terms as the merge walk (weightedBound) met them.
	loose  []float64
	wkeys  []sig.Sig
	wterms []float64

	// Edge arena: groups hold [start, end) ranges into this flat slice
	// so growth never invalidates another group's edges.
	edges []matching.Edge

	// Adaptive verifier state.
	act    gbSorter
	solver matching.Solver
	// lbEvals counts lower-bound evaluations (tests pin the ladder's
	// laziness with it).
	lbEvals int64

	sims simCache

	// need memoises the overlap the last verified pair had to reach and
	// its ceiling, keyed by everything they are computed from: a join
	// meets candidates in runs of equal sizes.
	need struct {
		set    setmetric.Kind
		tau    float64
		nx, ny int
		val    float64
		ceil   int
	}
}

// NewScratch returns an empty scratch workspace.
func NewScratch() *Scratch {
	return &Scratch{}
}

// reserve records the key ranges of the scratch's tables (see
// Context.Reserve).
func (s *Scratch) reserve(nElems, nSigs int) {
	for _, t := range []*sigTable{&s.parent, &s.gidx, &s.merged} {
		t.floor = nSigs
	}
	for _, t := range []*elemTable{&s.cnt, &s.used, &s.takenX, &s.takenY} {
		t.floor = nElems
	}
	s.sims.bits = uint(min(bits.Len(uint(8*nElems)), simCacheMaxBits))
}

// pairNeed returns c.Set.PairOverlap(c.Tau, nx, ny) and its robust
// ceiling. The zero memo is right as it stands: no overlap is needed at
// τ = 0.
func (s *Scratch) pairNeed(c *Context, nx, ny int) (float64, int) {
	if m := &s.need; m.nx != nx || m.ny != ny || mathx.Cmp(m.tau, c.Tau) != 0 || m.set != c.Set {
		m.set, m.tau, m.nx, m.ny = c.Set, c.Tau, nx, ny
		m.val = c.Set.PairOverlap(c.Tau, nx, ny)
		m.ceil = mathx.CeilInt(m.val)
	}
	return s.need.val, s.need.ceil
}

// find is the union-find lookup of groups(): path-halving iterative
// find over the epoch-stamped parent table. A signature missing from
// the table this epoch is its own parent (the seed's lazy insert).
func (s *Scratch) find(x sig.Sig) sig.Sig {
	ep := s.epoch
	r := x
	for {
		p, ok := s.parent.lookup(r, ep)
		if !ok {
			s.parent.set(r, int32(r), ep)
			break
		}
		if sig.Sig(p) == r {
			break
		}
		r = sig.Sig(p)
	}
	// Path compression: point every node on the walk at the root.
	for x != r {
		p, _ := s.parent.lookup(x, ep)
		s.parent.set(x, int32(r), ep)
		x = sig.Sig(p)
	}
	return r
}

// union merges the classes of a and b (a's root under b's, the seed's
// orientation — root identity is part of the deterministic output
// order).
func (s *Scratch) union(a, b sig.Sig) {
	ra, rb := s.find(a), s.find(b)
	if ra != rb {
		s.parent.set(ra, int32(rb), s.epoch)
	}
}

// appendGroup extends gs by one empty group, reusing the element
// buffers of a previously built group when the slice shrinks and
// regrows across pairs.
func appendGroup(gs []group) []group {
	if len(gs) < cap(gs) {
		gs = gs[:len(gs)+1]
		g := &gs[len(gs)-1]
		g.xe = g.xe[:0]
		g.ye = g.ye[:0]
		return gs
	}
	return append(gs, group{})
}
