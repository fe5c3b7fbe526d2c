// Per-worker scratch state for the verification hot path. The seed
// implementation built three maps per candidate pair in groups() and four
// more per group in groupWeightedUB(); at millions of candidates the
// allocator dominated wall clock. A Scratch replaces every per-pair map
// with an epoch-stamped dense table: a flat array indexed by elem.ID or
// sig.Sig plus a parallel epoch array. Bumping the epoch invalidates the
// whole table in O(1) — no clearing, no rehashing — and a slot is live
// only when its stamp equals the current epoch, which reproduces map
// "missing key reads as zero" semantics exactly. The probe tables, which
// outlive a pair, are cleared slot by slot per load instead. Path codes
// give similarities in O(1) (Context.sim); the only ones cached are each
// candidate element's best edge to the armed probe (probeTables.colMax).
package verify

import (
	"math/bits"

	"kjoin/internal/elem"
	"kjoin/internal/matching"
	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
)

// denseTable is the storage of both table kinds: a value and an epoch
// stamp per key, grown by doubling to the keys it meets.
type denseTable struct {
	epoch []uint64
	val   []int32
}

func (t *denseTable) grow(n int) {
	if n <= len(t.epoch) {
		return
	}
	n = max(n, 2*len(t.epoch))
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

// probeTables is a probe's side of Lemmas 3 and 4 and rung 2b: per group
// key its count and Σ MaxDiffSim, via a dense slot index, a mark and a
// path code per element, and each candidate element's column maximum.
// The dense columns grow only to the ids they meet, never read what
// another goroutine grows, and the next load clears just the slots set.
type probeTables struct {
	of     *Prepared  // the armed probe (Context.Arm), if any
	slot   []int32    // slot[k]: 1 + k's index in keys; 0: not a probe key
	keys   []probeKey // the probe's distinct keys
	n      int        // len(Keys) of the probe
	marks  []bool     // marks[e]: e is a probe element
	marked []elem.ID  // the marks set: the probe's ByKey
	codes  []uint64   // codes[i]: the path code of marked[i], or NoPath
	col    []float64  // col[e]: colMax of e under this probe; < 0: not yet
	cols   []elem.ID  // the col slots set
}

type probeKey struct {
	key      sig.Sig
	cnt, end int32 // the key's run in the probe's Keys ends at end
	md       float64
}

// load fills the tables from p, and from p's key-ordered column (a set of
// single-key elements: a mark per element is all Lemma 4 needs of them)
// the weights, marks and path codes. It disarms.
func (t *probeTables) load(md []float64, codes []uint64, p *Prepared) {
	t.of = nil
	for _, pk := range t.keys {
		t.slot[pk.key] = 0
	}
	for _, e := range t.marked {
		t.marks[e] = false
	}
	for _, e := range t.cols {
		t.col[e] = -1
	}
	t.keys, t.n, t.marked = t.keys[:0], len(p.Keys), append(t.marked[:0], p.ByKey...)
	t.cols, t.codes = t.cols[:0], t.codes[:0]
	for _, e := range p.ByKey {
		t.codes = append(t.codes, pathCode(codes, e))
	}
	if n := len(p.Keys); n > 0 && int(p.Keys[n-1]) >= len(t.slot) {
		t.slot = append(t.slot, make([]int32, int(p.Keys[n-1])+1-len(t.slot))...)
	}
	for i, k := range p.Keys {
		if i == 0 || k != p.Keys[i-1] { // Keys is sorted: a new key
			t.keys = append(t.keys, probeKey{key: k})
			t.slot[k] = int32(len(t.keys))
		}
		pk := &t.keys[len(t.keys)-1]
		pk.cnt, pk.end = pk.cnt+1, int32(i+1)
		if p.ByKey != nil {
			pk.md += md[p.ByKey[i]]
		}
	}
	for _, e := range p.ByKey {
		if n := int(e) + 1; n > len(t.marks) {
			t.marks = append(t.marks, make([]bool, n-len(t.marks))...)
		}
		t.marks[e] = true
	}
}

// key returns the probe's entry for k, or nil when the probe has no k.
func (t *probeTables) key(k sig.Sig) *probeKey {
	if int(k) < len(t.slot) && t.slot[k] > 0 {
		return &t.keys[t.slot[k]-1]
	}
	return nil
}

// holds reports whether e is an element of the probe.
func (t *probeTables) holds(e elem.ID) bool {
	return int(e) < len(t.marks) && t.marks[e]
}

// colMax is e's largest δ-thresholded similarity (appendEdges's edge
// weight, 0 for none) to the probe's elements under pk, e's one key: the
// largest similarity thresholded, computed on e's first visit per load.
func (t *probeTables) colMax(c *Context, codes []uint64, e elem.ID, pk *probeKey) float64 {
	for len(t.col) <= int(e) {
		t.col = append(t.col, -1)
	}
	if v := t.col[e]; v >= 0 {
		return v
	}
	ce, m, sims := pathCode(codes, e), 0.0, &pathSims[c.metricIndex()]
	for i := pk.end - pk.cnt; i < pk.end; i++ {
		w, cp := 0.0, t.codes[i]
		if ce == sig.NoPath || cp == sig.NoPath {
			w = c.sim(codes, e, t.marked[i])
		} else {
			da, db := ce&0xff, cp&0xff
			w = sims[min(uint64(bits.LeadingZeros64(ce^cp)/8), da, db)][da][db]
		}
		if w > m {
			m = w
		}
	}
	if !mathx.GE(m, c.Delta) {
		m = 0
	}
	t.col[e] = m
	t.cols = append(t.cols, e)
	return m
}

// gb is one active group of the adaptive verifier: its index into the
// group list, its edge range in the scratch edge arena, and its B^u.
type gb struct {
	gi         int32
	start, end int32
	up         float64
}

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
	// once that is known. wruns/wterms are the start of each shared key's
	// run in the walked Keys and its Lemma 4 term (weightedBound).
	loose  []float64
	wruns  []int32
	wterms []float64

	// Edge arena: groups hold [start, end) ranges into this flat slice
	// so growth never invalidates another group's edges.
	edges []matching.Edge

	// Adaptive verifier state.
	act    []gb
	solver matching.Solver
	// colRuns counts runs of rung 2b (tests pin the ladder's laziness
	// with it).
	colRuns int64

	// held is the exact overlap of the pair (x, y) the last
	// VerifyPrepared accepted, for Context.Score; x == nil: none.
	held struct {
		x, y    *Prepared
		overlap float64
	}

	probe probeTables

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
