// Package elem resolves object elements (tokens) against the knowledge
// hierarchy and computes the knowledge-aware element similarity of paper
// §2.1.1: Definition 1 for single-node mappings (K-Join), Equation 2 for
// multi-node mappings with synonyms and typo tolerance (K-Join+), and the
// Wu & Palmer variant of §6.2.
package elem

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"kjoin/internal/hierarchy"
	"kjoin/internal/mathx"
	"kjoin/internal/strutil"
	"kjoin/internal/synonym"
)

// ID is an interned element (distinct lowercase token) within a Resolver.
type ID int32

// Mapping is one hierarchy node an element maps to, with the mapping
// quality φ(e, e') of Equation 2: 1 for exact or synonym matches, the
// normalized edit similarity for approximate (typo-tolerant) matches.
type Mapping struct {
	Node  hierarchy.NodeID
	Depth int32
	Phi   float64
}

// Info is the resolved state of one element.
type Info struct {
	Token    string    // lowercase token
	Canon    string    // canonical synonym representative (== Token without synonyms)
	Mappings []Mapping // hierarchy nodes the element maps to; empty for non-entity tokens
	MaxDepth int       // maximum mapped node depth; 0 for non-entity tokens
	HasSyns  bool      // the token belongs to a synonym group with >1 member
}

// Entity reports whether the element maps to at least one hierarchy node.
func (in *Info) Entity() bool { return len(in.Mappings) > 0 }

// Options configures a Resolver.
type Options struct {
	// Plus enables K-Join+ resolution (§6.4): an element maps to every
	// node with its name, to nodes named by its synonyms (φ=1), and to
	// nodes within edit-similarity PhiMin (φ = edit similarity). When
	// false, an element maps to at most one node by exact name.
	Plus bool
	// PhiMin is the minimum φ for approximate node matching; Equation 2
	// multiplies φ into the similarity, so φ < δ can never produce a
	// similar pair and δ is a lower bound on useful settings. Small
	// PhiMin values make every token match large swaths of the
	// hierarchy; realistic typo tolerance uses PhiMin ≈ 0.8.
	PhiMin float64
	// MaxMappings caps the nodes an element may map to (0 = unlimited).
	// The best-φ mappings are kept. The cap defines the element
	// similarity consistently across resolution, filtering and
	// verification.
	MaxMappings int
	// Synonyms is the optional synonym dictionary (used only when Plus).
	Synonyms *synonym.Dict
}

// Resolver interns element tokens and resolves them against a hierarchy.
//
// Resolution (ID) mutates internal state and is not safe for concurrent
// use; reads (Info, Sim) are safe to share across goroutines once all
// tokens have been resolved. The K-Join driver resolves every token in a
// sequential preprocessing pass for exactly this reason.
//
// The streaming Indexer cannot wait for "all tokens resolved" — adds keep
// interning forever while queries read concurrently. For that shape a
// single writer calls Publish after each batch of interning+resolution:
// reads of published ids then go through an atomic snapshot of the info
// table and never touch the mutable tail.
type Resolver struct {
	h    *hierarchy.Hierarchy
	opts Options

	ids      map[string]ID
	infos    []Info
	resolved []bool
	// ResolveAll starts at resolvedBelow: every id below it is resolved.
	resolvedBelow int

	// pub is the atomically published resolved prefix of infos: Info (and
	// through it Sim and MaxDiffSim) serves ids below the published length
	// from this immutable snapshot, so readers in other goroutines never
	// race the writer's interning appends. Nil until the first Publish —
	// the batch-join path never publishes and keeps its single-writer
	// contract instead.
	pub atomic.Pointer[[]Info]

	// rs is the mapping scratch of the lazy (single-threaded) resolution
	// path; ResolveAll workers carry their own.
	rs resolveScratch

	// nameIdx maps lowercase node names to nodes (tokens are lowercased,
	// hierarchy names may be CamelCase). names lists the distinct
	// lowercase names for approximate matching with a length filter.
	nameIdx map[string][]hierarchy.NodeID
	names   []string

	// Approximate-matching index: bigram → indices into names, plus the
	// name indices bucketed by length. A name within edit distance k of
	// a token shares a bigram whenever max(len) − 1 − 2k ≥ 1 (q-gram
	// count filtering); length classes where that bound fails are scanned
	// exhaustively.
	grams map[string][]int32
	byLen [][]int32
}

// NewResolver returns a resolver over h with the given options.
func NewResolver(h *hierarchy.Hierarchy, opts Options) *Resolver {
	names := h.Names()
	r := &Resolver{h: h, opts: opts, ids: make(map[string]ID), nameIdx: make(map[string][]hierarchy.NodeID, len(names))}
	for _, name := range names {
		ln := strings.ToLower(name)
		r.nameIdx[ln] = append(r.nameIdx[ln], h.Lookup(name)...)
	}
	if opts.Plus && opts.PhiMin < 1 {
		r.names = make([]string, 0, len(r.nameIdx))
		for ln := range r.nameIdx {
			r.names = append(r.names, ln)
		}
		sort.Strings(r.names)
		r.grams = make(map[string][]int32)
		for i, n := range r.names {
			for _, g := range strutil.QGrams(n, 2) {
				r.grams[g] = append(r.grams[g], int32(i))
			}
			for len(r.byLen) <= len(n) {
				r.byLen = append(r.byLen, nil)
			}
			r.byLen[len(n)] = append(r.byLen[len(n)], int32(i))
		}
	}
	return r
}

// lookup returns the nodes whose lowercase name equals the lowercase
// token t.
func (r *Resolver) lookup(t string) []hierarchy.NodeID { return r.nameIdx[t] }

// Hierarchy returns the hierarchy the resolver operates on.
func (r *Resolver) Hierarchy() *hierarchy.Hierarchy { return r.h }

// Options returns the resolver's options.
func (r *Resolver) Options() Options { return r.opts }

// Len returns the number of interned elements.
func (r *Resolver) Len() int { return len(r.infos) }

// ID interns token (lowercased); resolution against the hierarchy is
// lazy — it happens on first Info/Sim access, or in bulk (and in
// parallel) via ResolveAll.
func (r *Resolver) ID(token string) ID {
	t := strings.ToLower(token)
	if id, ok := r.ids[t]; ok {
		return id
	}
	t = strings.Clone(t) // its own copy: t may slice a longer line or log record
	id := ID(len(r.infos))
	r.ids[t] = id
	r.infos = append(r.infos, Info{Token: t, Canon: t})
	r.resolved = append(r.resolved, false)
	return id
}

// Info returns the resolved information for id, resolving lazily. The
// result must not be modified.
//
// Ids covered by a Publish snapshot are served from it, making Info (and
// Sim/MaxDiffSim) safe to call concurrently with the writer for any id
// published before the caller learned of it. Unpublished ids fall back to
// the lazy single-writer path.
func (r *Resolver) Info(id ID) *Info {
	if p := r.pub.Load(); p != nil && int(id) < len(*p) {
		return &(*p)[id]
	}
	if !r.resolved[id] {
		r.infos[id] = r.resolve(&r.rs, r.infos[id].Token)
		r.resolved[id] = true
	}
	return &r.infos[id]
}

// Publish atomically snapshots the current info table for concurrent
// readers. Every interned id must already be resolved — the caller (the
// streaming Indexer's preprocessing, which resolves everything it
// interns) guarantees it; published slots are never written again, so
// the snapshot stays valid even as the writer keeps appending.
func (r *Resolver) Publish() {
	s := r.infos[:len(r.infos):len(r.infos)]
	r.pub.Store(&s)
}

// ResolveAll resolves every interned token that is still unresolved,
// sharding the work across workers goroutines (0 = GOMAXPROCS). Each
// worker writes only its own infos slots and reads only immutable
// resolver state, so this is safe despite Resolver being otherwise
// single-threaded. Resolution — in K-Join+ mode the typo-tolerant scan
// over hierarchy names — dominates preprocessing, so this is the main
// parallel lever of the preprocessing phase.
func (r *Resolver) ResolveAll(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lo, n := r.resolvedBelow, len(r.infos)
	r.resolvedBelow = n
	if workers > n-lo {
		workers = n - lo
	}
	if workers <= 1 {
		for i := lo; i < n; i++ {
			r.Info(ID(i))
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker mapping scratch: arena chunks stay referenced by
			// the Mappings they back, so dropping the scratch is safe.
			var rs resolveScratch
			for i := lo + w; i < n; i += workers {
				if !r.resolved[i] {
					r.infos[i] = r.resolve(&rs, r.infos[i].Token)
					r.resolved[i] = true
				}
			}
		}(w)
	}
	wg.Wait()
}

// resolveScratch is per-goroutine resolution state: the mapping build
// buffer (reused across elements) and the arena the retained Mappings
// slices are carved from. Arena chunks are never regrown in place — a
// full chunk is replaced by a fresh one, and earlier slices keep the old
// chunk alive — so cached Mappings stay valid forever.
type resolveScratch struct {
	buf   []Mapping
	arena []Mapping
}

// intern copies the build buffer into the arena and returns the carved
// slice (nil for an empty buffer: non-entity tokens keep nil Mappings).
func (rs *resolveScratch) intern() []Mapping {
	if len(rs.buf) == 0 {
		return nil
	}
	if len(rs.arena)+len(rs.buf) > cap(rs.arena) {
		n := 2 * cap(rs.arena)
		if n < 256 {
			n = 256
		}
		if n < len(rs.buf) {
			n = len(rs.buf)
		}
		rs.arena = make([]Mapping, 0, n)
	}
	start := len(rs.arena)
	rs.arena = append(rs.arena, rs.buf...)
	return rs.arena[start:len(rs.arena):len(rs.arena)]
}

// resolve computes the Info for a lowercase token, building the mapping
// list in rs.
func (r *Resolver) resolve(rs *resolveScratch, t string) Info {
	info := Info{Token: t, Canon: t}
	rs.buf = rs.buf[:0]
	add := func(n hierarchy.NodeID, phi float64) {
		for i := range rs.buf {
			if rs.buf[i].Node == n {
				if phi > rs.buf[i].Phi {
					rs.buf[i].Phi = phi
				}
				return
			}
		}
		rs.buf = append(rs.buf, Mapping{Node: n, Depth: int32(r.h.Depth(n)), Phi: phi})
	}
	if !r.opts.Plus {
		// Plain K-Join: a single node by exact name (paper §2.1.1
		// "we assume that each element matches a single node").
		if ns := r.lookup(t); len(ns) > 0 {
			add(ns[0], 1)
		}
	} else {
		for _, n := range r.lookup(t) {
			add(n, 1)
		}
		if d := r.opts.Synonyms; d != nil {
			info.Canon = d.Canonical(t)
			syns := d.Expand(t)
			info.HasSyns = len(syns) > 1
			for _, s := range syns {
				if s == t {
					continue
				}
				for _, n := range r.lookup(s) {
					add(n, 1)
				}
			}
		}
		if r.opts.PhiMin < 1 && r.opts.PhiMin > 0 {
			r.approxMatch(t, add)
		}
	}
	if max := r.opts.MaxMappings; max > 0 && len(rs.buf) > max {
		// slices.SortFunc over a total order (Node breaks every tie):
		// same permutation as any comparison sort, no reflection and no
		// per-call allocation.
		slices.SortFunc(rs.buf, func(a, b Mapping) int {
			if c := mathx.Cmp(a.Phi, b.Phi); c != 0 {
				return -c
			}
			if a.Depth != b.Depth {
				return int(b.Depth - a.Depth)
			}
			return int(a.Node - b.Node)
		})
		rs.buf = rs.buf[:max]
	}
	info.Mappings = rs.intern()
	for _, m := range info.Mappings {
		if int(m.Depth) > info.MaxDepth {
			info.MaxDepth = int(m.Depth)
		}
	}
	return info
}

// approxMatch finds nodes whose name is within edit similarity PhiMin of
// t and adds them with φ = the edit similarity (Eq. 2 typo tolerance,
// "PizzaHut" vs "PizzaHat"). Candidates come from the bigram index —
// sound whenever the q-gram count bound max(len) − 1 − 2k ≥ 1 holds —
// with an exhaustive fallback for the length classes where it does not.
// Only per-call state is mutated, so concurrent resolution (ResolveAll)
// can call this from several goroutines.
func (r *Resolver) approxMatch(t string, add func(hierarchy.NodeID, float64)) {
	phi := r.opts.PhiMin
	seen := make(map[int32]bool)
	consider := func(i int32) {
		if seen[i] {
			return
		}
		seen[i] = true
		ln := r.names[i]
		if ln == t {
			return // exact matches handled by the caller
		}
		max := len(ln)
		if len(t) > max {
			max = len(t)
		}
		if max == 0 {
			return
		}
		// Length filter: the length difference alone exceeds the budget.
		diff := len(ln) - len(t)
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > (1-phi)*float64(max) {
			return
		}
		if sim, ok := strutil.EditSimAtLeast(t, ln, phi); ok && sim >= phi {
			for _, n := range r.nameIdx[ln] {
				add(n, sim)
			}
		}
	}
	for _, g := range strutil.QGrams(t, 2) {
		for _, i := range r.grams[g] {
			consider(i)
		}
	}
	// Length classes where a match may share no bigram: scan them all.
	for l := range r.byLen {
		if len(r.byLen[l]) == 0 {
			continue
		}
		max := l
		if len(t) > max {
			max = len(t)
		}
		k := int((1 - phi) * float64(max) * (1 + 1e-12))
		if max-1-2*k < 1 {
			for _, i := range r.byLen[l] {
				consider(i)
			}
		}
	}
}

// Sim returns the knowledge-aware similarity of two resolved elements
// under the metric (Equation 2; Definition 1 when each element maps to a
// single node with φ=1). Identical elements have similarity 1. Two
// different non-entity tokens are similar (1) only if they are synonyms
// and Plus resolution is on; otherwise 0.
func (r *Resolver) Sim(a, b ID, metric Metric) float64 {
	if a == b {
		return 1
	}
	ia, ib := r.Info(a), r.Info(b)
	if !ia.Entity() || !ib.Entity() {
		if r.opts.Plus && ia.Canon == ib.Canon {
			return 1
		}
		return 0
	}
	best := 0.0
	for _, ma := range ia.Mappings {
		for _, mb := range ib.Mappings {
			f := ma.Phi * mb.Phi
			if f <= best {
				continue // even a perfect LCA cannot beat the best
			}
			dl := r.h.LCADepth(ma.Node, mb.Node)
			s := metric.Sim(dl, int(ma.Depth), int(mb.Depth)) * f
			if s > best {
				best = s
			}
		}
	}
	return best
}

// MaxDiffSim returns an upper bound on the similarity of element id to
// any *different* element (the weight of Lemma 4). Non-entity tokens can
// only match a different token through a synonym (bound 1) or not at all
// (bound 0).
//
// Under plain K-Join resolution different elements map to different nodes
// and the bound is the paper's d_e/(d_e+1). Under Plus resolution a
// different token may map to the *same* node (synonym or typo), so the
// similarity is bounded only by the element's best mapping quality
// max φ ≥ metric bound; using max φ keeps the pruning sound.
func (r *Resolver) MaxDiffSim(id ID, metric Metric) float64 {
	in := r.Info(id)
	if !in.Entity() {
		if r.opts.Plus && in.HasSyns {
			return 1
		}
		return 0
	}
	if r.opts.Plus {
		maxPhi := 0.0
		for _, m := range in.Mappings {
			if m.Phi > maxPhi {
				maxPhi = m.Phi
			}
		}
		return maxPhi
	}
	return metric.MaxDiffSim(in.MaxDepth)
}
