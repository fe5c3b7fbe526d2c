package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kjoin/internal/hierarchy"
	"kjoin/internal/sig"
)

// Indexer is the online form of the K-Join framework (Algorithm 1's loop
// exposed as an API): objects are added one at a time, and each Add
// reports the similar pairs between the new object and everything added
// before it. This is the streaming-deduplication shape of the paper's
// motivating Factual use case — new crawled POIs arrive continuously and
// must be checked against the accumulated collection.
//
// The global signature order of the offline algorithm (ascending df,
// §3.1) cannot be known up front in a streaming setting; the Indexer
// instead fixes the order by signature id. Prefix-filter correctness
// (Lemmas 2, 6, 7) only requires *some* global order, so results are
// exactly the same join result — candidate counts are merely less
// optimized than the offline df order.
//
// Internally the Indexer is an LSM-style segmented engine: adds land in
// a small mutable memtable (under mu), which is sealed into an immutable
// segment at Options.SealEvery objects, and a background merger compacts
// segments toward a strictly-decreasing-size layout. Readers never take
// mu: every mutation publishes an immutable view (segment list, memtable
// prefix, counters) through an atomic pointer, and RunQuery, Len, Stats,
// WALSeq, SegmentSizes, SegmentStats and Pin work entirely off a loaded
// view. PrepareQuery synchronizes internally (prepMu). An add and a
// query run the same probe (probe) against a pinned view — an add then
// inserts its object — so the layout never influences results either:
// candidate sets are unions over disjoint id ranges and are verified in
// ascending id order regardless of which segment supplied them.
//
// Concurrency contract: Add/AddCtx/Query/QueryCtx serialize internally
// on mu and may be called concurrently with everything; PrepareQuery and
// all read-only calls are safe from any number of goroutines at once.
type Indexer struct {
	// j holds the shared preprocessing and verification state. It is
	// dual-protected: the resolution/signature caches and arenas are
	// mutated only under prepMu, while the statistics (j.st) are mutated
	// only under mu; probes verify on pooled clones of j.ctx. (Annotating
	// a single guard here would be wrong, so the split is enforced by
	// review rather than kjoinlint.)
	j     *joiner
	order *sig.Order

	// prepMu guards object preprocessing: token interning, lazy
	// resolution, signature generation, and the prep scratch below.
	// Preprocessed state becomes visible to lock-free readers through
	// the published cache snapshots (elem.Resolver.Publish,
	// sig.Space.Publish) stored before prepMu is released.
	//kjoinlint:lockorder rank=26
	prepMu  sync.Mutex
	scratch []prepScratch // guarded by prepMu; one per prepRun worker

	// mu guards the engine: the segment list, the memtable, the merger
	// handle, the WAL position and the statistics. Writers hold it for
	// the probe+commit of an add; readers never take it.
	//kjoinlint:lockorder rank=24
	mu       sync.Mutex
	segs     []*segment // guarded by mu; elements immutable once listed
	mem      *memtable  // guarded by mu
	memBirth time.Time  // guarded by mu: first insert into current memtable
	// walSeq is the last write-ahead-log sequence reflected in the
	// index (see SetWALSeq/ApplyLogged); it travels inside snapshots so
	// recovery knows where replay resumes.
	walSeq uint64 // guarded by mu
	// sealLog, when installed, appends a seal record to the WAL right
	// before a live seal mutates the engine (see SetSealLogger).
	sealLog    func() (uint64, error) // guarded by mu
	sealTotal  uint64                 // guarded by mu
	mergeTotal uint64                 // guarded by mu
	// mergeCh is non-nil while a background merger goroutine runs; it is
	// closed when the merger exits (WaitMerges blocks on it).
	mergeCh chan struct{} // guarded by mu

	// view is the atomically published engine epoch lock-free readers
	// pin. Stored only by publishLocked (under mu); loaded anywhere.
	view atomic.Pointer[view]

	// vpool holds the probe kernels: adds and queries borrow one each, as
	// RunQuery may run from many goroutines at once, and a kernel owns the
	// verify.Context clone and buffers that make a steady-state probe
	// allocation-free. A kernel goes back with its counts drained.
	vpool sync.Pool
}

// NewIndexer returns an empty Indexer over the hierarchy with the given
// options. Workers and ComputeSims are honored per Add; the signature
// scheme, thresholds, metrics and resolution mode are fixed for the
// Indexer's lifetime.
func NewIndexer(h *hierarchy.Hierarchy, opt Options) (*Indexer, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	j := newJoiner(h, opt)
	// Object sizes are unbounded in a stream, so the gate keeps no table:
	// each probe computes its own range.
	gate := newSizeGate(&j.opt, 0)
	ix := &Indexer{
		j:       j,
		order:   sig.BuildOrder(nil), // empty df: order degrades to signature id
		scratch: make([]prepScratch, 1),
		mem:     &memtable{},
	}
	ix.vpool.New = func() any { return newKernel(j.ctx.Clone(), &j.opt, gate) }
	ix.mu.Lock()
	ix.publishLocked()
	ix.mu.Unlock()
	return ix, nil
}

// publishLocked stores a fresh view of the engine for lock-free
// readers. Caller holds mu and calls it after every mutation batch.
func (ix *Indexer) publishLocked() {
	v := &view{
		segs:       ix.segs,
		memBase:    ix.mem.base,
		memObjs:    ix.mem.objs[:len(ix.mem.objs):len(ix.mem.objs)],
		total:      ix.mem.base + len(ix.mem.objs),
		walSeq:     ix.walSeq,
		stats:      ix.j.st,
		sealTotal:  ix.sealTotal,
		mergeTotal: ix.mergeTotal,
	}
	ix.view.Store(v)
}

// Len returns the number of indexed objects. Safe to call concurrently
// with anything.
func (ix *Indexer) Len() int { return ix.view.Load().total }

// Stats returns the accumulated statistics as of the last published
// engine epoch. Safe to call concurrently with anything; counters
// mutated by an add in flight (or a cancelled add) appear at the next
// publish.
func (ix *Indexer) Stats() Stats { return ix.view.Load().stats }

// prepScratch is one preparer's reusable prefix-cut state. Add and
// queries use the Indexer's first; a bulk run gives each worker one.
type prepScratch struct {
	entries []sig.Entry
	ps      sig.PrefixScratch
}

// prepObject completes one interned object in place: its verification
// form and its deduplicated prefix under the Indexer's fixed order (the
// signature id, so the sorted prefix holds each signature as one run and
// comes out ascending, as sharesSig needs). It returns the object's
// signature-entry count. A missing cache slot is filled on the way, so
// the caller holds prepMu, and other workers may share it only once
// every element is warm.
func (ix *Indexer) prepObject(p *prepped, s *prepScratch) int {
	j := ix.j
	n := len(p.Elems)
	p.Prepared = j.ctx.Prepare(p.Elems, nil, nil)
	s.entries = j.sp.AppendObjectSigs(s.entries[:0], p.Elems)
	ix.order.SortS(s.entries, &s.ps)
	var plen int
	if j.opt.Weighted {
		plen = sig.WeightedPrefixS(s.entries, j.opt.Set.MinOverlap(j.opt.Tau, n), &s.ps)
	} else {
		plen = sig.DistElePrefixS(s.entries, j.opt.Set.TauS(j.opt.Tau, n), &s.ps)
	}
	for i, e := range s.entries[:plen] {
		if i == 0 || e.Sig != s.entries[i-1].Sig {
			p.prefix = append(p.prefix, int32(e.Sig))
		}
	}
	return len(s.entries)
}

// prepRun interns and prepares objects: one for Add and PrepareQuery, a
// run for loads and replay. Tokens are interned serially in input order,
// so element and signature ids never depend on the batching; a run long
// enough to share then has its new elements resolved and warmed, and its
// objects prepared, across the workers (a scratch and a block each). The
// cache snapshots are published before prepMu is released, so the
// objects are servable to lock-free readers. It returns them with their
// signature-entry total.
func (ix *Indexer) prepRun(objs [][]string) ([]prepped, int) {
	ix.prepMu.Lock()
	defer ix.prepMu.Unlock()
	j := ix.j
	ps := j.resolveAll(objs)
	workers := j.workerCount(len(ps) / 64) // a worker costs more than 64 objects save
	if workers > 1 {
		j.res.ResolveAll(workers)
		j.sp.Warm(j.res.Len(), workers)
	}
	for len(ix.scratch) < workers {
		ix.scratch = append(ix.scratch, prepScratch{})
	}
	var entries atomic.Int64
	block := func(w int) {
		for i := w * len(ps) / workers; i < (w+1)*len(ps)/workers; i++ {
			entries.Add(int64(ix.prepObject(&ps[i], &ix.scratch[w])))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			block(w)
		}()
	}
	block(0)
	wg.Wait()
	j.res.Publish()
	j.sp.Publish()
	return ps, int(entries.Load())
}

// Add indexes the tokenized object and returns the pairs (i, Len()-1)
// for every previously added object i similar to it. The returned pair
// indices refer to insertion order.
func (ix *Indexer) Add(tokens []string) ([]Pair, error) {
	_, pairs, err := ix.AddCtx(context.Background(), tokens)
	return pairs, err
}

// AddCtx is Add under a cancellation context, returning the id assigned
// to the object (its insertion index). A cancelled context aborts the
// probe within one verification batch and leaves the index exactly as
// it was — the object is not indexed. Structurally invalid objects
// (empty token list, empty-string token) return an *InputError.
func (ix *Indexer) AddCtx(ctx context.Context, tokens []string) (int, []Pair, error) {
	if err := validateTokens(tokens); err != nil {
		return 0, nil, err
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	ps, entries := ix.prepRun([][]string{tokens})
	p := ps[0]
	prepTime := time.Since(t0)

	j := ix.j
	ix.mu.Lock()
	defer ix.mu.Unlock()
	j.st.SigEntries += int64(entries)
	j.st.Preprocess += prepTime
	id := ix.mem.base + len(ix.mem.objs)
	if id > (1<<31)-2 {
		return 0, nil, fmt.Errorf("kjoin: indexer is full")
	}

	// Probe every prior object. Every mutation publishes before it
	// releases mu, so the current view holds exactly the indexed objects.
	t1 := time.Now()
	k := ix.vpool.Get().(*kernel)
	defer ix.vpool.Put(k)
	done := ix.probe(ctx, &p, ix.view.Load(), k)
	k.drainInto(&j.st)
	if !done {
		j.st.Probe += time.Since(t1)
		return 0, nil, ctx.Err()
	}
	var out []Pair
	for _, h := range k.hits {
		out = append(out, Pair{X: int(h.id), Y: id, Sim: h.sim})
	}

	// Commit: seal first if this insert would overflow the memtable (the
	// seal record must hit the WAL before the layout changes — a failed
	// append aborts the add with the engine untouched), then insert and
	// publish the new epoch.
	if ix.sealDueLocked() {
		ch, err := ix.sealLiveLocked()
		if err != nil {
			j.st.Probe += time.Since(t1)
			return 0, nil, err
		}
		if ch != nil {
			go ix.mergeLoop(ch)
		}
	}
	ix.insertLocked(p)
	j.st.Probe += time.Since(t1)
	ix.publishLocked()
	return id, out, nil
}

// probe runs Algorithm 1's probe of object p against the pinned view v on
// kernel k: the objects sharing a prefix signature with p, gathered from
// every segment's inverted index (deduplicated by k's stamps) and from a
// scan of the memtable, then verified in ascending id order. The
// candidate set and each pair's verification are independent of the
// segment layout, so results are bit-identical for any seal/merge
// schedule. It returns false if ctx was cancelled first.
func (ix *Indexer) probe(ctx context.Context, p *prepped, v *view, k *kernel) bool {
	k.begin(v.total)
	for _, seg := range v.segs {
		if ctx.Err() != nil {
			return false
		}
		k.gather(seg.inv, p.prefix)
	}
	// The memtable's ids all follow the segments', ascending, and each is
	// scanned once: sorting the segments' part orders the whole list.
	slices.Sort(k.cands)
	for i := range v.memObjs {
		if i%cancelCheckEvery == cancelCheckEvery-1 && ctx.Err() != nil {
			return false
		}
		if sharesSig(p.prefix, v.memObjs[i].prefix) {
			k.cands = append(k.cands, int32(v.memBase+i))
		}
	}
	return k.run(ctx, p, v, nil, 0)
}

// Match is one similarity-search result: the insertion index of a
// matching object and its similarity (when ComputeSims is set).
type Match struct {
	Index int
	Sim   float64
}

// PreparedQuery is the preprocessed form of a query object, produced by
// PrepareQuery and consumed by RunQuery.
type PreparedQuery struct {
	p prepped
}

// PrepareQuery resolves and preprocesses a query object without probing
// the index. It synchronizes internally (the shared token-interning,
// resolution and signature caches are guarded by their own short lock),
// so any number of PrepareQuery calls may run concurrently with each
// other, with adds, and with queries — the server's query path takes no
// lock at all. It is cheap (proportional to the query's tokens); the
// probe it prepares for is the expensive part and runs lock-free in
// RunQuery.
func (ix *Indexer) PrepareQuery(tokens []string) (*PreparedQuery, error) {
	if err := validateTokens(tokens); err != nil {
		return nil, err
	}
	ps, _ := ix.prepRun([][]string{tokens})
	return &PreparedQuery{p: ps[0]}, nil
}

// RunQuery probes the index with a prepared query and reports the
// indexed objects similar to it, in ascending index order. It pins the
// current engine epoch with one atomic load and takes no locks: any
// number of RunQuery calls may run concurrently with each other and
// with adds, seals and merges. A cancelled context aborts the probe
// within one verification batch.
func (ix *Indexer) RunQuery(ctx context.Context, q *PreparedQuery) ([]Match, error) {
	// Borrow a kernel: its verify scratch and buffers make the probe
	// allocation-free, and pooling amortizes them (and the scratch's
	// warmed tables) across probes. A query's counts are not booked.
	k := ix.vpool.Get().(*kernel)
	ms, err := ix.runQuery(ctx, q, k)
	k.probeCounts = probeCounts{}
	ix.vpool.Put(k)
	return ms, err
}

// runQuery is RunQuery on the caller's kernel.
func (ix *Indexer) runQuery(ctx context.Context, q *PreparedQuery, k *kernel) ([]Match, error) {
	ix.probe(ctx, &q.p, ix.view.Load(), k)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []Match
	for _, h := range k.hits {
		out = append(out, Match{Index: int(h.id), Sim: h.sim})
	}
	return out, nil
}

// sharesSig reports whether two engine prefixes have a signature in
// common. The engine's signature order is the signature id (see
// Indexer), so prepObject emits every prefix in ascending id order and
// one merge walk decides.
func sharesSig(a, b []int32) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Query reports the indexed objects similar to the tokenized object
// without adding it to the index — knowledge-aware similarity search
// over the accumulated collection.
func (ix *Indexer) Query(tokens []string) ([]Match, error) {
	return ix.QueryCtx(context.Background(), tokens)
}

// QueryCtx is Query under a cancellation context: PrepareQuery followed
// by RunQuery. Both phases synchronize internally, so QueryCtx is safe
// from any goroutine without external locking.
func (ix *Indexer) QueryCtx(ctx context.Context, tokens []string) ([]Match, error) {
	q, err := ix.PrepareQuery(tokens)
	if err != nil {
		return nil, err
	}
	return ix.RunQuery(ctx, q)
}
