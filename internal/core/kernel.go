package core

import (
	"context"
	"math"
	"sort"
	"time"

	"kjoin/internal/index"
	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
	"kjoin/internal/verify"
)

// sizeRange is the closed interval of candidate sizes a probe object of
// one size can still be τ-similar to.
type sizeRange struct{ lo, hi int32 }

// sizeGate is the O(1) size filter in front of verification. A matching
// never has more edges than the smaller object has elements and every
// edge weighs at most 1, so the fuzzy overlap — and with it Lemma 3's
// count bound — is at most min(|x|, |y|): a pair whose sizes alone put
// that below the overlap τ demands cannot be similar, whatever the
// elements are (multi-key K-Join+ elements included). The gate is
// derived from the verifier's own predicate rather than per-metric
// algebra, so it rejects exactly the pairs count pruning would have
// rejected on size grounds, for every set metric.
//
// Sizes start at 1: an empty object has no prefix signatures, so it
// never probes and is never a candidate.
type sizeGate struct {
	set setmetric.Kind
	tau float64
	// table[n] is the range for probe size n, precomputed by batch joins
	// (which know their largest object); sizes past it are computed on
	// demand, which is what the streaming engine does once per probe.
	table []sizeRange
}

// newSizeGate returns the gate for the options' set metric and τ with
// the ranges of probe sizes 1..maxSize precomputed.
func newSizeGate(opt *Options, maxSize int) *sizeGate {
	g := &sizeGate{set: opt.Set, tau: opt.Tau}
	if maxSize > 0 {
		table := make([]sizeRange, maxSize+1)
		for n := 1; n <= maxSize; n++ {
			table[n] = g.compute(n)
		}
		g.table = table
	}
	return g
}

// rejects is the size-only form of count pruning: the largest overlap
// sizes nx, ny allow is below the overlap the pair needs.
func (g *sizeGate) rejects(nx, ny int) bool {
	return mathx.LT(float64(min(nx, ny)), g.set.PairOverlap(g.tau, nx, ny))
}

// compute finds the admissible range of probe size nx ≥ 1 by bisection.
// On either side of nx the predicate is monotone — below nx the smaller
// size ny grows faster than the required overlap (whose slope in ny is
// below 1 for Jaccard and Dice, and whose sign for Cosine is that of
// √ny − τ√nx), above nx the required overlap only grows — and nx always
// admits itself (the required overlap of two equal sizes is at most nx).
func (g *sizeGate) compute(nx int) sizeRange {
	lo := 1 + sort.Search(nx-1, func(i int) bool { return !g.rejects(nx, 1+i) })
	hi := nx + sort.Search(math.MaxInt32-nx, func(i int) bool { return g.rejects(nx, nx+1+i) })
	return sizeRange{lo: int32(lo), hi: int32(hi)}
}

// bounds returns the admissible candidate sizes for a probe of size nx.
func (g *sizeGate) bounds(nx int) sizeRange {
	if nx < len(g.table) {
		return g.table[nx]
	}
	return g.compute(nx)
}

// objSource resolves candidate ids to preprocessed objects: a batch
// join's indexed collection or a pinned view of the streaming engine.
type objSource interface {
	objAt(id int) *prepped
}

// batchObjs is the objSource of a batch join's indexed collection.
type batchObjs []prepped

func (b batchObjs) objAt(id int) *prepped { return &b[id] }

// probeCounts is the work a kernel did since it was last drained.
type probeCounts struct {
	candidates int64 // distinct pairs sharing a prefix signature
	sizePruned int64 // candidates the size gate removed
	vst        verify.Stats
	vtime      time.Duration
}

// drainInto folds the counts into st and resets them.
func (c *probeCounts) drainInto(st *Stats) {
	st.Candidates += c.candidates
	st.SizePruned += c.sizePruned
	st.Verify.Add(c.vst)
	st.VerifyTime += c.vtime
	*c = probeCounts{}
}

// hit is one verified-similar candidate of the current probe object.
type hit struct {
	id  int32
	sim float64 // filled when ComputeSims is set
}

// kernel is the one candidate-rejection loop behind every probe: it
// works a probe object's candidates as a batch through gather →
// size-gate → verify. A kernel owns its verification context and
// buffers, so each worker (and each pooled query) has its own; after
// warm-up a batch allocates nothing.
type kernel struct {
	vctx        *verify.Context
	verifier    verify.Kind
	computeSims bool
	gate        *sizeGate

	// seen stamps the last probe that gathered each object id: the epoch
	// form of a per-probe dedup set. The stamp is a counter, not the
	// probe's id, so an abandoned probe can never leave marks a later one
	// mistakes for its own.
	seen  []int32
	stamp int32

	cands []int32 // the current probe's candidate ids
	hits  []hit   // the current probe's verified-similar candidates
	probeCounts
}

func newKernel(vctx *verify.Context, opt *Options, gate *sizeGate) *kernel {
	return &kernel{vctx: vctx, verifier: opt.Verifier, computeSims: opt.ComputeSims, gate: gate}
}

// begin starts a new probe object's batch.
func (k *kernel) begin() {
	k.cands = k.cands[:0]
	if k.stamp == math.MaxInt32 {
		clear(k.seen)
		k.stamp = 0
	}
	k.stamp++
}

// gather appends the not yet seen object ids below limit that share a
// prefix signature with the probe. Postings are ascending, so the first
// id at or past the limit ends a list.
func (k *kernel) gather(inv *index.Inverted, prefix []int32, limit int32) {
	seen, stamp, cands := k.seen, k.stamp, k.cands
	for _, s := range prefix {
		for _, y := range inv.Postings(s) {
			if y >= limit {
				break
			}
			if seen[y] != stamp {
				seen[y] = stamp
				cands = append(cands, y)
			}
		}
	}
	k.cands = cands
}

// run gates and verifies the gathered candidates of probe object px,
// leaving the similar ones in k.hits in candidate order. sizes, when
// non-nil, is the dense size column of src's collection (batch joins):
// the gate then rejects in a pass of its own without touching an
// object. Without a column (the streaming engine, a handful of
// candidates per probe) the gate reads each object's length as the
// verify loop fetches it. It returns false if ctx was cancelled before
// the batch finished. Counts stay consistent either way: candidates ==
// sizePruned + vst.Pairs.
func (k *kernel) run(ctx context.Context, px *prepped, src objSource, sizes []int32) bool {
	r := k.gate.bounds(len(px.Elems))
	live := k.cands
	if sizes != nil {
		// Compacts in place. The store is unconditional and the range
		// check one unsigned compare so the loop carries no branch on the
		// data: which candidates survive is close to a coin toss.
		n, span := 0, uint32(r.hi-r.lo)
		for _, y := range live {
			live[n] = y
			if uint32(sizes[y]-r.lo) <= span {
				n++
			}
		}
		live = live[:n]
	}
	gated := len(k.cands) - len(live)
	pruned, done := gated, 0
	k.hits = k.hits[:0]
	if len(live) > 0 {
		// The clock is read once around the batch, not around each pair:
		// at millions of pruned candidates the two reads cost more than
		// the verification they timed.
		t0 := time.Now()
		for _, y := range live {
			if done%cancelCheckEvery == cancelCheckEvery-1 && ctx.Err() != nil {
				break
			}
			done++
			oy := src.objAt(int(y))
			if n := int32(len(oy.Elems)); sizes == nil && (n < r.lo || n > r.hi) {
				pruned++
				continue
			}
			if k.vctx.VerifyPrepared(&px.Prepared, &oy.Prepared, k.verifier, &k.vst) {
				h := hit{id: y}
				if k.computeSims {
					h.sim = k.vctx.Similarity(px.Elems, oy.Elems)
				}
				k.hits = append(k.hits, h)
			}
		}
		k.vtime += time.Since(t0)
	}
	k.sizePruned += int64(pruned)
	k.candidates += int64(gated + done)
	return done == len(live)
}

// sizeColumn returns the dense size column of a batch collection.
func sizeColumn(objs []prepped) []int32 {
	sizes := make([]int32, len(objs))
	for i := range objs {
		sizes[i] = int32(len(objs[i].Elems))
	}
	return sizes
}
