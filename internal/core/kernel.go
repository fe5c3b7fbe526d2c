package core

import (
	"context"
	"math"
	"slices"
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

// objSource resolves candidate ids to preprocessed objects: the ranks of
// a batch join's index or a pinned view of the streaming engine.
type objSource interface {
	objAt(id int) *prepped
}

// ranked is a batch join's index: the indexed collection in ascending
// (size, input index) order — an object's position there is its rank —
// and flat postings of ranks per prefix signature. Because ranks ascend
// with size, a size range is a rank interval, and a postings list is cut
// to it by one binary search: objects outside it are never touched.
type ranked struct {
	objs   []prepped   // the collection in rank order
	sketch []sketchRow // per rank, what the gather reads instead of objs
	input  []int32     // rank → input index
	first  []int32     // first[n] is the first rank of size ≥ n, n ≤ largest size + 1
	off    []int32     // signature s posts post[off[s]:off[s+1]]
	post   []int32     // ranks, ascending within a signature
}

// sketchRow is one object's row of the index's key-sketch column: the 16
// bytes from which the gather takes count pruning's verdict on most
// candidates (verify.SketchBound) without fetching the object.
type sketchRow struct {
	bits  uint64 // verify.KeySketch(Keys)
	nKeys int32  // len(Keys)
	size  int32  // len(Elems)
}

func (rk *ranked) objAt(id int) *prepped { return &rk.objs[id] }

// interval returns the ranks [lo, hi) of the objects whose sizes lie in r.
func (rk *ranked) interval(r sizeRange) (lo, hi int32) {
	last := int32(len(rk.first) - 1)
	return rk.first[min(r.lo, last)], rk.first[min(r.hi, last-1)+1]
}

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
// works a probe object's candidates as a batch through gather → verify.
// A batch join gathers from its ranked index, where the size bound is
// the interval gathered and the key-sketch column settles most of count
// pruning; the streaming engine's probe (Indexer.probe) gathers from its
// inverted segments and its memtable, and the size gate meets each
// candidate as it is fetched. A kernel owns its verification context and
// buffers, so each batch worker has its own and the engine pools them,
// one per add or query in flight; after warm-up a batch allocates
// nothing.
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

	// need[n] is the ceiling of the overlap a probe of needFor elements
	// and a candidate of n must reach: Scratch.pairNeed's, which is
	// symmetric in the two sizes, tabulated up to the largest indexed
	// size the probe's size range admits.
	need    []int32
	needFor int
	// sketchPruned is the part of vst.CountPruned that gatherRanked
	// decided from the sketch column (tests pin the gate's hit rate).
	sketchPruned int64
}

func newKernel(vctx *verify.Context, opt *Options, gate *sizeGate) *kernel {
	return &kernel{vctx: vctx, verifier: opt.Verifier, computeSims: opt.ComputeSims, gate: gate}
}

// begin starts a new probe object's batch over object ids below n,
// growing the seen stamps to cover them.
func (k *kernel) begin(n int) {
	k.cands = k.cands[:0]
	if k.stamp == math.MaxInt32 {
		clear(k.seen)
		k.stamp = 0
	}
	k.stamp++
	if n > len(k.seen) {
		k.seen = append(k.seen, make([]int32, n-len(k.seen))...)
	}
}

// gather appends the not yet seen object ids that share a prefix
// signature with the probe.
func (k *kernel) gather(inv *index.Inverted, prefix []int32) {
	seen, stamp, cands := k.seen, k.stamp, k.cands
	for _, s := range prefix {
		for _, y := range inv.Postings(s) {
			if seen[y] != stamp {
				seen[y] = stamp
				cands = append(cands, y)
			}
		}
	}
	k.cands = cands
}

// gatherRanked appends the not yet seen ranks in [lo, hi) that post a
// signature of px's prefix and whose key sketch does not already settle
// count pruning (Lemma 3) against them. A rank the sketch settles is a
// candidate like any other, verified and count-pruned: it is booked here
// as VerifyPrepared would have booked it, so no counter can tell the two
// apart — only its object is never fetched. hi must not pass the end of
// px's size range: no larger size has a row in the need table.
func (k *kernel) gatherRanked(rk *ranked, px *prepped, lo, hi int32) {
	if nx := len(px.Elems); nx != k.needFor {
		k.needFor, k.need = nx, k.need[:0]
		top := min(int(k.gate.bounds(nx).hi), len(rk.first)-2)
		for ny := 0; ny <= top; ny++ {
			k.need = append(k.need, int32(mathx.CeilInt(k.vctx.Set.PairOverlap(k.vctx.Tau, nx, ny))))
		}
	}
	bx, nkx, need := verify.KeySketch(px.Keys), len(px.Keys), k.need
	seen, stamp, cands, settled := k.seen, k.stamp, k.cands, int64(0)
	for _, s := range px.prefix {
		list := rk.post[rk.off[s]:rk.off[s+1]]
		if lo > 0 {
			i, _ := slices.BinarySearch(list, lo)
			list = list[i:]
		}
		for _, y := range list {
			if y >= hi {
				break
			}
			if seen[y] == stamp {
				continue
			}
			seen[y] = stamp
			if r := &rk.sketch[y]; verify.SketchBound(bx, nkx, r.bits, int(r.nKeys)) < int(need[r.size]) {
				settled++
				continue
			}
			cands = append(cands, y)
		}
	}
	k.cands = cands
	k.candidates += settled
	k.vst.Pairs += settled
	k.vst.CountPruned += settled
	k.sketchPruned += settled
}

// run verifies the gathered candidates of probe object px, leaving the
// similar ones in k.hits in candidate order. The size gate reads each
// object's length as the loop fetches it; a ranked gather has left it
// nothing to reject. input, when non-nil, maps the ids of a self join
// (px is id x) to input indices: a pair is then verified and scored
// with the later input first, whichever of the two probes; px is armed
// on the verify context for the batch either way (verify.Context.Arm),
// so count pruning and Lemma 4 read only the candidate. It returns
// false if ctx was cancelled before the batch finished. Counts stay
// consistent either way: candidates == sizePruned + vst.Pairs.
func (k *kernel) run(ctx context.Context, px *prepped, src objSource, input []int32, x int32) bool {
	r := k.gate.bounds(len(px.Elems))
	var xin int32
	if input != nil {
		xin = input[x]
	}
	pruned, done := 0, 0
	k.hits = k.hits[:0]
	if len(k.cands) > 0 {
		// The clock is read once around the batch, not around each pair:
		// at millions of pruned candidates the two reads cost more than
		// the verification they timed.
		t0 := time.Now()
		k.vctx.Arm(&px.Prepared)
		for _, y := range k.cands {
			if done%cancelCheckEvery == cancelCheckEvery-1 && ctx.Err() != nil {
				break
			}
			done++
			oy := src.objAt(int(y))
			if n := int32(len(oy.Elems)); n < r.lo || n > r.hi {
				pruned++
				continue
			}
			a, b := px, oy
			if input != nil && input[y] > xin {
				a, b = oy, px
			}
			if k.vctx.VerifyPrepared(&a.Prepared, &b.Prepared, k.verifier, &k.vst) {
				h := hit{id: y}
				if k.computeSims {
					h.sim = k.vctx.Score(&a.Prepared, &b.Prepared)
				}
				k.hits = append(k.hits, h)
			}
		}
		k.vctx.Disarm()
		k.vtime += time.Since(t0)
	}
	k.sizePruned += int64(pruned)
	k.candidates += int64(done)
	return done == len(k.cands)
}
