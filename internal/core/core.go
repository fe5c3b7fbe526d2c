// Package core implements the K-Join driver: preprocessing (tokenized
// objects → resolved elements → signatures → prefixes), the prefix-filter
// candidate generation of Algorithm 1 / Algorithm 2, the verification
// dispatch, and both self-join and R-S join (§6.1).
package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"kjoin/internal/elem"
	"kjoin/internal/hierarchy"
	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
	"kjoin/internal/synonym"
	"kjoin/internal/verify"
)

// Options configures a join. The zero value is not valid; use Defaults
// and override.
type Options struct {
	// Delta is the element similarity threshold δ ∈ (0, 1].
	Delta float64
	// Tau is the object similarity threshold τ ∈ (0, 1].
	Tau float64
	// Metric is the element similarity metric (Definition 1 or §6.2).
	Metric elem.Metric
	// Set is the object-level set similarity (Definition 2 or §6.3).
	Set setmetric.Kind
	// Scheme selects node, shallow or deep signatures (§3.1, §4).
	Scheme sig.Scheme
	// Weighted uses the weighted path prefix (Definition 9) instead of
	// the distinct-element prefix (Definitions 5/8).
	Weighted bool
	// Verifier selects the verification algorithm (§3.2, §5).
	Verifier verify.Kind
	// Plus enables K-Join+ element resolution: multi-node mappings,
	// synonyms and typo tolerance (§6.4, Equation 2).
	Plus bool
	// Synonyms is the synonym dictionary used when Plus is set.
	Synonyms *synonym.Dict
	// PhiMin is the minimum edit similarity for typo-tolerant node
	// matching under Plus. Zero selects max(Delta, 0.8): tolerating a
	// few character edits without letting every token match half the
	// hierarchy.
	PhiMin float64
	// MaxMappings caps the hierarchy nodes one element can map to under
	// Plus (0 selects 4). The cap consistently defines the element
	// similarity used by resolution, filtering and verification.
	MaxMappings int
	// Workers bounds probe-loop parallelism; 0 means GOMAXPROCS,
	// 1 runs the exact sequential algorithm. Candidates and results are
	// identical regardless.
	Workers int
	// ComputeSims fills Pair.Sim with the exact similarity of each
	// result pair (a little extra work after verification).
	ComputeSims bool
	// SealEvery is the streaming Indexer's memtable capacity in objects:
	// when an add would grow the memtable past it, the memtable is first
	// sealed into an immutable segment (0 selects 256). Batch joins
	// ignore it. It is an engine tuning knob, not part of the join
	// semantics — query results are identical for any value.
	SealEvery int
	// SealAge, when positive, additionally seals a non-empty memtable at
	// the first add after it has been open this long, bounding how stale
	// the segmented read path's freshest segment can get under slow
	// write rates. Zero disables age-based sealing. Age seals make the
	// segment layout timing-dependent; layout-deterministic tests and
	// replay leave it zero.
	SealAge time.Duration
	// Progress, when set, receives coarse phase notifications:
	// ("resolve", 0, n), ("signatures", 0, n), ("index", 0, n), then
	// ("probe", done, n) roughly every probeProgressStep objects per
	// worker (done ≤ n is extrapolated from that worker's own count), and
	// a final ("done", n, n). It must be safe for concurrent
	// calls. Useful for long joins behind a UI or a log.
	Progress func(phase string, done, total int)
}

// probeProgressStep is how many probe objects a worker processes between
// Progress callbacks.
const probeProgressStep = 4096

// cancelCheckEvery is how many candidate verifications a probe worker
// performs between context cancellation checks. Together with the
// per-probe-object check it bounds the latency of a cancellation to one
// filter/verify batch.
const cancelCheckEvery = 256

func (o *Options) progress(phase string, done, total int) {
	if o.Progress != nil {
		o.Progress(phase, done, total)
	}
}

// Defaults returns the options used throughout the paper's evaluation
// unless stated otherwise: deep signatures, weighted prefix, adaptive
// verification, Jaccard, standard element metric.
func Defaults(delta, tau float64) Options {
	return Options{
		Delta:       delta,
		Tau:         tau,
		Metric:      elem.Standard,
		Set:         setmetric.Jaccard,
		Scheme:      sig.Deep,
		Weighted:    true,
		Verifier:    verify.Adaptive,
		ComputeSims: true,
	}
}

func (o *Options) validate() error {
	if o.Delta <= 0 || o.Delta > 1 {
		return fmt.Errorf("kjoin: Delta must be in (0, 1], got %v", o.Delta)
	}
	if o.Tau <= 0 || o.Tau > 1 {
		return fmt.Errorf("kjoin: Tau must be in (0, 1], got %v", o.Tau)
	}
	return nil
}

// Pair is one join result. For a self join X < Y index the object slice;
// for an R-S join X indexes R and Y indexes S. Sim is filled when
// Options.ComputeSims is set.
type Pair struct {
	X, Y int
	Sim  float64
}

// Stats reports the work a join did.
type Stats struct {
	Objects int // total objects joined (|R| + |S| for R-S)
	// Candidates is the number of candidate pairs. In a batch join that
	// is a pair sharing a prefix signature whose sizes can still reach τ
	// (the size bound is part of the gather); in the streaming engine a
	// pair sharing a prefix signature, before its size gate.
	Candidates int64
	// SizePruned counts the candidates the streaming engine's size gate
	// rejected before verification. Batch joins never gather a pair the
	// gate would reject, so there it is 0; Candidates == SizePruned +
	// Verify.Pairs everywhere.
	SizePruned int64
	Preprocess time.Duration // resolution, signatures, order, prefixes
	BuildIndex time.Duration // inverted index construction
	Probe      time.Duration // candidate generation + verification (wall)
	// VerifyTime is the time the probe workers spent in their verification
	// loops, summed over the workers: CPU time, which on several cores
	// exceeds the share of Probe (wall time) it accounts for. A batch join
	// settles most count-pruned pairs while gathering, from the index's
	// key-sketch column; those are in Verify's counters but not in here.
	VerifyTime time.Duration
	Verify     verify.Stats // verification counters
	AvgPrefix  float64      // mean (probing) prefix length per object
	SigEntries int64        // total signature entries generated
}

// prepped is one preprocessed object: its verification form (elements,
// sorted group-key multiset, key-ordered element column) and its prefix.
type prepped struct {
	verify.Prepared
	prefix []int32 // deduplicated prefix signature ids, in the global order
	// ixLen is set by batch joins: prefix[:ixLen] is the indexing prefix,
	// all a partner at least this object's size needs to find it by. The
	// whole prefix is what the object probes with.
	ixLen int32
}

// joiner holds the shared preprocessing state of a join.
type joiner struct {
	opt Options
	res *elem.Resolver
	sp  *sig.Space
	ctx *verify.Context
	st  Stats
	// cc is the cancellation context of the running join; loops check it
	// periodically and abandon their work when it is done. Defaults to
	// context.Background() (never cancelled).
	cc context.Context
	// elemSeen stamps the last object (by elemStamp value) that contained
	// each element — the epoch-table form of the per-object dedup map of
	// resolveAll. Indexed by elem.ID; grown as tokens are interned.
	elemSeen  []int64
	elemStamp int64
	// elemArena backs the retained per-object element slices; see
	// reserve. One chunk allocation serves hundreds of objects where the
	// seed allocated per object.
	elemArena []elem.ID
	elemBuf   []elem.ID
}

// reserve carves room for n items from the arena and returns it as an
// empty slice to append into, capacity-clamped so appends can never
// cross into the next carve. Chunks are replaced, not regrown, so carved
// slices stay valid.
func reserve[T any](arena *[]T, n int) []T {
	if len(*arena)+n > cap(*arena) {
		*arena = make([]T, 0, max(2*cap(*arena), 256, n))
	}
	start := len(*arena)
	*arena = (*arena)[:start+n]
	return (*arena)[start : start : start+n]
}

func newJoiner(h *hierarchy.Hierarchy, opt Options) *joiner {
	phiMin := opt.PhiMin
	if phiMin == 0 {
		phiMin = opt.Delta
		if phiMin < 0.8 {
			phiMin = 0.8
		}
	}
	maxMap := opt.MaxMappings
	if maxMap == 0 {
		maxMap = 4
	}
	res := elem.NewResolver(h, elem.Options{
		Plus:        opt.Plus,
		PhiMin:      phiMin,
		MaxMappings: maxMap,
		Synonyms:    opt.Synonyms,
	})
	sp := sig.NewSpace(res, opt.Metric, opt.Delta, opt.Scheme)
	j := &joiner{opt: opt, res: res, sp: sp, cc: context.Background()}
	j.ctx = &verify.Context{
		Res:    res,
		Space:  sp,
		Metric: opt.Metric,
		Set:    opt.Set,
		Delta:  opt.Delta,
		Tau:    opt.Tau,
	}
	return j
}

// resolveAll interns and resolves the token objects, deduplicating tokens
// within each object (objects are sets of elements, §2.1). Dedup uses the
// joiner's element stamp table instead of a per-object map: marking an
// element with the current object's stamp makes every earlier mark stale
// at once.
func (j *joiner) resolveAll(objects [][]string) []prepped {
	out := make([]prepped, len(objects))
	for i, toks := range objects {
		if i&1023 == 1023 && j.cc.Err() != nil {
			return out // caller surfaces j.cc.Err()
		}
		j.elemStamp++
		stamp := j.elemStamp
		j.elemBuf = j.elemBuf[:0]
		for _, t := range toks {
			id := j.res.ID(t)
			if n := j.res.Len(); n > len(j.elemSeen) {
				j.elemSeen = append(j.elemSeen, make([]int64, n-len(j.elemSeen))...)
			}
			if j.elemSeen[id] != stamp {
				j.elemSeen[id] = stamp
				j.elemBuf = append(j.elemBuf, id)
			}
		}
		if len(j.elemBuf) > 0 {
			out[i].Elems = append(reserve(&j.elemArena, len(j.elemBuf)), j.elemBuf...)
		}
	}
	return out
}

// dfOrder builds the global signature order over the collections from
// their element lists and counts their signature entries. The signature
// caches must be warm.
func (j *joiner) dfOrder(colls ...[]prepped) *sig.Order {
	df := j.sp.NewDFCounter()
	for _, objs := range colls {
		for i := range objs {
			if i&1023 == 1023 && j.cc.Err() != nil {
				break // caller surfaces j.cc.Err()
			}
			j.st.SigEntries += int64(df.Add(objs[i].Elems))
		}
	}
	return df.Order()
}

// workerCount returns the number of goroutines to spread n items over.
func (j *joiner) workerCount(n int) int {
	workers := j.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// prefixes completes every object: its verification form and its prefix
// signature list, with the indexing prefix's length (the whole prefix
// unless self). Each object's signature entries live only while its
// prefix is cut. Objects are independent, so the work is sharded across
// the configured workers (all shared state — the order, the signature
// and group-key caches — is read-only here; each worker writes only its
// own objects' slots and carves what they keep from arenas it owns).
func (j *joiner) prefixes(objs []prepped, order *sig.Order, self bool) {
	workers := j.workerCount(len(objs))
	totals := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker signature stamp table: one allocation replaces a
			// dedup map per object. Every signature was interned before
			// this phase, so NumSigs bounds the ids.
			seen := make([]int32, j.sp.NumSigs())
			var stamp int32
			var ps sig.PrefixScratch
			var en []sig.Entry
			var pbuf, sigArena []int32
			var keyArena []sig.Sig
			var elemArena []elem.ID
			// cut is the length of the prefix whose suffix cannot reach
			// the given overlap (Definition 9, or Definitions 5/8 by
			// distinct elements).
			cut := func(overlap float64) int {
				if j.opt.Weighted {
					return sig.WeightedPrefixS(en, overlap, &ps)
				}
				return sig.DistElePrefixS(en, max(1, mathx.CeilInt(overlap)), &ps)
			}
			appendNew := func(entries []sig.Entry) {
				for _, e := range entries {
					if seen[e.Sig] != stamp {
						seen[e.Sig] = stamp
						pbuf = append(pbuf, int32(e.Sig))
					}
				}
			}
			for i := w; i < len(objs); i += workers {
				if i&511 == 511 && j.cc.Err() != nil {
					break // caller surfaces j.cc.Err()
				}
				o := &objs[i]
				n, nk := len(o.Elems), 0
				for _, e := range o.Elems {
					nk += len(j.sp.GroupKeys(e))
				}
				var byKey []elem.ID
				if nk == n { // one key per element: the column exists
					byKey = reserve(&elemArena, nk)
				}
				o.Prepared = j.ctx.Prepare(o.Elems, reserve(&keyArena, nk), byKey)

				en = j.sp.AppendObjectSigs(en[:0], o.Elems)
				order.SortS(en, &ps)
				p := cut(j.opt.Set.MinOverlap(j.opt.Tau, n))
				ix := p
				if self {
					ix = min(p, cut(j.opt.Set.PairOverlap(j.opt.Tau, n, n)))
				}
				stamp++
				pbuf = pbuf[:0]
				appendNew(en[:ix])
				o.ixLen = int32(len(pbuf))
				appendNew(en[ix:p])
				if len(pbuf) > 0 {
					o.prefix = append(reserve(&sigArena, len(pbuf)), pbuf...)
				}
				totals[w] += len(pbuf)
			}
		}(w)
	}
	wg.Wait()
	totalPrefix := 0
	for _, t := range totals {
		totalPrefix += t
	}
	if len(objs) > 0 {
		j.st.AvgPrefix = float64(totalPrefix) / float64(len(objs))
	}
}

// rank builds the batch index over objs: a counting sort by size (stable,
// so ties keep input order), then the postings of every object's
// indexing prefix, counted and placed the same way. Ranks are placed in
// ascending order, so every postings list comes out sorted. The placing
// pass also fills the key-sketch column the gather prunes by.
func (j *joiner) rank(objs []prepped) *ranked {
	maxSize := 0
	for i := range objs {
		maxSize = max(maxSize, len(objs[i].Elems))
	}
	first := make([]int32, maxSize+2)
	for i := range objs {
		first[len(objs[i].Elems)+1]++
	}
	for n := 1; n < len(first); n++ {
		first[n] += first[n-1]
	}
	rk := &ranked{objs: make([]prepped, len(objs)), input: make([]int32, len(objs)), first: first}
	rk.sketch = make([]sketchRow, len(objs))
	rk.off = make([]int32, j.sp.NumSigs()+1)
	next := slices.Clone(first)
	for i := range objs {
		if i&1023 == 1023 && j.cc.Err() != nil {
			return rk // caller surfaces j.cc.Err()
		}
		o := &objs[i]
		r := next[len(o.Elems)]
		next[len(o.Elems)]++
		rk.objs[r], rk.input[r] = *o, int32(i)
		for _, s := range o.prefix[:o.ixLen] {
			rk.off[s+1]++
		}
	}
	for s := 1; s < len(rk.off); s++ {
		rk.off[s] += rk.off[s-1]
	}
	rk.post = make([]int32, rk.off[len(rk.off)-1])
	next = slices.Clone(rk.off)
	for r := range rk.objs {
		if r&1023 == 1023 && j.cc.Err() != nil {
			return rk // caller surfaces j.cc.Err()
		}
		o := &rk.objs[r]
		rk.sketch[r] = sketchRow{verify.KeySketch(o.Keys), int32(len(o.Keys)), int32(len(o.Elems))}
		for _, s := range o.prefix[:o.ixLen] {
			rk.post[next[s]] = int32(r)
			next[s]++
		}
	}
	return rk
}

// SelfJoin finds all pairs (x, y), x < y, with SIMδ(x, y) ≥ τ within
// objects (tokenized). It implements Algorithms 1/2 with the options'
// signature scheme and verifier.
func SelfJoin(h *hierarchy.Hierarchy, objects [][]string, opt Options) ([]Pair, *Stats, error) {
	return SelfJoinCtx(context.Background(), h, objects, opt)
}

// SelfJoinCtx is SelfJoin under a cancellation context: when ctx is
// cancelled or its deadline passes, the join aborts within one
// filter/verify batch and returns ctx.Err(). All worker goroutines have
// exited by the time it returns.
func SelfJoinCtx(ctx context.Context, h *hierarchy.Hierarchy, objects [][]string, opt Options) ([]Pair, *Stats, error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	j := newJoiner(h, opt)
	j.cc = ctx
	t0 := time.Now()
	objs := j.resolveAll(objects)
	opt.progress("resolve", 0, len(objs))
	j.res.ResolveAll(opt.Workers)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	opt.progress("signatures", 0, len(objs))
	j.sp.Warm(j.res.Len(), opt.Workers)
	order := j.dfOrder(objs)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	j.prefixes(objs, order, true)
	j.st.Preprocess = time.Since(t0)
	j.st.Objects = len(objs)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	t1 := time.Now()
	opt.progress("index", 0, len(objs))
	rk := j.rank(objs)
	j.st.BuildIndex = time.Since(t1)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	pairs := j.probe(rk.objs, rk, true, false)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	opt.progress("done", len(objs), len(objs))
	return pairs, &j.st, nil
}

// Join finds all pairs (r, s) ∈ R × S with SIMδ(r, s) ≥ τ (§6.1). The
// larger collection is indexed, the smaller probes it.
func Join(h *hierarchy.Hierarchy, r, s [][]string, opt Options) ([]Pair, *Stats, error) {
	return JoinCtx(context.Background(), h, r, s, opt)
}

// JoinCtx is Join under a cancellation context; see SelfJoinCtx for the
// cancellation semantics.
func JoinCtx(ctx context.Context, h *hierarchy.Hierarchy, r, s [][]string, opt Options) ([]Pair, *Stats, error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	j := newJoiner(h, opt)
	j.cc = ctx
	t0 := time.Now()
	robjs := j.resolveAll(r)
	sobjs := j.resolveAll(s)
	j.res.ResolveAll(opt.Workers)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	j.sp.Warm(j.res.Len(), opt.Workers)
	order := j.dfOrder(robjs, sobjs)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	j.prefixes(robjs, order, false)
	j.prefixes(sobjs, order, false)
	j.st.Preprocess = time.Since(t0)
	j.st.Objects = len(robjs) + len(sobjs)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Index the larger set, probe with the smaller (§6.1).
	big, small := robjs, sobjs
	swapped := false
	if len(sobjs) > len(robjs) {
		big, small = sobjs, robjs
		swapped = true
	}
	t1 := time.Now()
	rk := j.rank(big)
	j.st.BuildIndex = time.Since(t1)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	pairs := j.probe(small, rk, false, swapped)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return pairs, &j.st, nil
}

// result accumulates one probe worker's output: pairs plus counters,
// published once when the worker exits (per-candidate writes into a
// shared slice would false-share cache lines between workers).
type result struct {
	pairs []Pair
	probeCounts
}

// probe runs the candidate-generation + verification loop of a batch
// join: every probe object is a candidate with each indexed object inside
// its size range that posts a signature of its prefix. In a self join
// probes is the indexed collection itself, in rank order, and only lower
// ranks qualify — each pair meets once, at its larger object, which is
// what lets the smaller one index the shorter prefix. In an R-S join
// probes is the smaller collection and probesAreR records which side of
// the result pair it supplies.
func (j *joiner) probe(probes []prepped, rk *ranked, self, probesAreR bool) []Pair {
	t0 := time.Now()
	workers := j.workerCount(len(probes))

	// The gate's table is built once and shared read-only by the workers.
	maxProbe := 0
	for i := range probes {
		maxProbe = max(maxProbe, len(probes[i].Elems))
	}
	gate := newSizeGate(&j.opt, maxProbe)
	var input []int32 // of a self join: run orients each pair by it
	if self {
		input = rk.input
	}

	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Work on worker-local state and publish once at the end:
			// per-candidate writes into the shared results slice would
			// false-share cache lines between workers. Each worker's
			// kernel verifies on its own Context clone, whose Scratch makes
			// the steady-state verify path allocation-free and race-free.
			k := newKernel(j.ctx.Clone(), &j.opt, gate)
			var pairs []Pair
			processed := 0
			for x := w; x < len(probes); x += workers {
				processed++
				if processed%probeProgressStep == 0 {
					j.opt.progress("probe", min(processed*workers, len(probes)), len(probes))
				}
				if j.cc.Err() != nil {
					break // join is cancelled; caller surfaces j.cc.Err()
				}
				px := &probes[x]
				lo, hi := rk.interval(gate.bounds(len(px.Elems)))
				if self {
					hi = int32(x) // x itself is inside its own size range
				}
				k.begin(len(rk.objs))
				k.gatherRanked(rk, px, lo, hi)
				if !k.run(j.cc, px, rk, input, int32(x)) {
					break // cancelled mid-object: abandon it whole
				}
				xin := x // the probe's index in its input collection
				if self {
					xin = int(rk.input[x])
				}
				for _, h := range k.hits {
					p := Pair{X: int(rk.input[h.id]), Y: xin, Sim: h.sim}
					if probesAreR || (self && p.X > p.Y) {
						p.X, p.Y = p.Y, p.X
					}
					pairs = append(pairs, p)
				}
			}
			results[w] = result{pairs: pairs, probeCounts: k.probeCounts}
		}(w)
	}
	wg.Wait()
	out := j.mergeResults(results)
	j.st.Probe = time.Since(t0)
	return out
}

// mergeResults concatenates the per-worker probe results into one
// pre-sized, deterministically ordered pair list and folds the worker
// counters into the join statistics.
func (j *joiner) mergeResults(results []result) []Pair {
	total := 0
	for i := range results {
		total += len(results[i].pairs)
	}
	out := make([]Pair, 0, total)
	for i := range results {
		out = append(out, results[i].pairs...)
		results[i].drainInto(&j.st)
	}
	sortPairs(out)
	return out
}

// sortPairs orders pairs by (X, Y).
func sortPairs(pairs []Pair) {
	slices.SortFunc(pairs, func(a, b Pair) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Y, b.Y)
	})
}

// Similarity computes SIMδ(x, y) exactly for a single pair of tokenized
// objects (Definition 2 under the configured metrics and resolution).
func Similarity(h *hierarchy.Hierarchy, x, y []string, opt Options) (float64, error) {
	return SimilarityCtx(context.Background(), h, x, y, opt)
}

// SimilarityCtx is Similarity under a cancellation context. Both objects
// must be structurally valid (non-empty token lists, no empty tokens);
// violations return an *InputError.
func SimilarityCtx(ctx context.Context, h *hierarchy.Hierarchy, x, y []string, opt Options) (float64, error) {
	if err := opt.validate(); err != nil {
		return 0, err
	}
	if err := validateTokens(x); err != nil {
		return 0, err
	}
	if err := validateTokens(y); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	j := newJoiner(h, opt)
	j.cc = ctx
	objs := j.resolveAll([][]string{x, y})
	for i := range objs {
		if ctx.Err() != nil {
			break // surfaced by the ctx.Err() check below
		}
		for _, e := range objs[i].Elems {
			j.sp.GroupKeys(e)
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return j.ctx.Similarity(objs[0].Elems, objs[1].Elems), nil
}

// NaiveSelfJoin computes the exact answer with no filtering: every pair
// is verified with the exact similarity. It is the correctness oracle for
// tests and the quality reference for effectiveness experiments.
func NaiveSelfJoin(h *hierarchy.Hierarchy, objects [][]string, opt Options) ([]Pair, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	j := newJoiner(h, opt)
	objs := j.resolveAll(objects)
	// Warm caches for the verification context.
	for i := range objs {
		for _, e := range objs[i].Elems {
			j.sp.GroupKeys(e)
		}
	}
	var out []Pair
	for x := 1; x < len(objs); x++ {
		for y := 0; y < x; y++ {
			s := j.ctx.Similarity(objs[x].Elems, objs[y].Elems)
			if mathx.GE(s, opt.Tau) {
				out = append(out, Pair{X: y, Y: x, Sim: s})
			}
		}
	}
	sortPairs(out)
	return out, nil
}
