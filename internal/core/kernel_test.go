package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kjoin/internal/dataset"
	"kjoin/internal/hierarchy"
	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
)

// TestSizeGateMatchesPredicate is the gate's soundness property: for
// every set metric, a τ grid and all sizes up to 64, a candidate size
// falls outside the probe size's [lo, hi] exactly when the verifier's
// own size-only predicate says the pair cannot reach τ — so the gate
// never drops a pair count pruning would have kept — whether the range
// comes from the precomputed table or is computed on demand.
func TestSizeGateMatchesPredicate(t *testing.T) {
	const maxSize = 64
	taus := []float64{0.01, 1.0 / 3, 0.5, 2.0 / 3, 0.85, 0.999, 1}
	for tau := 0.05; tau < 1; tau += 0.05 {
		taus = append(taus, tau)
	}
	for _, set := range []setmetric.Kind{setmetric.Jaccard, setmetric.Dice, setmetric.Cosine} {
		for _, tau := range taus {
			opt := Options{Set: set, Tau: tau}
			table, onDemand := newSizeGate(&opt, maxSize), newSizeGate(&opt, 0)
			for nx := 1; nx <= maxSize; nx++ {
				r := table.bounds(nx)
				if od := onDemand.bounds(nx); od != r {
					t.Fatalf("%v τ=%v nx=%d: table %v, on demand %v", set, tau, nx, r, od)
				}
				for ny := 1; ny <= maxSize; ny++ {
					rejected := mathx.LT(float64(min(nx, ny)), set.PairOverlap(tau, nx, ny))
					if gated := int32(ny) < r.lo || int32(ny) > r.hi; gated != rejected {
						t.Fatalf("%v τ=%v nx=%d ny=%d: gate rejects=%v (range %v), predicate rejects=%v",
							set, tau, nx, ny, gated, r, rejected)
					}
				}
			}
		}
	}

	// Exact boundaries: at Jaccard τ=0.5 sizes 1 and 2 need overlap
	// exactly 1, which one shared element reaches; sizes 1 and 3 need 4/3.
	opt := Options{Set: setmetric.Jaccard, Tau: 0.5}
	g := newSizeGate(&opt, 0)
	if r := g.bounds(1); r != (sizeRange{1, 2}) {
		t.Errorf("Jaccard τ=0.5 size 1: range %v, want [1, 2]", r)
	}
	if r := g.bounds(2); r != (sizeRange{1, 4}) {
		t.Errorf("Jaccard τ=0.5 size 2: range %v, want [1, 4]", r)
	}
}

// kernelCorpus is a random corpus salted with the shapes a size filter
// could get wrong: single-token objects, one token repeated, and runs of
// identical objects.
func kernelCorpus(seed int64) (*hierarchy.Hierarchy, [][]string) {
	r := rand.New(rand.NewSource(seed))
	h := randHierarchy(r, 40)
	objs := randObjects(r, h, 36)
	names := h.Names()
	twin := []string{names[1], names[2], names[3], "alpha"}
	for i := 0; i < 4; i++ {
		one := names[1+r.Intn(len(names)-1)]
		objs = append(objs, []string{one}, []string{one, one, one}, slices.Clone(twin))
	}
	r.Shuffle(len(objs), func(i, k int) { objs[i], objs[k] = objs[k], objs[i] })
	return h, objs
}

// checkFunnel asserts the counter contract: every candidate is either
// removed by the size gate or handed to the verifier.
func checkFunnel(t *testing.T, path string, candidates, sizePruned, verified int64) {
	t.Helper()
	if candidates != sizePruned+verified {
		t.Errorf("%s: Candidates=%d != SizePruned=%d + Verify.Pairs=%d", path, candidates, sizePruned, verified)
	}
}

// TestKernelPathsMatchNaive drives the kernel through all four of its
// callers — SelfJoin, Join, Indexer.Add and Indexer.Query — and checks
// each against NaiveSelfJoin in pair set and similarity bits, across set
// metric × Plus × Workers, along with the Candidates/SizePruned/Pairs
// contract on every path.
func TestKernelPathsMatchNaive(t *testing.T) {
	var sizePruned int64
	for si, set := range []setmetric.Kind{setmetric.Jaccard, setmetric.Dice, setmetric.Cosine} {
		for _, plus := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%v plus=%v workers=%d", set, plus, workers)
				h, objs := kernelCorpus(int64(300 + si))
				opt := Defaults(0.6, 0.55)
				opt.Set, opt.Plus, opt.Workers = set, plus, workers
				naive, err := NaiveSelfJoin(h, objs, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(naive) < 10 {
					t.Fatalf("%s: only %d true pairs; corpus too sparse to test anything", name, len(naive))
				}

				got, st, err := SelfJoin(h, objs, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !samePairs(got, naive) {
					t.Errorf("%s: SelfJoin diverges from naive\n got  %v\n want %v", name, got, naive)
				}
				checkFunnel(t, name+" SelfJoin", st.Candidates, st.SizePruned, st.Verify.Pairs)
				sizePruned += st.SizePruned

				// R is the larger side, so S probes and every pair is scored
				// in the naive join's (later object, earlier object) order.
				cut := len(objs) * 3 / 5
				var wantRS []Pair
				for _, p := range naive {
					if p.X < cut && p.Y >= cut {
						wantRS = append(wantRS, Pair{X: p.X, Y: p.Y - cut, Sim: p.Sim})
					}
				}
				gotRS, st, err := Join(h, objs[:cut], objs[cut:], opt)
				if err != nil {
					t.Fatal(err)
				}
				if !samePairs(gotRS, wantRS) {
					t.Errorf("%s: Join diverges from naive\n got  %v\n want %v", name, gotRS, wantRS)
				}
				checkFunnel(t, name+" Join", st.Candidates, st.SizePruned, st.Verify.Pairs)
				sizePruned += st.SizePruned

				// Stream the corpus: before object i is added, a query for it
				// must find exactly the naive pairs (·, i), and so must its add.
				opt.SealEvery = 7
				ix, err := NewIndexer(h, opt)
				if err != nil {
					t.Fatal(err)
				}
				qk := ix.vpool.New().(*kernel)
				var gotAdd, gotQuery []Pair
				for i, o := range objs {
					q, err := ix.PrepareQuery(o)
					if err != nil {
						t.Fatal(err)
					}
					ms, err := ix.runQuery(context.Background(), q, qk)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range ms {
						gotQuery = append(gotQuery, Pair{X: m.Index, Y: i, Sim: m.Sim})
					}
					pairs, err := ix.Add(o)
					if err != nil {
						t.Fatal(err)
					}
					gotAdd = append(gotAdd, pairs...)
				}
				sortPairs(gotAdd)
				sortPairs(gotQuery)
				if !samePairs(gotAdd, naive) {
					t.Errorf("%s: Indexer.Add diverges from naive\n got  %v\n want %v", name, gotAdd, naive)
				}
				if !samePairs(gotQuery, naive) {
					t.Errorf("%s: Indexer.Query diverges from naive\n got  %v\n want %v", name, gotQuery, naive)
				}
				ist := ix.Stats()
				checkFunnel(t, name+" Indexer.Add", ist.Candidates, ist.SizePruned, ist.Verify.Pairs)
				checkFunnel(t, name+" Indexer.Query", qk.candidates, qk.sizePruned, qk.vst.Pairs)
				if qk.candidates != ist.Candidates || qk.sizePruned != ist.SizePruned {
					t.Errorf("%s: query funnel %d/%d differs from add funnel %d/%d over the same probes",
						name, qk.candidates, qk.sizePruned, ist.Candidates, ist.SizePruned)
				}
				sizePruned += ist.SizePruned
			}
		}
	}
	if sizePruned == 0 {
		t.Error("the size gate never rejected a candidate; the corpus does not exercise it")
	}
}

// TestEnginePrefixesAscending pins what RunQuery's memtable scan relies
// on: the engine orders signatures by id, so every prefix it stores or
// prepares is strictly ascending.
func TestEnginePrefixesAscending(t *testing.T) {
	h, objs := kernelCorpus(5)
	for _, weighted := range []bool{false, true} {
		opt := Defaults(0.6, 0.5)
		opt.Weighted, opt.Plus = weighted, true
		ix, err := NewIndexer(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		addAll(t, ix, objs)
		v := ix.view.Load()
		for id := 0; id < v.total; id++ {
			if p := v.objAt(id).prefix; !slices.IsSorted(p) || len(slices.Compact(slices.Clone(p))) != len(p) {
				t.Fatalf("weighted=%v object %d: prefix %v not strictly ascending", weighted, id, p)
			}
		}
	}
}

// batchState preprocesses objs the way SelfJoin does and returns the
// joiner, the prepped objects in input order and their ranked index.
func batchState(h *hierarchy.Hierarchy, objects [][]string, opt Options) (*joiner, []prepped, *ranked) {
	j := newJoiner(h, opt)
	objs := j.resolveAll(objects)
	j.res.ResolveAll(opt.Workers)
	j.sp.Warm(j.res.Len(), opt.Workers)
	j.prefixes(objs, j.dfOrder(objs), true)
	return j, objs, j.rank(objs)
}

// batchKernel returns a kernel over the ranked index and a function
// running one self-join batch, the probe of rank x, the way probe does.
func batchKernel(j *joiner, rk *ranked) (*kernel, func(ctx context.Context, x int) bool) {
	gate := newSizeGate(&j.opt, len(rk.first)-2)
	k := newKernel(j.ctx.Clone(), &j.opt, gate)
	return k, func(ctx context.Context, x int) bool {
		px := &rk.objs[x]
		lo, _ := rk.interval(gate.bounds(len(px.Elems)))
		k.begin(len(rk.objs))
		k.gatherRanked(rk, px, lo, int32(x))
		return k.run(ctx, px, rk, rk.input, int32(x))
	}
}

// TestKernelSteadyStateZeroAlloc pins the kernel's allocation contract:
// once its buffers and verify scratch have grown to the workload, a
// whole ranked-gather → verify batch allocates nothing.
func TestKernelSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful in -short mode")
	}
	h, objects := cancelWorkload(60, 400, 8)
	for i := range objects {
		objects[i] = objects[i][:1+i%8] // mixed sizes, so the size bound has work
	}
	j, _, rk := batchState(h, objects, Defaults(0.5, 0.4))
	k, batch := batchKernel(j, rk)
	ctx := context.Background()
	// What the prefixes gather with no size bound, read off the funnel: the
	// gather books the candidates its sketch settles, run books the rest.
	for x := range rk.objs {
		k.begin(len(rk.objs))
		k.gatherRanked(rk, &rk.objs[x], 0, int32(x))
		k.run(ctx, &rk.objs[x], rk, rk.input, int32(x))
	}
	unbounded := k.candidates
	k.probeCounts = probeCounts{}
	for x := range rk.objs {
		batch(ctx, x)
	}
	if k.vst.Results == 0 || k.candidates >= unbounded || k.sizePruned != 0 || k.vst.CountPruned == 0 {
		t.Fatalf("warm-up did not reach every stage (%d candidates without the size bound): %+v", unbounded, k.probeCounts)
	}
	x := 0
	allocs := testing.AllocsPerRun(len(rk.objs), func() {
		batch(ctx, x%len(rk.objs))
		x++
	})
	if allocs != 0 {
		t.Errorf("steady-state kernel batch: %v allocs, want 0", allocs)
	}
}

// TestSketchGatePrecision pins the hit rate of the gather's sketch gate
// on the workload it exists for: a tweet-shaped join, where nearly every
// candidate dies in count pruning. The gate may only ever settle pairs
// count pruning rejects, and must settle at least 95 % of them — a hash
// or column-layout change that blunts it costs no test a result, only
// this one its margin.
func TestSketchGatePrecision(t *testing.T) {
	hr := dataset.GenHierarchy(dataset.DefaultHierarchy())
	recs := dataset.GenRecords(hr, dataset.TweetConfig(4000)).Records
	j, _, rk := batchState(hr.H, recs, Defaults(0.8, 0.85))
	k, batch := batchKernel(j, rk)
	for x := range rk.objs {
		batch(context.Background(), x)
	}
	pruned := k.vst.CountPruned
	if pruned < 10000 {
		t.Fatalf("only %d count-pruned candidates; corpus too small to measure a rate", pruned)
	}
	if k.sketchPruned > pruned || 100*k.sketchPruned < 95*pruned {
		t.Errorf("sketch settled %d of %d count-pruned candidates; want at least 95%% and no more than all", k.sketchPruned, pruned)
	}
	t.Logf("sketch settled %d of %d count-pruned candidates (%d candidates)", k.sketchPruned, pruned, k.candidates)
}

// countdownCtx reports cancellation from its n-th Err call on.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestKernelCancelStopsWholeObject cancels in the middle of one probe
// object's batch: the kernel must abandon the object (not just one
// postings list), say so, and leave its counters consistent.
func TestKernelCancelStopsWholeObject(t *testing.T) {
	h, objects := cancelWorkload(20, 1500, 6)
	j, _, rk := batchState(h, objects, Defaults(0.5, 0.1))
	k, batch := batchKernel(j, rk)
	x := len(rk.objs) - 1
	if batch(&countdownCtx{Context: context.Background(), n: 2}, x) {
		t.Fatal("run reported completion under a cancelled context")
	}
	gathered := len(k.cands)
	if gathered < 4*cancelCheckEvery {
		t.Fatalf("only %d candidates; need several cancellation checks' worth", gathered)
	}
	// The gather booked the pairs its sketch settled; the rest are run's.
	if ran := k.vst.Pairs - k.sketchPruned; ran == 0 || ran >= int64(gathered) {
		t.Errorf("verified %d of %d candidates; want a strict, non-empty part", ran, gathered)
	}
	checkFunnel(t, "cancelled batch", k.candidates, k.sizePruned, k.vst.Pairs)
}
