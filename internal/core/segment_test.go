package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"kjoin/internal/hierarchy"
)

// segDiffCorpus builds a hierarchy and object stream sized so a small
// SealEvery produces several seals and merges.
func segDiffCorpus(seed int64, count int) (*hierarchy.Hierarchy, [][]string) {
	r := rand.New(rand.NewSource(seed))
	h := randHierarchy(r, 40)
	return h, randObjects(r, h, count)
}

// addAll streams objs into ix, collecting every emitted pair in
// insertion order.
func addAll(t *testing.T, ix *Indexer, objs [][]string) []Pair {
	t.Helper()
	var out []Pair
	for _, o := range objs {
		pairs, err := ix.Add(o)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pairs...)
	}
	return out
}

// pairBits renders pairs with the exact bit pattern of their
// similarities, so a comparison is bit-identity, not tolerance.
func pairBits(pairs []Pair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = fmt.Sprintf("%d-%d:%016x", p.X, p.Y, math.Float64bits(p.Sim))
	}
	return out
}

func matchBits(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("%d:%016x", m.Index, math.Float64bits(m.Sim))
	}
	return out
}

// TestSegmentedDifferentialBitIdentical pins the tentpole invariant:
// the segmented engine (small memtable, background merges racing the
// adds) must produce bit-for-bit the same pairs, query answers and
// logical statistics as the single-structure path (memtable so large it
// never seals), for both worker settings.
func TestSegmentedDifferentialBitIdentical(t *testing.T) {
	h, objs := segDiffCorpus(7, 120)
	for _, workers := range []int{1, 4} {
		for _, weighted := range []bool{false, true} {
			opt := Defaults(0.7, 0.5)
			opt.Weighted = weighted
			opt.ComputeSims = true
			opt.Workers = workers

			single := opt
			single.SealEvery = len(objs) + 1
			sIx, err := NewIndexer(h, single)
			if err != nil {
				t.Fatal(err)
			}
			wantPairs := addAll(t, sIx, objs)

			segmented := opt
			segmented.SealEvery = 7
			gIx, err := NewIndexer(h, segmented)
			if err != nil {
				t.Fatal(err)
			}
			gotPairs := addAll(t, gIx, objs)
			gIx.WaitMerges()

			name := fmt.Sprintf("workers=%d weighted=%v", workers, weighted)
			if !reflect.DeepEqual(pairBits(gotPairs), pairBits(wantPairs)) {
				t.Fatalf("%s: pair streams diverge:\nsegmented %v\nsingle    %v",
					name, pairBits(gotPairs), pairBits(wantPairs))
			}
			if gIx.Len() != sIx.Len() {
				t.Fatalf("%s: Len %d vs %d", name, gIx.Len(), sIx.Len())
			}
			gs, ss := gIx.Stats(), sIx.Stats()
			if gs.Objects != ss.Objects || gs.Candidates != ss.Candidates || gs.SizePruned != ss.SizePruned ||
				gs.SigEntries != ss.SigEntries || gs.Verify != ss.Verify {
				t.Fatalf("%s: logical stats diverge: %+v vs %+v", name, gs, ss)
			}

			// Query both engines with every object's tokens: the
			// answers (and similarity bits) must match.
			for i := 0; i < len(objs); i += 13 {
				gm, err := gIx.Query(objs[i])
				if err != nil {
					t.Fatal(err)
				}
				sm, err := sIx.Query(objs[i])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(matchBits(gm), matchBits(sm)) {
					t.Fatalf("%s: query %d diverges: %v vs %v",
						name, i, matchBits(gm), matchBits(sm))
				}
			}

			if st := gIx.SegmentStats(); st.SealTotal == 0 {
				t.Fatalf("%s: segmented run never sealed (SegmentStats %+v)", name, st)
			}
		}
	}
}

// TestQueryCountsNeverLeakIntoStats interleaves queries with adds that
// cross seals and merges, with more queries racing from another
// goroutine. Adds and queries borrow kernels from one pool, so a query's
// probe counts left in a kernel would reach the next add's Stats: the
// logical statistics must equal those of the same adds run alone. A
// query interns its unseen tokens, and the engine orders signatures by
// id, so every query here repeats an object already added or the one
// about to be: the adds' signature ids stay those of the lone run.
func TestQueryCountsNeverLeakIntoStats(t *testing.T) {
	h, objs := segDiffCorpus(17, 150)
	opt := Defaults(0.7, 0.5)
	opt.SealEvery = 5
	alone, err := NewIndexer(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, alone, objs)
	ix, err := NewIndexer(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ix.Query(objs[i%max(ix.Len(), 1)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i, o := range objs {
		for _, q := range [][]string{o, objs[(i*7)%(i+1)]} {
			if _, err := ix.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ix.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	ix.WaitMerges()
	if st := ix.SegmentStats(); st.SealTotal == 0 || st.MergeTotal == 0 {
		t.Fatalf("adds never crossed a seal and a merge: %+v", st)
	}
	got, want := ix.Stats(), alone.Stats()
	if got.Objects != want.Objects || got.Candidates != want.Candidates || got.SizePruned != want.SizePruned ||
		got.SigEntries != want.SigEntries || got.Verify != want.Verify {
		t.Fatalf("stats with queries %+v, adds alone %+v", got, want)
	}
}

// TestSegmentedConcurrentStress races adders, forced seals, background
// merges, lock-free queries and WaitMerges against each other; run
// under -race it is the engine's memory-model check. Every query must
// see a consistent epoch: answers drawn from a prefix of the insertion
// order, each with a valid similarity.
func TestSegmentedConcurrentStress(t *testing.T) {
	h, objs := segDiffCorpus(11, 200)
	opt := Defaults(0.7, 0.5)
	opt.ComputeSims = true
	opt.SealEvery = 5
	ix, err := NewIndexer(h, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-prepare queries once so queriers exercise RunQuery, the
	// lock-free path, rather than re-prepping.
	var queries []*PreparedQuery
	for i := 0; i < 8; i++ {
		q, err := ix.PrepareQuery(objs[i*7])
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	done := make(chan struct{})

	// One writer: the engine serializes adds internally; a single
	// streaming writer matches the production shape (server handleAdd).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, o := range objs {
			if _, err := ix.Add(o); err != nil {
				errc <- err
				return
			}
		}
	}()

	// A sealer forcing extra seals mid-stream, and a merger-waiter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := ix.Seal(); err != nil {
				errc <- err
				return
			}
			ix.WaitMerges()
		}
	}()

	// Queriers hammer the lock-free read path.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				n := ix.Len()
				ms, err := ix.RunQuery(ctx, queries[(g+i)%len(queries)])
				if err != nil {
					errc <- err
					return
				}
				for _, m := range ms {
					// The pinned epoch may be newer than the Len read
					// above, never older — and never beyond the corpus.
					if m.Index < 0 || m.Index >= len(objs) {
						errc <- fmt.Errorf("match index %d outside corpus", m.Index)
						return
					}
					if m.Index < n && (m.Sim < 0 || m.Sim > 1.0000001) {
						errc <- fmt.Errorf("similarity %v out of range", m.Sim)
						return
					}
				}
				_ = ix.Stats()
				_ = ix.SegmentStats()
			}
		}(g)
	}

	writerDone := make(chan struct{})
	go func() { wg.Wait(); close(writerDone) }()
	// Let the writer finish, then stop the loops.
	for {
		if ix.Len() == len(objs) {
			break
		}
		select {
		case err := <-errc:
			t.Fatal(err)
		case <-time.After(time.Millisecond):
		}
	}
	close(done)
	<-writerDone
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	ix.WaitMerges()

	// The quiesced engine must answer exactly like a fresh rebuild.
	want, err := NewIndexer(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, want, objs)
	want.WaitMerges()
	for i := 0; i < len(objs); i += 31 {
		gm, err := ix.Query(objs[i])
		if err != nil {
			t.Fatal(err)
		}
		wm, err := want.Query(objs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(matchBits(gm), matchBits(wm)) {
			t.Fatalf("post-stress query %d diverges: %v vs %v", i, matchBits(gm), matchBits(wm))
		}
	}
}

// TestSnapshotV3SegmentLayoutRoundTrip proves a v3 snapshot carries the
// segment layout: loading must reproduce the exact pre-snapshot
// SegmentSizes (not re-derive a fresh layout) plus identical answers.
func TestSnapshotV3SegmentLayoutRoundTrip(t *testing.T) {
	h, objs := segDiffCorpus(23, 90)
	opt := Defaults(0.7, 0.5)
	opt.ComputeSims = true
	opt.SealEvery = 8
	ix, err := NewIndexer(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, ix, objs)
	// Snapshot mid-merge-schedule: seal the tail but do NOT wait for
	// merges first, so the recorded layout is a genuinely intermediate
	// one a naive reload would not land on.
	if err := ix.Seal(); err != nil {
		t.Fatal(err)
	}
	// Read the layout off the epoch the snapshot writes: a merge the seal
	// started may land between two separate loads of the view.
	pin := ix.Pin()
	var wantSizes []int
	for _, s := range pin.v.segs {
		wantSizes = append(wantSizes, len(s.objs))
	}
	if len(wantSizes) < 2 {
		t.Fatalf("corpus too small to exercise layout: %v", wantSizes)
	}

	var buf bytes.Buffer
	if err := pin.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	ix.WaitMerges()

	got, err := LoadIndexer(h, opt, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sizes := got.SegmentSizes(); !reflect.DeepEqual(sizes, wantSizes) {
		t.Fatalf("loaded layout %v, snapshot recorded %v", sizes, wantSizes)
	}
	if got.Len() != len(objs) {
		t.Fatalf("loaded Len %d, want %d", got.Len(), len(objs))
	}
	for i := 0; i < len(objs); i += 17 {
		gm, err := got.Query(objs[i])
		if err != nil {
			t.Fatal(err)
		}
		wm, err := ix.Query(objs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(matchBits(gm), matchBits(wm)) {
			t.Fatalf("loaded query %d diverges: %v vs %v", i, matchBits(gm), matchBits(wm))
		}
	}
	got.WaitMerges()
}

// TestMergePlanPolicy pins the leftmost-adjacent policy and its
// confluence measure: mergePlan picks the leftmost adjacent pair whose
// left size does not exceed its right, and mergeBacklog counts the
// steps to fixpoint.
func TestMergePlanPolicy(t *testing.T) {
	seg := func(n int) *segment {
		return &segment{objs: make([]prepped, n)}
	}
	segs := func(sizes ...int) []*segment {
		out := make([]*segment, len(sizes))
		for i, n := range sizes {
			out[i] = seg(n)
		}
		return out
	}
	cases := []struct {
		sizes   []int
		plan    int
		backlog int
	}{
		{nil, -1, 0},
		{[]int{5}, -1, 0},
		{[]int{9, 5}, -1, 0},          // strictly descending: fixpoint
		{[]int{5, 9}, 0, 1},           // ascending pair merges once
		{[]int{256, 256, 300}, 0, 1},  // 256+256=512 > 300: one step to fixpoint
		{[]int{4, 4, 4, 4}, 0, 3},     // equal run collapses fully
		{[]int{100, 20, 20, 5}, 1, 1}, // leftmost violation is interior
		{[]int{1, 2, 3}, 0, 2},        // ascending chain collapses fully
		{[]int{50, 10, 60, 10, 70, 10}, 1, 3},
	}
	for _, c := range cases {
		if got := mergePlan(segs(c.sizes...)); got != c.plan {
			t.Errorf("mergePlan(%v) = %d, want %d", c.sizes, got, c.plan)
		}
		if got := mergeBacklog(c.sizes); got != c.backlog {
			t.Errorf("mergeBacklog(%v) = %d, want %d", c.sizes, got, c.backlog)
		}
	}
}

// TestMergeConfluence checks that the synchronous fixpoint (replay
// paths) and the background merger converge on the same layout for the
// same insertion stream — the property that makes recovery layouts
// reproducible.
func TestMergeConfluence(t *testing.T) {
	h, objs := segDiffCorpus(31, 100)
	opt := Defaults(0.7, 0.5)
	opt.SealEvery = 6

	bg, err := NewIndexer(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, bg, objs)
	bg.WaitMerges()

	sync_, err := NewIndexer(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sync_.ApplyLoggedRun(1, objs); err != nil {
		t.Fatal(err)
	}
	sync_.WaitMerges()

	if !reflect.DeepEqual(bg.SegmentSizes(), sync_.SegmentSizes()) {
		t.Fatalf("background layout %v, synchronous replay layout %v",
			bg.SegmentSizes(), sync_.SegmentSizes())
	}
}
