package core

// Tests of the size-ranked batch index: the rank order and its size →
// rank-interval map, the soundness of probing-prefix × indexing-prefix
// filtering on the corpus shapes that could break it, and the two-sided
// interval of an R-S join in both of its orientations.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kjoin/internal/hierarchy"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
)

// TestRankInterval builds the ranked index of a collection with sizes
// 0, 1, 3 and 6 (2, 4 and 5 absent) and reads size ranges back as rank
// intervals, then checks the index itself: rank order, the input map and
// the postings.
func TestRankInterval(t *testing.T) {
	h, _ := cancelWorkload(12, 0, 0)
	tok := func(ids ...int) []string {
		var o []string
		for _, i := range ids {
			o = append(o, fmt.Sprintf("tok%03d", i))
		}
		return o
	}
	objects := [][]string{
		tok(0, 1, 2), tok(3), tok(0, 1, 2, 3, 4, 5), {}, tok(1, 2, 4), tok(3), tok(2, 3, 5),
	}
	j, objs, rk := batchState(h, objects, Defaults(0.6, 0.5))

	wantInput := []int32{3, 1, 5, 0, 4, 6, 2} // by (size, input index)
	if !slices.Equal(rk.input, wantInput) {
		t.Fatalf("rank → input = %v, want %v", rk.input, wantInput)
	}
	for r, in := range rk.input {
		if got, want := rk.objs[r].Elems, objs[in].Elems; !slices.Equal(got, want) {
			t.Errorf("rank %d holds %v, input %d is %v", r, got, in, want)
		}
	}
	const inf = math.MaxInt32
	for _, c := range []struct {
		r      sizeRange
		lo, hi int32
	}{
		{sizeRange{0, 0}, 0, 1},
		{sizeRange{1, 1}, 1, 3},
		{sizeRange{2, 2}, 3, 3}, // absent size: empty interval
		{sizeRange{2, 3}, 3, 6},
		{sizeRange{1, 3}, 1, 6},
		{sizeRange{4, 5}, 6, 6}, // absent sizes between two present ones
		{sizeRange{3, 6}, 3, 7},
		{sizeRange{6, inf}, 6, 7}, // hi past the largest size
		{sizeRange{7, 9}, 7, 7},   // wholly past the largest size
		{sizeRange{1, inf}, 1, 7},
	} {
		if lo, hi := rk.interval(c.r); lo != c.lo || hi != c.hi {
			t.Errorf("sizes %v: ranks [%d, %d), want [%d, %d)", c.r, lo, hi, c.lo, c.hi)
		}
	}

	// Every signature posts exactly the ranks whose indexing prefix holds
	// it, ascending; the empty object is ranked but posts nothing.
	if len(rk.off) != j.sp.NumSigs()+1 {
		t.Fatalf("off covers %d signatures, space has %d", len(rk.off)-1, j.sp.NumSigs())
	}
	posted := 0
	for s := 0; s+1 < len(rk.off); s++ {
		list := rk.post[rk.off[s]:rk.off[s+1]]
		if !slices.IsSorted(list) || len(slices.Compact(slices.Clone(list))) != len(list) {
			t.Errorf("signature %d: postings %v not strictly ascending", s, list)
		}
		for _, r := range list {
			o := &rk.objs[r]
			if !slices.Contains(o.prefix[:o.ixLen], int32(s)) {
				t.Errorf("signature %d posts rank %d, whose indexing prefix is %v", s, r, o.prefix[:o.ixLen])
			}
		}
		posted += len(list)
	}
	want := 0
	for r := range rk.objs {
		want += int(rk.objs[r].ixLen)
	}
	if posted != want || len(rk.objs[0].prefix) != 0 {
		t.Errorf("%d postings for %d indexing-prefix signatures; empty object's prefix %v", posted, want, rk.objs[0].prefix)
	}
}

// prefixCorpora returns the collection shapes the indexing prefix could
// be wrong on, each over its own random hierarchy.
func prefixCorpora(seed int64) map[string]func() (*hierarchy.Hierarchy, [][]string) {
	gen := func(shape func(r *rand.Rand, names []string, objs [][]string) [][]string) func() (*hierarchy.Hierarchy, [][]string) {
		return func() (*hierarchy.Hierarchy, [][]string) {
			r := rand.New(rand.NewSource(seed))
			h := randHierarchy(r, 30+r.Intn(30))
			objs := shape(r, h.Names(), randObjects(r, h, 30))
			r.Shuffle(len(objs), func(i, k int) { objs[i], objs[k] = objs[k], objs[i] })
			return h, objs
		}
	}
	return map[string]func() (*hierarchy.Hierarchy, [][]string){
		"random": gen(func(_ *rand.Rand, _ []string, objs [][]string) [][]string { return objs }),
		"equal sizes": gen(func(r *rand.Rand, names []string, objs [][]string) [][]string {
			for i := range objs { // rank ties everywhere: rank order is input order
				objs[i] = nil
				for _, k := range r.Perm(len(names) - 1)[:3] {
					objs[i] = append(objs[i], names[1+k])
				}
			}
			return objs
		}),
		"singletons, empties, duplicates": gen(func(r *rand.Rand, names []string, objs [][]string) [][]string {
			for i := 0; i < 6; i++ {
				one := names[1+r.Intn(len(names)-1)]
				objs = append(objs, []string{one}, []string{one}, []string{}, slices.Clone(objs[i]))
			}
			return objs
		}),
		"hot token": gen(func(_ *rand.Rand, names []string, objs [][]string) [][]string {
			for i := range objs {
				objs[i] = append(objs[i], names[1])
			}
			return objs
		}),
	}
}

// TestIndexingPrefixSound is the soundness property of the batch filter,
// checked at the prefixes themselves: for every pair NaiveSelfJoin
// returns, the probing prefix of the pair's higher-ranked object and the
// indexing prefix of its lower-ranked one share a signature, and the
// lower rank is inside the higher one's size interval. (Two empty objects
// are similar by definition and have no signatures: the join has never
// returned them.) The join built on those prefixes must then return
// exactly the naive pairs without its size gate ever firing.
func TestIndexingPrefixSound(t *testing.T) {
	pairsSeen, shorter := 0, 0
	for name, corpus := range prefixCorpora(11) {
		for _, scheme := range []sig.Scheme{sig.Node, sig.Shallow, sig.Deep} {
			for _, weighted := range []bool{false, true} {
				for _, set := range []setmetric.Kind{setmetric.Jaccard, setmetric.Dice, setmetric.Cosine} {
					for _, plus := range []bool{false, true} {
						for _, tau := range []float64{0.45, 1} {
							for _, workers := range []int{1, 4} {
								opt := Defaults(0.6, tau)
								opt.Scheme, opt.Weighted, opt.Set, opt.Plus, opt.Workers = scheme, weighted, set, plus, workers
								cfg := fmt.Sprintf("%s %v weighted=%v %v plus=%v τ=%v workers=%d", name, scheme, weighted, set, plus, tau, workers)
								h, objects := corpus()
								naive, err := NaiveSelfJoin(h, objects, opt)
								if err != nil {
									t.Fatal(err)
								}
								_, objs, rk := batchState(h, objects, opt)
								rankOf := make([]int32, len(objs))
								for r, in := range rk.input {
									rankOf[in] = int32(r)
								}
								gate := newSizeGate(&opt, len(rk.first)-2)
								var want []Pair
								for _, p := range naive {
									if len(objs[p.X].Elems) == 0 && len(objs[p.Y].Elems) == 0 {
										continue
									}
									want = append(want, p)
									lo, hi := rankOf[p.X], rankOf[p.Y]
									if lo > hi {
										lo, hi = hi, lo
									}
									probe, indexed := &rk.objs[hi], &rk.objs[lo]
									if from, to := rk.interval(gate.bounds(len(probe.Elems))); lo < from || hi >= to {
										t.Fatalf("%s: pair %v: ranks %d, %d outside the probe's interval [%d, %d)", cfg, p, lo, hi, from, to)
									}
									shared := false
									for _, s := range indexed.prefix[:indexed.ixLen] {
										shared = shared || slices.Contains(probe.prefix, s)
									}
									if !shared {
										t.Fatalf("%s: pair %v (sim %v): probing prefix %v and indexing prefix %v of %v share nothing",
											cfg, p, p.Sim, probe.prefix, indexed.prefix[:indexed.ixLen], indexed.prefix)
									}
									pairsSeen++
								}
								for r := range rk.objs {
									if o := &rk.objs[r]; int(o.ixLen) < len(o.prefix) {
										shorter++
									}
								}
								got, st, err := SelfJoin(h, objects, opt)
								if err != nil {
									t.Fatal(err)
								}
								if !samePairs(got, want) {
									t.Errorf("%s: SelfJoin diverges from naive\n got  %v\n want %v", cfg, got, want)
								}
								if st.SizePruned != 0 {
									t.Errorf("%s: the size gate rejected %d gathered candidates; the interval should leave it none", cfg, st.SizePruned)
								}
								checkFunnel(t, cfg, st.Candidates, st.SizePruned, st.Verify.Pairs)
							}
						}
					}
				}
			}
		}
	}
	if pairsSeen < 1000 || shorter == 0 {
		t.Errorf("only %d similar pairs checked, %d indexing prefixes shorter than their probing prefix", pairsSeen, shorter)
	}
}

// TestJoinBothOrientations runs the R-S join with R the larger side (S
// probes) and with R the smaller side (R probes, the swapped branch)
// against the all-pairs oracle. Unlike a self join's, an R-S probe has
// partners on both sides of its own size, so the interval must open both
// ways: the corpus has to produce such probes.
func TestJoinBothOrientations(t *testing.T) {
	for si, set := range []setmetric.Kind{setmetric.Jaccard, setmetric.Dice, setmetric.Cosine} {
		h, objs := kernelCorpus(int64(300 + si))
		opt := Defaults(0.6, 0.4)
		opt.Set = set
		naive, err := NaiveSelfJoin(h, objs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{len(objs) * 3 / 5, len(objs) * 2 / 5} {
			name := fmt.Sprintf("%v |R|=%d |S|=%d", set, cut, len(objs)-cut)
			rProbes := cut < len(objs)-cut
			var want []Pair
			smaller, larger := map[int]bool{}, map[int]bool{} // probes with such a partner
			for _, p := range naive {
				if p.X >= cut || p.Y < cut {
					continue
				}
				want = append(want, Pair{X: p.X, Y: p.Y - cut, Sim: p.Sim})
				probe, partner := p.Y, p.X
				if rProbes {
					probe, partner = p.X, p.Y
				}
				if d := len(objs[partner]) - len(objs[probe]); d < 0 {
					smaller[probe] = true
				} else if d > 0 {
					larger[probe] = true
				}
			}
			both := 0
			for x := range smaller {
				if larger[x] {
					both++
				}
			}
			if both == 0 {
				t.Fatalf("%s: no probe has partners on both sides of its size", name)
			}
			got, st, err := Join(h, objs[:cut], objs[cut:], opt)
			if err != nil {
				t.Fatal(err)
			}
			// Only with S probing is a pair scored in the oracle's (later
			// object, earlier object) order; the other way the similarity is
			// the same number, not necessarily the same bits.
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i].X == want[i].X && got[i].Y == want[i].Y && math.Abs(got[i].Sim-want[i].Sim) < 1e-12
			}
			if !same || (!rProbes && !samePairs(got, want)) {
				t.Errorf("%s: Join diverges from the all-pairs oracle\n got  %v\n want %v", name, got, want)
			}
			if st.SizePruned != 0 {
				t.Errorf("%s: SizePruned = %d, want 0", name, st.SizePruned)
			}
			checkFunnel(t, name, st.Candidates, st.SizePruned, st.Verify.Pairs)
		}
	}
}
