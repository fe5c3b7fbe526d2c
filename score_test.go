package kjoin_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"kjoin"
	"kjoin/datasets"
)

// TestScoreBitIdentical: a result pair's similarity, which the join takes
// from the overlap its verification ladder holds (verify.Context.Score),
// has the bits of Similarity of the two objects in the order the join
// verified them — the later input first in a self join, the probing
// (smaller) side first in an R-S join, the new object or the query first
// in an Indexer. It covers every result of TestBatchFunnelPinned's joins
// at 1 and 4 workers under Adaptive and SubGraph, whose ladders hold the
// overlap, and at 1 under Basic, which falls back to Similarity; a
// TopKSelfJoin; and an Indexer's adds and its queries from four
// goroutines at once.
func TestScoreBitIdentical(t *testing.T) {
	hr := datasets.GenHierarchy(datasets.DefaultHierarchy())
	tweets := datasets.GenRecords(hr, datasets.TweetConfig(3000)).Records
	pois := datasets.GenRecords(hr, datasets.POIConfig(600)).Records
	type key struct {
		x, y *string
	}
	sims := map[key]float64{}
	check := func(t *testing.T, what string, got float64, x, y []string, opt kjoin.Options) {
		t.Helper()
		k := key{&x[0], &y[0]}
		want, ok := sims[k]
		if !ok {
			var err error
			if want, err = kjoin.Similarity(hr.H, x, y, opt); err != nil {
				t.Fatal(err)
			}
			sims[k] = want
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: similarity %v, Similarity %v", what, got, want)
		}
	}
	cases := []struct {
		name       string
		r, s       [][]string // s == nil: self join of r
		delta, tau float64
	}{
		{name: "tweet self", r: tweets, delta: 0.8, tau: 0.85},
		{name: "poi self", r: pois, delta: 0.5, tau: 0.6},
		{name: "poi r-s", r: pois[:250], s: pois[250:], delta: 0.5, tau: 0.6},
	}
	for _, c := range cases {
		for _, v := range []kjoin.Verifier{kjoin.AdaptiveVerify, kjoin.SubGraphVerify, kjoin.BasicVerify} {
			for _, workers := range []int{1, 4} {
				if v == kjoin.BasicVerify && workers > 1 {
					continue // its fallback is per pair: one worker covers it
				}
				t.Run(fmt.Sprintf("%s/%v/workers=%d", c.name, v, workers), func(t *testing.T) {
					opt := kjoin.Defaults(c.delta, c.tau)
					opt.Verifier, opt.Workers = v, workers
					var pairs []kjoin.Pair
					var err error
					if c.s == nil {
						pairs, _, err = kjoin.SelfJoin(hr.H, c.r, opt)
					} else {
						pairs, _, err = kjoin.Join(hr.H, c.r, c.s, opt)
					}
					if err != nil {
						t.Fatal(err)
					}
					if len(pairs) < 100 {
						t.Fatalf("only %d pairs", len(pairs))
					}
					for _, p := range pairs {
						if c.s == nil {
							check(t, fmt.Sprintf("pair %+v", p), p.Sim, c.r[p.Y], c.r[p.X], opt)
						} else {
							check(t, fmt.Sprintf("pair %+v", p), p.Sim, c.r[p.X], c.s[p.Y], opt)
						}
					}
				})
			}
		}
	}

	opt := kjoin.Defaults(0.5, 0.6)
	t.Run("topk", func(t *testing.T) {
		top, _, err := kjoin.TopKSelfJoin(hr.H, pois, 50, opt)
		if err != nil || len(top) != 50 {
			t.Fatalf("%d pairs, %v", len(top), err)
		}
		for _, p := range top {
			check(t, fmt.Sprintf("top-k pair %+v", p), p.Sim, pois[p.Y], pois[p.X], opt)
		}
	})
	t.Run("indexer", func(t *testing.T) {
		ix, err := kjoin.NewIndexer(hr.H, opt)
		if err != nil {
			t.Fatal(err)
		}
		added := 0
		for i, rec := range pois[:400] {
			pairs, err := ix.Add(rec)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				check(t, fmt.Sprintf("add %d: pair %+v", i, p), p.Sim, pois[p.Y], pois[p.X], opt)
				added++
			}
		}
		// Four goroutines query at once, on the engine's pooled kernels.
		queries := pois[400:]
		results := make([][]kjoin.Match, len(queries))
		errs := make([]error, len(queries))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(queries); i += 4 {
					results[i], errs[i] = ix.Query(queries[i])
				}
			}()
		}
		wg.Wait()
		matched := 0
		for i, rec := range queries {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			for _, m := range results[i] {
				check(t, fmt.Sprintf("query %d: match %+v", i, m), m.Sim, rec, pois[m.Index], opt)
				matched++
			}
		}
		if added < 100 || matched < 50 {
			t.Fatalf("only %d pairs added and %d matches queried", added, matched)
		}
	})
}
