package verify

import (
	"testing"

	"kjoin/internal/elem"
	"kjoin/internal/setmetric"
)

// TestSteadyStateVerifyZeroAlloc pins the allocation contract of the
// verification hot path: once a Context's scratch has grown to the
// workload's steady-state sizes, verifying a candidate pair (including
// the adaptive ladder, Hungarian solves and the probe tables) must
// perform zero heap allocations. A regression here silently reintroduces
// the per-pair map/slice churn this scratch design removed.
func TestSteadyStateVerifyZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful in -short mode")
	}
	ctx, objs, keys := diffCtx(t, 200, 0.8, 0.8, elem.Standard, setmetric.Jaccard, false)
	preps, _ := prepareAll(ctx, objs)

	kinds := []Kind{Basic, SubGraph, Adaptive}
	var st Stats
	// Warm-up: let every scratch buffer reach its steady-state capacity
	// across the whole pair stream.
	for i := 0; i < 4*len(objs); i++ {
		x, y := i%len(objs), (i*7+13)%len(objs)
		for _, k := range kinds {
			ctx.VerifyKeyed(objs[x], objs[y], keys[x], keys[y], k, &st)
			ctx.VerifyPrepared(&preps[x], &preps[y], k, &st)
		}
		ctx.Similarity(objs[x], objs[y])
	}

	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				x, y := i%len(objs), (i*7+13)%len(objs)
				i++
				ctx.VerifyKeyed(objs[x], objs[y], keys[x], keys[y], k, &st)
			})
			if allocs != 0 {
				t.Errorf("steady-state VerifyKeyed(%v): %v allocs/pair, want 0", k, allocs)
			}
		})
		t.Run("prepared/"+k.String(), func(t *testing.T) {
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				x, y := i%len(objs), (i*7+13)%len(objs)
				i++
				ctx.VerifyPrepared(&preps[x], &preps[y], k, &st)
			})
			if allocs != 0 {
				t.Errorf("steady-state VerifyPrepared(%v): %v allocs/pair, want 0", k, allocs)
			}
		})
	}

	t.Run("similarity", func(t *testing.T) {
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			x, y := i%len(objs), (i*7+13)%len(objs)
			i++
			ctx.Similarity(objs[x], objs[y])
		})
		if allocs != 0 {
			t.Errorf("steady-state Similarity: %v allocs/pair, want 0", allocs)
		}
	})
}

// TestSolverReuseZeroAlloc pins the matching.Solver contract: repeat
// solves and bounds over already-grown workspace allocate nothing, in
// the order the lazy ladder calls them (B^u, then B^l, then the solve).
func TestSolverReuseZeroAlloc(t *testing.T) {
	ctx, objs, _ := diffCtx(t, 60, 0.8, 0.8, elem.Standard, setmetric.Jaccard, false)
	s := ctx.scratch()
	// Warm both the scratch and the solver.
	for i := 0; i < len(objs); i++ {
		ctx.Overlap(objs[i], objs[(i+1)%len(objs)])
	}
	i := 0
	ladder := func() {
		x, y := objs[i%len(objs)], objs[(i*3+1)%len(objs)]
		i++
		s.edges = ctx.appendEdges(s.edges[:0], x, y)
		s.solver.UpperBound(len(x), len(y), s.edges)
		s.solver.LowerBound(len(x), len(y), s.edges)
		s.solver.MaxWeight(len(x), len(y), s.edges)
	}
	for range objs {
		ladder()
	}
	if allocs := testing.AllocsPerRun(100, ladder); allocs != 0 {
		t.Errorf("warmed Solver bounds and MaxWeight: %v allocs/run, want 0", allocs)
	}
}
