package verify

import (
	"testing"

	"kjoin/internal/dataset"
	"kjoin/internal/elem"
	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
)

// benchCtx builds a verification context over generated POI records at
// δ 0.8, τ 0.8, where nearly every pair dies in count pruning.
func benchCtx(b *testing.B) (*Context, [][]elem.ID, [][]sig.Sig) {
	return benchCtxAt(b, 0.8, 0.8)
}

func benchCtxAt(b *testing.B, delta, tau float64) (*Context, [][]elem.ID, [][]sig.Sig) {
	b.Helper()
	hr := dataset.GenHierarchy(dataset.DefaultHierarchy())
	c := dataset.GenRecords(hr, dataset.POIConfig(400))
	r := elem.NewResolver(hr.H, elem.Options{})
	sp := sig.NewSpace(r, elem.Standard, delta, sig.Deep)
	ctx := &Context{Res: r, Space: sp, Metric: elem.Standard, Set: setmetric.Jaccard, Delta: delta, Tau: tau}
	objs := make([][]elem.ID, len(c.Records))
	keys := make([][]sig.Sig, len(c.Records))
	for i, rec := range c.Records {
		seen := map[elem.ID]bool{}
		for _, t := range rec {
			id := r.ID(t)
			if !seen[id] {
				seen[id] = true
				objs[i] = append(objs[i], id)
			}
		}
		keys[i] = ctx.SortedKeys(objs[i])
	}
	return ctx, objs, keys
}

func BenchmarkVerifyKeyedFastPath(b *testing.B) {
	b.ReportAllocs()
	ctx, objs, keys := benchCtx(b)
	var st Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := i % len(objs)
		y := (i*7 + 13) % len(objs)
		ctx.VerifyKeyed(objs[x], objs[y], keys[x], keys[y], Adaptive, &st)
	}
}

// BenchmarkVerifyLadder climbs the ladder: its pairs are the survivors
// of count pruning on the POI corpus at δ 0.5, τ 0.6 (the batch-verify
// workload's thresholds), so every op pays for Lemma 4 and most for the
// bounds. The three verifiers run the same pair list by key multisets;
// adaptive-prepared runs it with the key-ordered columns, the way the
// join does.
func BenchmarkVerifyLadder(b *testing.B) {
	ctx, objs, keys := benchCtxAt(b, 0.5, 0.6)
	preps := make([]Prepared, len(objs))
	for i, o := range objs {
		preps[i] = ctx.Prepare(o, nil, nil)
	}
	var pairs [][2]int
	for x := range objs {
		for y := 0; y < x; y++ {
			need := ctx.Set.PairOverlap(ctx.Tau, len(objs[x]), len(objs[y]))
			if countBound(keys[x], keys[y]) >= mathx.CeilInt(need) {
				pairs = append(pairs, [2]int{x, y})
			}
		}
	}
	if len(pairs) < 1000 {
		b.Fatalf("only %d pairs survive count pruning", len(pairs))
	}
	for _, k := range []Kind{Basic, SubGraph, Adaptive} {
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				ctx.VerifyKeyed(objs[p[0]], objs[p[1]], keys[p[0]], keys[p[1]], k, &st)
			}
		})
	}
	b.Run("adaptive-prepared", func(b *testing.B) {
		b.ReportAllocs()
		var st Stats
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ctx.VerifyPrepared(&preps[p[0]], &preps[p[1]], Adaptive, &st)
		}
	})
}

func BenchmarkOverlapExact(b *testing.B) {
	b.ReportAllocs()
	ctx, objs, _ := benchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := i % len(objs)
		y := (i*7 + 13) % len(objs)
		ctx.Overlap(objs[x], objs[y])
	}
}
