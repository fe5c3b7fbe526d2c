package verify

import (
	"math"
	"testing"

	"kjoin/internal/elem"
	"kjoin/internal/matching"
	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
)

// TestLadderLazy pins what an adaptive pair pays for, over every pair of
// a POI corpus at the benchmark's δ 0.5, τ 0.6 and one pair built around
// a wide group: a pair ΣB^u rejects pays for no solve; an accepted pair
// pays for one exact solve per group with edges and nothing else; a group
// of 70 elements a side is solved like any other.
func TestLadderLazy(t *testing.T) {
	ctx, objs, _ := diffCtx(t, 200, 0.5, 0.6, elem.Standard, setmetric.Jaccard, false)
	preps, _ := prepareAll(ctx, objs)
	ubRejected, accepted := 0, 0
	for x := range objs {
		for y := 0; y < x; y++ {
			bu, active := 0.0, int64(0)
			for _, g := range seedGroups(ctx, objs[x], objs[y]) {
				if es := seedEdges(ctx, g.xe, g.ye); len(es) > 0 {
					bu += matching.UpperBound(len(g.xe), len(g.ye), es)
					active++
				}
			}
			need := ctx.Set.PairOverlap(ctx.Tau, len(objs[x]), len(objs[y]))
			var st Stats
			ok := ctx.VerifyPrepared(&preps[x], &preps[y], Adaptive, &st)
			if bu < need-2*mathx.Eps {
				if ok || st.ExactSolves != 0 || st.MatchingCalls != 0 {
					t.Fatalf("pair (%d, %d): ΣB^u %v < %v, yet %v after %+v", x, y, bu, need, ok, st)
				}
				ubRejected += int(st.UBRejected)
			}
			if ok {
				if st.ExactSolves != active || st.MatchingCalls != 0 {
					t.Fatalf("pair (%d, %d): accepted with %d groups after %+v", x, y, active, st)
				}
				accepted++
			}
		}
	}
	if ubRejected < 1000 || accepted < 30 {
		t.Fatalf("only %d pairs reached ΣB^u and were rejected there, %d accepted", ubRejected, accepted)
	}

	// Two objects of 70 elements under one key, sharing all but six: one
	// group 70 wide, solved once.
	const n = 70
	var wide []elem.ID
	byKey := map[sig.Sig][]elem.ID{}
	for e := 0; e < ctx.Res.Len(); e++ {
		k := ctx.Space.GroupKeys(elem.ID(e))[0]
		if byKey[k] = append(byKey[k], elem.ID(e)); len(byKey[k]) > n+6 {
			wide = byKey[k]
			break
		}
	}
	if wide == nil {
		t.Fatalf("no key holds %d elements", n+6)
	}
	px, py := ctx.Prepare(wide[:n], nil, nil), ctx.Prepare(wide[6:n+6], nil, nil)
	var st Stats
	if !ctx.VerifyPrepared(&px, &py, Adaptive, &st) || st.LBAccepted != 1 || st.ExactSolves != 1 || st.MatchingCalls != 0 {
		t.Fatalf("a group %d wide: %+v, want one exact solve, accepted", n, st)
	}
	if got, want := ctx.Score(&px, &py), ctx.Similarity(px.Elems, py.Elems); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("the wide pair's score %v, Similarity %v", got, want)
	}
}

// TestScoreBitIdentical: Context.Score has the bits of Similarity for
// every pair of a POI corpus and every verifier — from the overlap the
// ladder holds when SubGraph or Adaptive accepted the pair, else from
// Similarity itself — and never reads an overlap held for another pair:
// after an accepted pair, its first object's slot holds another object
// that Basic then verifies against the same second one, with the same
// pointers.
func TestScoreBitIdentical(t *testing.T) {
	ctx, objs, _ := diffCtx(t, 200, 0.5, 0.6, elem.Standard, setmetric.Jaccard, false)
	preps, _ := prepareAll(ctx, objs)
	held, reused := 0, 0
	for x := range objs {
		for y := 0; y < x; y++ {
			want := ctx.Similarity(objs[x], objs[y])
			for _, kind := range []Kind{Basic, SubGraph, Adaptive} {
				var st Stats
				ok := ctx.VerifyPrepared(&preps[x], &preps[y], kind, &st)
				if got := ctx.Score(&preps[x], &preps[y]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("pair (%d, %d) %v (accepted %v): score %v, Similarity %v", x, y, kind, ok, got, want)
				}
				if ok && kind != Basic {
					held++
				}
			}
			slot := preps[x]
			var st Stats
			if !ctx.VerifyPrepared(&slot, &preps[y], Adaptive, &st) {
				continue
			}
			z := (x + 1) % len(objs)
			slot = preps[z]
			ctx.VerifyPrepared(&slot, &preps[y], Basic, &st)
			if got, want := ctx.Score(&slot, &preps[y]), ctx.Similarity(objs[z], objs[y]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("slot of %d reused for %d against %d: score %v, Similarity %v", x, z, y, got, want)
			}
			reused++
		}
	}
	if held < 60 || reused < 30 {
		t.Fatalf("only %d held scores and %d reused slots", held, reused)
	}

}
