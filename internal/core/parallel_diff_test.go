package core

// Differential tests for the per-worker scratch refactor at the join
// level: the parallel probe loop (per-worker verify.Context clones with
// their own scratch arenas and probe tables) must return
// byte-identical results — same pairs, same order, same Sim bits — as
// the single-worker run, across a randomized configuration matrix.
// Run with -race to also prove the clones share no mutable state.

import (
	"math"
	"math/rand"
	"testing"

	"kjoin/internal/elem"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
	"kjoin/internal/verify"
)

// samePairs reports whether two join results are byte-identical:
// identical length, order, indices, and Sim bit patterns.
func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].X != b[i].X || a[i].Y != b[i].Y {
			return false
		}
		if math.Float64bits(a[i].Sim) != math.Float64bits(b[i].Sim) {
			return false
		}
	}
	return true
}

// TestParallelJoinBitIdentical: SelfJoin and Join with Workers=4 equal
// Workers=1 bit for bit across random δ/τ/scheme/verifier/Plus settings.
func TestParallelJoinBitIdentical(t *testing.T) {
	schemes := []sig.Scheme{sig.Node, sig.Shallow, sig.Deep}
	verifiers := []verify.Kind{verify.Basic, verify.SubGraph, verify.Adaptive}
	metrics := []elem.Metric{elem.Standard, elem.WuPalmer}
	sets := []setmetric.Kind{setmetric.Jaccard, setmetric.Dice, setmetric.Cosine}
	iterations := 40
	if testing.Short() {
		iterations = 8
	}
	for seed := 0; seed < iterations; seed++ {
		r := rand.New(rand.NewSource(int64(1000 + seed)))
		h := randHierarchy(r, 15+r.Intn(60))
		objs := randObjects(r, h, 12+r.Intn(24))
		opt := Options{
			Delta:       0.3 + 0.6*r.Float64(),
			Tau:         0.3 + 0.6*r.Float64(),
			Metric:      metrics[r.Intn(len(metrics))],
			Set:         sets[r.Intn(len(sets))],
			Scheme:      schemes[r.Intn(len(schemes))],
			Weighted:    r.Intn(2) == 0,
			Verifier:    verifiers[r.Intn(len(verifiers))],
			Plus:        r.Intn(2) == 0,
			PhiMin:      0.7 + 0.3*r.Float64(),
			ComputeSims: true,
		}

		opt.Workers = 1
		serial, _, err := SelfJoin(h, objs, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt.Workers = 4
		parallel, _, err := SelfJoin(h, objs, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !samePairs(serial, parallel) {
			t.Errorf("seed %d (%+v): SelfJoin workers=4 diverges from workers=1\n serial  %v\n parallel %v",
				seed, opt, serial, parallel)
		}

		cut := len(objs) / 2
		opt.Workers = 1
		serialRS, _, err := Join(h, objs[:cut], objs[cut:], opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt.Workers = 4
		parallelRS, _, err := Join(h, objs[:cut], objs[cut:], opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !samePairs(serialRS, parallelRS) {
			t.Errorf("seed %d (%+v): Join workers=4 diverges from workers=1", seed, opt)
		}
	}
}

// TestParallelJoinMatchesNaiveSims: beyond pair sets, the scratch-backed
// join's similarities must equal the naive all-pairs similarities bit
// for bit (path-code similarities and solver reuse may not perturb a
// single ulp).
func TestParallelJoinMatchesNaiveSims(t *testing.T) {
	iterations := 20
	if testing.Short() {
		iterations = 5
	}
	for seed := 0; seed < iterations; seed++ {
		r := rand.New(rand.NewSource(int64(2000 + seed)))
		h := randHierarchy(r, 15+r.Intn(40))
		objs := randObjects(r, h, 10+r.Intn(14))
		opt := Defaults(0.3+0.6*r.Float64(), 0.3+0.6*r.Float64())
		opt.Plus = r.Intn(2) == 0
		opt.Workers = 4
		got, _, err := SelfJoin(h, objs, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := NaiveSelfJoin(h, objs, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !samePairs(got, want) {
			t.Errorf("seed %d: filtered join sims diverge from naive\n got  %v\n want %v", seed, got, want)
		}
	}
}
