package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"kjoin/internal/elem"
	"kjoin/internal/paperdata"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
	"kjoin/internal/synonym"
	"kjoin/internal/verify"
)

func pairKeys(ps []Pair) [][2]int {
	out := make([][2]int, len(ps))
	for i, p := range ps {
		out[i] = [2]int{p.X, p.Y}
	}
	return out
}

func TestPaperExampleJoin(t *testing.T) {
	// δ=0.7, τ=0.6 on Table 1: the paper's single answer is ⟨S1, S3⟩
	// with SIMδ = 19/29.
	h, _ := paperdata.Fig1()
	pairs, st, err := SelfJoin(h, paperdata.Table1(), Defaults(0.7, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].X != 0 || pairs[0].Y != 2 {
		t.Fatalf("pairs = %+v, want exactly ⟨S1, S3⟩", pairs)
	}
	if math.Abs(pairs[0].Sim-19.0/29) > 1e-9 {
		t.Errorf("sim = %v, want 19/29", pairs[0].Sim)
	}
	if st.Objects != 9 {
		t.Errorf("Objects = %d, want 9", st.Objects)
	}
	if st.Candidates == 0 || st.Candidates > 36 {
		t.Errorf("Candidates = %d, want within (0, 36]", st.Candidates)
	}
}

// Regression: candidate counts on the Table 1 example under each scheme
// (δ=0.7, τ=0.6, df order over Table 1 with the Figure 1 structure). A
// batch candidate is a pair whose sizes can still reach τ and whose
// larger object's probing prefix shares a signature with the smaller
// object's indexing prefix — fewer than the pairs sharing a signature of
// two full prefixes, which is what the paper counts (22 with the node
// prefix, 15 with the path prefix, under its own df order / hierarchy
// reading) and what this table read before the batch join was ranked by
// size (18/17/14/14). The relative shape — deep ≤ shallow ≤ node, all ≪
// 36 total pairs — is the reproduced claim.
func TestCandidateCountsTable1(t *testing.T) {
	h, _ := paperdata.Fig1()
	want := map[string]int64{"node": 8, "shallow": 8, "deep": 5, "deepw": 5}
	run := func(scheme sig.Scheme, weighted bool) int64 {
		opt := Defaults(0.7, 0.6)
		opt.Scheme = scheme
		opt.Weighted = weighted
		_, st, err := SelfJoin(h, paperdata.Table1(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return st.Candidates
	}
	node, shallow, deep, deepw := run(sig.Node, false), run(sig.Shallow, false), run(sig.Deep, false), run(sig.Deep, true)
	if node != want["node"] {
		t.Errorf("node candidates = %d, want %d", node, want["node"])
	}
	if shallow != want["shallow"] {
		t.Errorf("shallow candidates = %d, want %d", shallow, want["shallow"])
	}
	if deep != want["deep"] {
		t.Errorf("deep candidates = %d, want %d", deep, want["deep"])
	}
	if deepw != want["deepw"] {
		t.Errorf("deep weighted candidates = %d, want %d", deepw, want["deepw"])
	}
	if !(deepw <= deep && deep <= shallow && shallow <= node && node <= 36/3) {
		t.Errorf("candidates node=%d shallow=%d deep=%d deep weighted=%d: want deep ≤ shallow ≤ node, all well under 36",
			node, shallow, deep, deepw)
	}
}

// The central correctness property: for every configuration, the filtered
// join returns exactly the naive all-pairs answer (filters are complete,
// verifiers are exact).
func TestJoinMatchesNaive(t *testing.T) {
	h, _ := paperdata.Fig1()
	objs := paperdata.Table1()
	for _, metric := range []elem.Metric{elem.Standard, elem.WuPalmer} {
		for _, set := range []setmetric.Kind{setmetric.Jaccard, setmetric.Dice, setmetric.Cosine} {
			for _, scheme := range []sig.Scheme{sig.Node, sig.Shallow, sig.Deep} {
				for _, weighted := range []bool{false, true} {
					for _, ver := range []verify.Kind{verify.Basic, verify.SubGraph, verify.Adaptive} {
						for _, delta := range []float64{0.5, 0.7, 0.8} {
							for _, tau := range []float64{0.4, 0.6, 0.8} {
								opt := Options{
									Delta: delta, Tau: tau,
									Metric: metric, Set: set,
									Scheme: scheme, Weighted: weighted,
									Verifier: ver, ComputeSims: false,
								}
								got, _, err := SelfJoin(h, objs, opt)
								if err != nil {
									t.Fatal(err)
								}
								want, err := NaiveSelfJoin(h, objs, opt)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(pairKeys(got), pairKeys(want)) {
									t.Errorf("%v/%v/%v/w=%v/%v δ=%v τ=%v: got %v, want %v",
										metric, set, scheme, weighted, ver, delta, tau,
										pairKeys(got), pairKeys(want))
								}
							}
						}
					}
				}
			}
		}
	}
}

// Plus-mode completeness: with typos and synonyms in the data, the
// filtered join still returns exactly the naive answer for every scheme
// and verifier.
func TestJoinMatchesNaivePlus(t *testing.T) {
	h, _ := paperdata.Fig1()
	d := synonym.New()
	d.Add("kfc", "kentuckyfriedchicken")
	d.Add("st", "street")
	objs := append([][]string{}, paperdata.Table1()...)
	objs = append(objs,
		[]string{"PizzaHat", "KFC", "CA"},               // typo'd S4
		[]string{"KentuckyFriedChicken", "MountainVew"}, // synonym + typo'd S1-ish
		[]string{"BurgerKing", "Mountainview"},
		[]string{"Fillmore", "st"},
		[]string{"Fillmore", "street"},
	)
	for _, scheme := range []sig.Scheme{sig.Node, sig.Shallow, sig.Deep} {
		for _, weighted := range []bool{false, true} {
			for _, ver := range []verify.Kind{verify.Basic, verify.SubGraph, verify.Adaptive} {
				for _, delta := range []float64{0.6, 0.8} {
					for _, tau := range []float64{0.4, 0.7} {
						opt := Options{
							Delta: delta, Tau: tau,
							Scheme: scheme, Weighted: weighted,
							Verifier: ver, Plus: true, Synonyms: d,
						}
						got, _, err := SelfJoin(h, objs, opt)
						if err != nil {
							t.Fatal(err)
						}
						want, err := NaiveSelfJoin(h, objs, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(pairKeys(got), pairKeys(want)) {
							t.Errorf("plus %v/w=%v/%v δ=%v τ=%v: got %v, want %v",
								scheme, weighted, ver, delta, tau, pairKeys(got), pairKeys(want))
						}
					}
				}
			}
		}
	}
}

func TestPlusModeFindsTypoPairs(t *testing.T) {
	h, _ := paperdata.Fig1()
	objs := [][]string{
		{"PizzaHut", "Brooklyn"},
		{"PizzaHat", "Brooklyn"}, // typo'd duplicate
	}
	base := Defaults(0.7, 0.7)
	pairs, _, err := SelfJoin(h, objs, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Errorf("plain K-Join should miss the typo pair, got %v", pairs)
	}
	plus := base
	plus.Plus = true
	pairs, _, err = SelfJoin(h, objs, plus)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("K-Join+ should find the typo pair, got %v", pairs)
	}
	// SIM: PizzaHut~PizzaHat = 7/8, Brooklyn = 1 → overlap 15/8, Jaccard
	// = (15/8)/(4 − 15/8) = 15/17.
	if math.Abs(pairs[0].Sim-15.0/17) > 1e-9 {
		t.Errorf("sim = %v, want 15/17", pairs[0].Sim)
	}
}

func TestPlusModeSynonyms(t *testing.T) {
	h, _ := paperdata.Fig1()
	d := synonym.New()
	d.Add("kfc", "kentuckyfriedchicken")
	objs := [][]string{
		{"KFC", "MountainView"},
		{"KentuckyFriedChicken", "MountainView"},
	}
	opt := Defaults(0.8, 0.9)
	opt.Plus = true
	opt.Synonyms = d
	pairs, _, err := SelfJoin(h, objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].Sim < 0.999 {
		t.Fatalf("synonym pair should join with sim 1, got %v", pairs)
	}
}

func TestRSJoin(t *testing.T) {
	h, _ := paperdata.Fig1()
	objs := paperdata.Table1()
	r := objs[:4]
	s := objs[4:]
	opt := Defaults(0.7, 0.5)
	pairs, st, err := Join(h, r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: naive cross product.
	var want []Pair
	naiveOpt := opt
	all, err := NaiveSelfJoin(h, objs, naiveOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range all {
		if p.X < 4 && p.Y >= 4 {
			want = append(want, Pair{X: p.X, Y: p.Y - 4, Sim: p.Sim})
		}
	}
	if !reflect.DeepEqual(pairKeys(pairs), pairKeys(want)) {
		t.Errorf("RS join = %v, want %v", pairKeys(pairs), pairKeys(want))
	}
	if st.Objects != 9 {
		t.Errorf("Objects = %d, want 9", st.Objects)
	}
	// Swap R and S: results transpose.
	pairsSwap, _, err := Join(h, s, r, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairsSwap) != len(pairs) {
		t.Fatalf("swapped join size %d != %d", len(pairsSwap), len(pairs))
	}
	m := map[[2]int]bool{}
	for _, p := range pairsSwap {
		m[[2]int{p.Y, p.X}] = true
	}
	for _, p := range pairs {
		if !m[[2]int{p.X, p.Y}] {
			t.Errorf("pair %v missing from swapped join", p)
		}
	}
}

func TestWorkersDeterminism(t *testing.T) {
	h, _ := paperdata.Fig1()
	objs := paperdata.Table1()
	opt := Defaults(0.5, 0.4)
	opt.Workers = 1
	p1, st1, err := SelfJoin(h, objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	p4, st4, err := SelfJoin(h, objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p4) {
		t.Errorf("results differ between 1 and 4 workers:\n%v\n%v", p1, p4)
	}
	if st1.Candidates != st4.Candidates {
		t.Errorf("candidates differ: %d vs %d", st1.Candidates, st4.Candidates)
	}
}

func TestOptionValidation(t *testing.T) {
	h, _ := paperdata.Fig1()
	for _, opt := range []Options{
		{Delta: 0, Tau: 0.5},
		{Delta: 0.5, Tau: 0},
		{Delta: 1.5, Tau: 0.5},
		{Delta: 0.5, Tau: 1.5},
		{Delta: -0.1, Tau: 0.5},
	} {
		if _, _, err := SelfJoin(h, nil, opt); err == nil {
			t.Errorf("options %+v should be rejected", opt)
		}
		if _, _, err := Join(h, nil, nil, opt); err == nil {
			t.Errorf("Join with options %+v should be rejected", opt)
		}
		if _, err := NaiveSelfJoin(h, nil, opt); err == nil {
			t.Errorf("NaiveSelfJoin with options %+v should be rejected", opt)
		}
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	h, _ := paperdata.Fig1()
	opt := Defaults(0.7, 0.6)
	pairs, st, err := SelfJoin(h, nil, opt)
	if err != nil || len(pairs) != 0 || st.Objects != 0 {
		t.Errorf("empty input: pairs=%v st=%v err=%v", pairs, st, err)
	}
	// Objects with no tokens and duplicate tokens.
	objs := [][]string{{}, {"KFC", "KFC", "kfc"}, {"KFC"}}
	pairs, _, err = SelfJoin(h, objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Object 1 (deduped to {kfc}) and object 2 are identical → sim 1.
	if len(pairs) != 1 || pairs[0].X != 1 || pairs[0].Y != 2 || pairs[0].Sim != 1 {
		t.Errorf("pairs = %v, want ⟨1,2⟩ sim 1", pairs)
	}
}

func TestDefaults(t *testing.T) {
	opt := Defaults(0.8, 0.9)
	if opt.Delta != 0.8 || opt.Tau != 0.9 {
		t.Error("Defaults thresholds mismatch")
	}
	if opt.Scheme != sig.Deep || !opt.Weighted || opt.Verifier != verify.Adaptive {
		t.Error("Defaults should use deep weighted prefix with adaptive verification")
	}
	if opt.Set != setmetric.Jaccard || opt.Metric != elem.Standard {
		t.Error("Defaults should use Jaccard and the standard element metric")
	}
}

func TestProgressCallback(t *testing.T) {
	h, _ := paperdata.Fig1()
	var mu sync.Mutex
	phases := map[string]bool{}
	wantTotal := 9
	opt := Defaults(0.7, 0.6)
	opt.Progress = func(phase string, done, total int) {
		mu.Lock()
		phases[phase] = true
		mu.Unlock()
		if total != wantTotal {
			t.Errorf("progress total = %d, want %d", total, wantTotal)
		}
		if done < 0 || done > total {
			t.Errorf("progress %q done = %d outside [0, %d]", phase, done, total)
		}
	}
	if _, _, err := SelfJoin(h, paperdata.Table1(), opt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"resolve", "signatures", "index", "done"} {
		if !phases[want] {
			t.Errorf("missing progress phase %q (got %v)", want, phases)
		}
	}

	// Probe progress is extrapolated from one worker's count: with three
	// workers over 3·probeProgressStep−1 objects the first worker reports
	// at its last object, where the unclamped estimate overshoots.
	wantTotal = 3*probeProgressStep - 1
	objs := make([][]string, wantTotal)
	for i := range objs {
		objs[i] = []string{fmt.Sprintf("free%d", i)}
	}
	opt.Workers = 3
	if _, _, err := SelfJoin(h, objs, opt); err != nil {
		t.Fatal(err)
	}
	if !phases["probe"] {
		t.Errorf("missing progress phase \"probe\" (got %v)", phases)
	}
}
