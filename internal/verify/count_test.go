package verify

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"kjoin/internal/mathx"
	"kjoin/internal/setmetric"
	"kjoin/internal/sig"
)

// countBound returns Σ_k min(count_x(k), count_y(k)) over the sorted key
// multisets in full — the reference the threshold-aware countReaches
// (and the seed differential suite) is checked against.
func countBound(xk, yk []sig.Sig) int {
	i, j, total := 0, 0, 0
	for i < len(xk) && j < len(yk) {
		switch {
		case xk[i] < yk[j]:
			i++
		case xk[i] > yk[j]:
			j++
		default:
			k := xk[i]
			ci, cj := 0, 0
			for i < len(xk) && xk[i] == k {
				i++
				ci++
			}
			for j < len(yk) && yk[j] == k {
				j++
				cj++
			}
			if cj < ci {
				ci = cj
			}
			total += ci
		}
	}
	return total
}

// reaches is count pruning's table walk with pk loaded as the probe's
// keys and qk walked. One set of tables serves every call, so each load
// must also retire the last one's keys.
func reaches(pt *probeTables, pk, qk []sig.Sig, need int) bool {
	pt.load(nil, nil, &Prepared{Keys: pk})
	return pt.countReaches(qk, need)
}

// TestCountReachesMatchesCountBound checks that walking one side against
// the other's key counts, and stopping early, never changes the
// count-pruning decision: over random sorted multisets with duplicates
// (K-Join+ elements carry several keys), either side loaded as the
// probe's, and every threshold around the true count, countReaches(need)
// ≡ countBound ≥ need.
func TestCountReachesMatchesCountBound(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var pt probeTables
	multiset := func(n, alphabet int) []sig.Sig {
		ks := make([]sig.Sig, n)
		for i := range ks {
			ks[i] = sig.Sig(r.Intn(alphabet))
		}
		slices.Sort(ks)
		return ks
	}
	for trial := 0; trial < 5000; trial++ {
		alphabet := 1 + r.Intn(12) // small alphabets force duplicate keys
		xk := multiset(r.Intn(20), alphabet)
		yk := multiset(r.Intn(20), alphabet)
		want := countBound(xk, yk)
		for need := -1; need <= max(len(xk), len(yk))+1; need++ {
			for _, side := range [][2][]sig.Sig{{xk, yk}, {yk, xk}} {
				if got := reaches(&pt, side[0], side[1], need); got != (want >= need) {
					t.Fatalf("countReaches(%v against %v, %d) = %v, countBound = %d", side[1], side[0], need, got, want)
				}
			}
		}
	}
}

// TestSketchBoundAboveCount is the soundness of the rung in front of
// countReaches: over random sorted key multisets — repeated keys, more
// distinct keys than the sketch has bits, keys that all hash to one bit,
// an empty side — the bound read off two sketches is the same in both
// argument orders and never below the exact Σ min that countReaches
// walks, so at the exact count, one below and one above it, the sketch
// never rejects a need that countReaches reaches.
func TestSketchBoundAboveCount(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	var pt probeTables
	var colliding []sig.Sig // keys sharing key 0's bit
	for k := sig.Sig(0); len(colliding) < 12; k++ {
		if KeySketch([]sig.Sig{k}) == KeySketch([]sig.Sig{0}) {
			colliding = append(colliding, k)
		}
	}
	shapes := []struct {
		maxLen int
		key    func() sig.Sig
	}{
		{20, func() sig.Sig { return sig.Sig(r.Intn(12)) }},   // repeated keys
		{20, func() sig.Sig { return sig.Sig(r.Intn(4000)) }}, // what a join sees: few keys of many
		{400, func() sig.Sig { return sig.Sig(r.Intn(300)) }}, // saturates the sketch
		{20, func() sig.Sig { return colliding[r.Intn(len(colliding))] }},
	}
	var empty, saturated, collided, informative int
	for trial := 0; trial < 8000; trial++ {
		shape := shapes[trial%len(shapes)]
		draw := func() []sig.Sig {
			ks := make([]sig.Sig, r.Intn(shape.maxLen))
			for i := range ks {
				ks[i] = shape.key()
			}
			slices.Sort(ks)
			return ks
		}
		xk, yk := draw(), draw()
		bx, by := KeySketch(xk), KeySketch(yk)
		exact, bound := countBound(xk, yk), SketchBound(bx, len(xk), by, len(yk))
		if swapped := SketchBound(by, len(yk), bx, len(xk)); bound != swapped || bound < exact {
			t.Fatalf("sketch bound %d (%d swapped) of %v, %v; exact count %d", bound, swapped, xk, yk, exact)
		}
		for need := exact - 1; need <= exact+1; need++ {
			if bound < need && (reaches(&pt, xk, yk, need) || reaches(&pt, yk, xk, need)) {
				t.Fatalf("sketch rejects need %d of %v, %v, which countReaches reaches", need, xk, yk)
			}
		}
		if len(xk) == 0 || len(yk) == 0 {
			empty++
		}
		if bx == math.MaxUint64 {
			saturated++
		}
		if bits.OnesCount64(bx) < len(slices.Compact(slices.Clone(xk))) {
			collided++
		}
		if bound < min(len(xk), len(yk)) {
			informative++
		}
	}
	if empty < 100 || saturated < 100 || collided < 1000 || informative < 2000 {
		t.Fatalf("%d empty sides, %d saturated sketches, %d with colliding keys, %d bounds below the lengths exercised",
			empty, saturated, collided, informative)
	}
}

// TestPairNeedMemo: the memoised required overlap is the float (and the
// ceiling) a fresh computation gives, whatever was asked before — runs of
// equal sizes, swapped sizes, two empty objects first, and a Context
// whose τ or set metric changed between calls.
func TestPairNeedMemo(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := &Context{Set: setmetric.Jaccard, Tau: 0.6}
	s := c.scratch()
	nx, ny := 0, 0
	for i := 0; i < 5000; i++ {
		switch r.Intn(6) {
		case 0:
			nx, ny = ny, nx
		case 1:
			nx, ny = r.Intn(9), r.Intn(9)
		case 2:
			c.Tau = []float64{0.3, 0.6, 1}[r.Intn(3)]
		case 3:
			c.Set = []setmetric.Kind{setmetric.Jaccard, setmetric.Dice, setmetric.Cosine}[r.Intn(3)]
		}
		need, ceil := s.pairNeed(c, nx, ny)
		want := c.Set.PairOverlap(c.Tau, nx, ny)
		if math.Float64bits(need) != math.Float64bits(want) || ceil != mathx.CeilInt(want) {
			t.Fatalf("step %d: %v τ=%v sizes %d, %d: memo gives %v ⌈%d⌉, want %v ⌈%d⌉",
				i, c.Set, c.Tau, nx, ny, need, ceil, want, mathx.CeilInt(want))
		}
	}
}
