package verify

import (
	"math"
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

// TestCountReachesMatchesCountBound checks that stopping early never
// changes the count-pruning decision: over random sorted multisets with
// duplicates (K-Join+ elements carry several keys) and every threshold
// around the true count, countReaches(need) ≡ countBound ≥ need.
func TestCountReachesMatchesCountBound(t *testing.T) {
	r := rand.New(rand.NewSource(14))
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
			if got := countReaches(xk, yk, need); got != (want >= need) {
				t.Fatalf("countReaches(%v, %v, %d) = %v, countBound = %d", xk, yk, need, got, want)
			}
		}
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
