package verify

import (
	"math/rand"
	"slices"
	"testing"

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
