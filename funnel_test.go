package kjoin_test

import (
	"fmt"
	"testing"

	"kjoin"
	"kjoin/datasets"
	"kjoin/internal/verify"
)

// funnel is every exactly-repeatable counter of a batch join: the
// candidate funnel, each rung of the verification ladder, the signature
// volume and the result count.
type funnel struct {
	Candidates, SizePruned int64
	Verify                 verify.Stats
	SigEntries             int64
	Pairs                  int
}

// TestBatchFunnelPinned pins the funnel of fixed-seed batch joins to the
// values read when the test was written. The counters are part of the
// join's contract — the benchmark's ledger compares them across commits —
// so a change that reaches the same pairs by other means (a cheaper
// rejection in front of a rung, another worker count) must book every
// pair exactly where the ladder would have: these numbers move only with
// the filter or the ladder itself, and then deliberately. The adaptive
// B^l rung's exact solves replaced greedy bounds and §5.2.3 calls, so
// ExactSolves + MatchingCalls must stay at least the MatchingCalls read
// before the rung (seedCalls).
func TestBatchFunnelPinned(t *testing.T) {
	hr := datasets.GenHierarchy(datasets.DefaultHierarchy())
	tweets := datasets.GenRecords(hr, datasets.TweetConfig(3000)).Records
	pois := datasets.GenRecords(hr, datasets.POIConfig(600)).Records
	cases := []struct {
		name       string
		r, s       [][]string // s == nil: self join of r
		delta, tau float64
		want       funnel
		seedCalls  int64
	}{
		{name: "tweet self", r: tweets, delta: 0.8, tau: 0.85,
			want: funnel{11533, 0, verify.Stats{Pairs: 11533, CountPruned: 11385, WeightedPruned: 28, UBRejected: 12, LBAccepted: 108, ExactSolves: 770, Results: 108}, 49869, 108}, seedCalls: 0},
		{name: "poi self", r: pois, delta: 0.5, tau: 0.6,
			want: funnel{76275, 0, verify.Stats{Pairs: 76275, CountPruned: 16692, WeightedPruned: 47139, UBRejected: 12165, LBAccepted: 279, ExactSolves: 631, Results: 279}, 21604, 279}, seedCalls: 63},
		{name: "poi r-s", r: pois[:250], s: pois[250:], delta: 0.5, tau: 0.6,
			want: funnel{57330, 0, verify.Stats{Pairs: 57330, CountPruned: 14478, WeightedPruned: 35053, UBRejected: 7676, LBAccepted: 123, ExactSolves: 277, Results: 123}, 21604, 123}, seedCalls: 26},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				opt := kjoin.Defaults(c.delta, c.tau)
				opt.Workers = workers
				var pairs []kjoin.Pair
				var st *kjoin.Stats
				var err error
				if c.s == nil {
					pairs, st, err = kjoin.SelfJoin(hr.H, c.r, opt)
				} else {
					pairs, st, err = kjoin.Join(hr.H, c.r, c.s, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				got := funnel{st.Candidates, st.SizePruned, st.Verify, st.SigEntries, len(pairs)}
				if got != c.want {
					t.Errorf("funnel moved:\n got  %+v\n want %+v", got, c.want)
				}
				if v := got.Verify; v.ExactSolves+v.MatchingCalls < c.seedCalls {
					t.Errorf("%d exact solves and %d matching calls, fewer than the %d calls before the B^l rung", v.ExactSolves, v.MatchingCalls, c.seedCalls)
				}
			})
		}
	}
}
