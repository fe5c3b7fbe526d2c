package core

import (
	"sort"

	"kjoin/internal/hierarchy"
	"kjoin/internal/mathx"
)

// TopKSelfJoin returns the k most similar object pairs (ties broken by
// pair indices) with similarity at least opt.Tau, which acts as a floor:
// the search never reports pairs below it, and if fewer than k pairs
// reach the floor, fewer are returned.
//
// The algorithm runs the threshold join with a descending threshold
// schedule starting near 1; as soon as a run yields at least k pairs,
// the k best are exact — a τ-threshold join returns *every* pair with
// similarity ≥ τ, so nothing above the k-th similarity can be missing.
// High-threshold probes are cheap (prefixes are long, candidates few),
// which makes the schedule far cheaper than one low-threshold join when
// the top pairs are similar.
func TopKSelfJoin(h *hierarchy.Hierarchy, objects [][]string, k int, opt Options) ([]Pair, *Stats, error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	if k <= 0 {
		return nil, &Stats{Objects: len(objects)}, nil
	}
	floor := opt.Tau
	opt.ComputeSims = true
	total := &Stats{}

	// The floor closes the schedule: it runs unless a step at or above it
	// already found k pairs — also when the floor is above every step.
	schedule := []float64{0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, floor}
	var pairs []Pair
	for _, tau := range schedule {
		if tau < floor {
			continue
		}
		opt.Tau = tau
		var st *Stats
		var err error
		pairs, st, err = SelfJoin(h, objects, opt)
		if err != nil {
			return nil, nil, err
		}
		accumulate(total, st)
		if len(pairs) >= k || tau <= floor {
			break
		}
	}

	sort.Slice(pairs, func(i, j int) bool {
		if c := mathx.Cmp(pairs[i].Sim, pairs[j].Sim); c != 0 {
			return c > 0
		}
		if pairs[i].X != pairs[j].X {
			return pairs[i].X < pairs[j].X
		}
		return pairs[i].Y < pairs[j].Y
	})
	if len(pairs) > k {
		pairs = pairs[:k]
	}
	return pairs, total, nil
}

// accumulate folds one run's stats into the total.
func accumulate(total, st *Stats) {
	total.Objects = st.Objects
	total.Candidates += st.Candidates
	total.SizePruned += st.SizePruned
	total.Preprocess += st.Preprocess
	total.BuildIndex += st.BuildIndex
	total.Probe += st.Probe
	total.VerifyTime += st.VerifyTime
	total.Verify.Add(st.Verify)
	total.SigEntries += st.SigEntries
	total.AvgPrefix = st.AvgPrefix
}
