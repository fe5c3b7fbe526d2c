package dataset

import (
	"kjoin/internal/hierarchy"
	"kjoin/internal/rng"
)

// Collection is a generated dataset: tokenized records plus the
// duplicate-cluster ground truth (pairs of record indices, X < Y).
type Collection struct {
	Records [][]string
	Truth   map[[2]int]bool
}

// RecordConfig controls GenRecords, the POI/Tweet-style generator.
type RecordConfig struct {
	Seed uint64
	N    int
	// Record length distribution (token counts), per Table 3.
	AvgLen, MinLen, MaxLen int
	// AvgDepth is the target mean depth of entity elements.
	AvgDepth float64
	// DepthDist optionally fixes the entity depth distribution
	// (DepthDist[d] is the probability of depth d); when nil a
	// triangular distribution around AvgDepth is used.
	DepthDist []float64
	// EntityFrac is the fraction of tokens drawn from the hierarchy.
	EntityFrac float64
	// FreeVocab is the size of the non-entity token vocabulary.
	FreeVocab int
	// DupRate is the fraction of records generated as near-duplicates of
	// earlier records (these populate Truth).
	DupRate float64
	// MaxEdits bounds the mutations applied to a duplicate.
	MaxEdits int
}

// POIConfig reproduces the POI rows of Table 3: average length 11,
// max 21, min 2, average element depth 4.
func POIConfig(n int) RecordConfig {
	return RecordConfig{
		Seed: 11, N: n,
		AvgLen: 11, MinLen: 2, MaxLen: 21,
		AvgDepth: 4, EntityFrac: 1.0,
		DepthDist: []float64{0, 0, 0, 0, 0.65, 0.25, 0.10},
		FreeVocab: 12, DupRate: 0.2, MaxEdits: 3,
	}
}

// TweetConfig reproduces the Tweet rows of Table 3: average length 8,
// max 23, min 2, average element depth 5.
func TweetConfig(n int) RecordConfig {
	return RecordConfig{
		Seed: 13, N: n,
		AvgLen: 8, MinLen: 2, MaxLen: 23,
		AvgDepth: 5, EntityFrac: 1.0,
		DepthDist: []float64{0, 0, 0, 0, 0, 0.60, 0.40},
		FreeVocab: 15, DupRate: 0.15, MaxEdits: 3,
	}
}

// GenRecords generates a collection of tokenized records over the
// hierarchy: each record mixes entity tokens (hierarchy node names,
// depths centred on AvgDepth) with free tokens, and DupRate of
// the records are mutated near-duplicates of earlier ones.
func GenRecords(hr *Hier, cfg RecordConfig) *Collection {
	r := rng.New(cfg.Seed)
	out := &Collection{Truth: map[[2]int]bool{}}

	// Free vocabulary: non-entity tokens (street words, descriptors),
	// drawn uniformly from FreeVocab words. A small vocabulary is reused
	// heavily, as in real POI/Tweet corpora, which is what makes coarse
	// signatures non-selective in the paper's filtering experiments.
	nm := newNamer(rng.New(cfg.Seed ^ 0xfeed))
	vocab := make([]string, cfg.FreeVocab)
	for i := range vocab {
		vocab[i] = nm.next()
	}
	freeTok := func() string {
		return vocab[r.Intn(len(vocab))]
	}

	// Depth sampling: the configured distribution, or triangular around
	// AvgDepth.
	height := hr.H.Height()
	depthOf := func() int {
		if len(cfg.DepthDist) > 0 {
			u := r.Float64()
			acc := 0.0
			for d, w := range cfg.DepthDist {
				acc += w
				if u < acc {
					if d > height {
						return height
					}
					return d
				}
			}
		}
		d := int(cfg.AvgDepth + 0.5)
		switch r.Intn(6) {
		case 0:
			d--
		case 1:
			d++
		case 2:
			if r.Intn(2) == 0 {
				d -= 2
			} else {
				d++
			}
		}
		if d < 1 {
			d = 1
		}
		if d > height {
			d = height
		}
		return d
	}
	// Entity sampling mirrors a regional crawl: only a popular subset of
	// each depth is ever referenced (one metro area's streets, a city's
	// cuisine categories), drawn uniformly from it. Every signature is
	// therefore frequent — there are no selective identifier tokens —
	// which is the regime where coarse node signatures collapse onto a
	// few hot ancestors while deep signatures stay comparatively rare,
	// the df profile the paper's depth-aware filtering exploits.
	h := hr.H
	// The popular set of each depth is the head of the level in
	// generation order; GenHierarchy nests hot lineages, so these heads
	// descend from a handful of shallow ancestors — the hot-branch
	// structure of a regional crawl. Shallow sets are tiny (every
	// shallow signature is frequent), deep sets are wide (deep
	// signatures are rare), which is the df profile the paper's
	// depth-aware filtering exploits.
	popCap := [7]int{1, 1, 2, 6, 45, 2400, 1500}
	var popular [2][7][]hierarchy.NodeID
	for dom := 0; dom < 2; dom++ {
		popular[dom][1] = hr.NodesAt(dom, 1)
		for d := 2; d <= height && d < 7; d++ {
			// Children of the previous popular set, in generation order:
			// the deep pools lie entirely under the small shallow pools.
			var pool []hierarchy.NodeID
			for _, p := range popular[dom][d-1] {
				pool = append(pool, h.Children(p)...)
			}
			if len(pool) == 0 {
				pool = hr.NodesAt(dom, d)
			}
			k := popCap[d]
			if k > len(pool) {
				k = len(pool)
			}
			popular[dom][d] = pool[:k]
		}
	}
	entityTok := func() string {
		d := depthOf()
		dom := r.Intn(2)
		for d >= 1 {
			if pool := popular[dom][d]; len(pool) > 0 {
				return h.Name(pool[r.Intn(len(pool))])
			}
			d--
		}
		return freeTok()
	}

	// newTok draws a token the way base records do: entity or free by
	// the configured fraction. Mutations insert through it too, so
	// near-duplicates do not introduce out-of-distribution rare tokens.
	newTok := func() string {
		if r.Float64() < cfg.EntityFrac {
			return entityTok()
		}
		return freeTok()
	}

	genLen := func() int {
		// Sum of three uniforms ≈ normal with mean AvgLen after scaling.
		a := cfg.AvgLen
		l := (r.Intn(a+1) + r.Intn(a+1) + r.Intn(a+1) + 1) * 2 / 3
		if l < cfg.MinLen {
			l = cfg.MinLen
		}
		if l > cfg.MaxLen {
			l = cfg.MaxLen
		}
		return l
	}

	clusterOf := make([]int, 0, cfg.N) // root record of each record's cluster
	members := map[int][]int{}         // cluster root -> member records
	for i := 0; i < cfg.N; i++ {
		if i > 0 && r.Float64() < cfg.DupRate {
			// Near-duplicate of a random earlier record.
			base := r.Intn(i)
			rec := mutate(r, hr, out.Records[base], cfg, newTok)
			out.Records = append(out.Records, rec)
			root := clusterOf[base]
			clusterOf = append(clusterOf, root)
			// Ground truth: pair with every member of the cluster.
			for _, j := range members[root] {
				out.Truth[[2]int{j, i}] = true
			}
			members[root] = append(members[root], i)
			continue
		}
		l := genLen()
		rec := make([]string, 0, l)
		seen := map[string]bool{}
		for len(rec) < l {
			t := newTok()
			if !seen[t] {
				seen[t] = true
				rec = append(rec, t)
			}
		}
		out.Records = append(out.Records, rec)
		clusterOf = append(clusterOf, i)
		members[i] = []int{i}
	}
	return out
}

// mutate applies 1..MaxEdits random mutations to a copy of rec: a typo in
// one token, an entity swap to a sibling or parent node, a token drop, or
// a token insertion. Drops and inserts respect the configured length
// bounds.
func mutate(r *rng.RNG, hr *Hier, rec []string, cfg RecordConfig, freeTok func() string) []string {
	out := append([]string(nil), rec...)
	edits := 1 + r.Intn(cfg.MaxEdits)
	for e := 0; e < edits && len(out) > 1; e++ {
		i := r.Intn(len(out))
		switch r.Intn(10) {
		case 0, 1, 2, 3: // typo
			out[i] = typo(r, out[i])
		case 4, 5, 6: // hierarchy substitution
			if nodes := hr.H.Lookup(out[i]); len(nodes) > 0 {
				out[i] = hierSwap(r, hr.H, nodes[0])
			} else {
				out[i] = typo(r, out[i])
			}
		case 7: // drop
			if len(out) > cfg.MinLen {
				out = append(out[:i], out[i+1:]...)
			}
		default: // insert
			if len(out) < cfg.MaxLen {
				out = append(out, freeTok())
			}
		}
	}
	return out
}

// typo applies one random character edit (substitute, delete or
// transpose) to t.
func typo(r *rng.RNG, t string) string {
	if len(t) == 0 {
		return t
	}
	b := []byte(t)
	p := r.Intn(len(b))
	switch r.Intn(3) {
	case 0: // substitute
		b[p] = byte('a' + r.Intn(26))
	case 1: // delete
		if len(b) > 1 {
			b = append(b[:p], b[p+1:]...)
		} else {
			b[p] = byte('a' + r.Intn(26))
		}
	default: // transpose
		if p+1 < len(b) {
			b[p], b[p+1] = b[p+1], b[p]
		} else if p > 0 {
			b[p], b[p-1] = b[p-1], b[p]
		}
	}
	return string(b)
}

// hierSwap replaces node n with a nearby node: a sibling (same parent)
// or its parent — the "Californian food" vs "American food" error class.
func hierSwap(r *rng.RNG, h *hierarchy.Hierarchy, n hierarchy.NodeID) string {
	p := h.Parent(n)
	if p < 0 {
		return h.Name(n)
	}
	if sibs := h.Children(p); len(sibs) > 1 && r.Intn(2) == 0 {
		for tries := 0; tries < 4; tries++ {
			s := sibs[r.Intn(len(sibs))]
			if s != n {
				return h.Name(s)
			}
		}
	}
	return h.Name(p)
}
