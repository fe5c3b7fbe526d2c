package verify

import (
	"fmt"
	"math"
	"testing"

	"kjoin/internal/dataset"
	"kjoin/internal/elem"
	"kjoin/internal/hierarchy"
	"kjoin/internal/mathx"
	"kjoin/internal/sig"
	"kjoin/internal/synonym"
)

// TestPathSimBitIdentical: over every pair of elements, the similarity
// Context.sim reads off two path codes — or the Resolver.Sim it falls
// back to — has the bits of Resolver.Sim, under both metrics, for
//   - the Table 2 generator's hierarchy (every element coded),
//   - a hand-built hierarchy with a 300-child node and a chain deeper
//     than a code reaches (the uncoded nodes fall back),
//   - K-Join+ resolution with synonyms and typos (multi-mapped and φ < 1
//     elements fall back, a synonym of a node name is that node),
//
// each with non-entity tokens and the root's name, a depth-0 element,
// among the elements. So does rung 2b's column maximum (colMax) of
// every element against a one-element probe run, at two δ in turn on
// one Scratch, against the edge appendEdges keeps.
func TestPathSimBitIdentical(t *testing.T) {
	table2 := dataset.GenHierarchy(dataset.DefaultHierarchy()).H
	var sample []string // a spread of nodes, plus the children of some
	for n := 0; n < table2.Len(); n++ {
		if n%7 == 0 {
			sample = append(sample, table2.Name(hierarchy.NodeID(n)))
		}
		if n%97 == 0 {
			for _, c := range table2.Children(hierarchy.NodeID(n)) {
				sample = append(sample, table2.Name(c))
			}
		}
	}

	hand := hierarchy.New("top")
	hub := hand.Add(hand.Root(), "hub")
	for i := 0; i < 300; i++ {
		k := hand.Add(hub, fmt.Sprintf("k%d", i))
		if i%40 == 0 || i == 254 || i == 255 {
			hand.Add(k, fmt.Sprintf("k%dx", i))
		}
	}
	for n, d := hand.Add(hand.Root(), "c1"), 2; d <= 9; d++ {
		n = hand.Add(n, fmt.Sprintf("c%d", d))
	}
	handNames := hand.Names()

	syns := synonym.New()
	var plusTokens []string
	for i, name := range sample[:300] {
		plusTokens = append(plusTokens, name)
		switch i % 3 {
		case 0: // a synonym: maps to the same node with φ = 1
			syns.Add(name, "alias"+name)
			plusTokens = append(plusTokens, "alias"+name)
		case 1: // a typo: maps approximately, φ < 1
			plusTokens = append(plusTokens, "q"+name[1:])
		}
	}
	syns.Add("nonentitya", "nonentityb") // synonyms that name no node

	cases := []struct {
		name   string
		h      *hierarchy.Hierarchy
		opts   elem.Options
		tokens []string
	}{
		{"table2", table2, elem.Options{}, sample},
		{"hand-built", hand, elem.Options{}, handNames},
		{"plus", table2, elem.Options{Plus: true, PhiMin: 0.75, MaxMappings: 4, Synonyms: syns}, plusTokens},
	}
	for _, tc := range cases {
		for _, metric := range []elem.Metric{elem.Standard, elem.WuPalmer} {
			res := elem.NewResolver(tc.h, tc.opts)
			for _, tok := range append(tc.tokens, tc.h.Name(tc.h.Root()), "nonentitya", "nonentityb", "unknowntoken") {
				res.ID(tok)
			}
			res.ResolveAll(1)
			sp := sig.NewSpace(res, metric, 0.5, sig.Deep)
			sp.Warm(res.Len(), 1)
			ctx := &Context{Res: res, Space: sp, Metric: metric}
			codes := sp.PathCodes()
			coded, fallback := 0, 0
			for a := elem.ID(0); int(a) < res.Len(); a++ {
				for b := elem.ID(0); int(b) < res.Len(); b++ {
					got, want := ctx.sim(codes, a, b), res.Sim(a, b, metric)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %v: sim(%q, %q) = %v, Resolver.Sim %v", tc.name, metric,
							res.Info(a).Token, res.Info(b).Token, got, want)
					}
					if codes[a] != sig.NoPath && codes[b] != sig.NoPath {
						coded++
					} else {
						fallback++
					}
				}
			}
			if coded < 10000 || fallback < 1000 {
				t.Fatalf("%s %v: %d coded and %d fallback pairs", tc.name, metric, coded, fallback)
			}
			for _, delta := range []float64{0.5, 0.8, 0.5} {
				ctx.Delta = delta
				pt := &ctx.scratch().probe
				for b := elem.ID(0); int(b) < res.Len(); b++ {
					pt.load(sp.MaxDiffSims(), codes, &Prepared{Keys: []sig.Sig{0}, ByKey: []elem.ID{b}})
					for a := elem.ID(0); int(a) < res.Len(); a++ {
						if a == b {
							continue
						}
						want := res.Sim(a, b, metric)
						if !mathx.GE(want, delta) {
							want = 0
						}
						if got := pt.colMax(ctx, codes, a, pt.key(0)); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %v δ=%v: colMax(%q) against %q = %v, want %v", tc.name, metric, delta,
								res.Info(a).Token, res.Info(b).Token, got, want)
						}
					}
				}
			}
			if root := res.ID(tc.h.Name(tc.h.Root())); codes[root] != 0 {
				t.Fatalf("%s: the root element's slot is %x, want code 0 at depth 0", tc.name, codes[root])
			}
			for _, tok := range []string{"unknowntoken", "nonentitya"} {
				if codes[res.ID(tok)] != sig.NoPath {
					t.Fatalf("%s: the non-entity %q has a path code", tc.name, tok)
				}
			}
			if tc.name == "hand-built" {
				for _, tok := range []string{"k255", "k299", "k255x", "c8", "c9"} {
					if codes[res.ID(tok)] != sig.NoPath {
						t.Fatalf("node %q does not fit a path code, but its element has one", tok)
					}
				}
				for _, tok := range []string{"k254", "k254x", "c7"} {
					if codes[res.ID(tok)] == sig.NoPath {
						t.Fatalf("node %q fits a path code, but its element has none", tok)
					}
				}
			}
		}
	}
}
