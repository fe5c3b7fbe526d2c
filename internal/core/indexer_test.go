package core

import (
	"math"
	"reflect"
	"testing"

	"kjoin/internal/dataset"
	"kjoin/internal/paperdata"
)

func TestIndexerMatchesBatchJoin(t *testing.T) {
	h, _ := paperdata.Fig1()
	objs := paperdata.Table1()
	for _, weighted := range []bool{false, true} {
		opt := Defaults(0.7, 0.6)
		opt.Weighted = weighted
		ix, err := NewIndexer(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		var got []Pair
		for _, o := range objs {
			pairs, err := ix.Add(o)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, pairs...)
		}
		want, err := NaiveSelfJoin(h, objs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pairKeys(got), pairKeys(want)) {
			t.Errorf("weighted=%v: indexer %v, naive %v", weighted, pairKeys(got), pairKeys(want))
		}
		if ix.Len() != len(objs) {
			t.Errorf("Len = %d", ix.Len())
		}
		if ix.Stats().Objects != len(objs) {
			t.Errorf("Stats.Objects = %d", ix.Stats().Objects)
		}
	}
}

func TestIndexerQuery(t *testing.T) {
	h, _ := paperdata.Fig1()
	objs := paperdata.Table1()
	opt := Defaults(0.7, 0.6)
	ix, err := NewIndexer(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if _, err := ix.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	// Query with S3's tokens (without inserting): S1 and S3 must match
	// (S3 matches itself with sim 1, S1 with 19/29).
	matches, err := ix.Query(objs[2])
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]float64{}
	for _, m := range matches {
		found[m.Index] = m.Sim
	}
	if s, ok := found[2]; !ok || math.Abs(s-1) > 1e-9 {
		t.Errorf("query should match S3 itself with sim 1, got %v", found)
	}
	if s, ok := found[0]; !ok || math.Abs(s-19.0/29) > 1e-9 {
		t.Errorf("query should match S1 with 19/29, got %v", found)
	}
	if ix.Len() != len(objs) {
		t.Error("Query must not grow the index")
	}
}

func TestIndexerRejectsBadOptions(t *testing.T) {
	h, _ := paperdata.Fig1()
	if _, err := NewIndexer(h, Options{}); err == nil {
		t.Error("zero options should be rejected")
	}
}

func TestTopKSelfJoin(t *testing.T) {
	h, _ := paperdata.Fig1()
	objs := paperdata.Table1()
	opt := Defaults(0.7, 0.1)
	// Oracle: all pairs sorted by similarity.
	naive, err := NaiveSelfJoin(h, objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	// NaiveSelfJoin returns index-ordered; sort by sim desc like TopK.
	oracle := append([]Pair(nil), naive...)
	sortPairsBySim(oracle)
	for _, k := range []int{1, 3, 5, len(oracle), len(oracle) + 10} {
		got, st, err := TopKSelfJoin(h, objs, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle
		if k < len(oracle) {
			want = oracle[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Sim-want[i].Sim) > 1e-9 {
				t.Errorf("k=%d rank %d: sim %v, want %v", k, i, got[i].Sim, want[i].Sim)
			}
		}
		if st.Candidates == 0 {
			t.Errorf("k=%d: no candidates recorded", k)
		}
	}
	// k <= 0 returns nothing.
	got, _, err := TopKSelfJoin(h, objs, 0, opt)
	if err != nil || len(got) != 0 {
		t.Errorf("k=0: got %v, %v", got, err)
	}
	// Floor above every similarity returns nothing.
	opt.Tau = 0.99
	got, _, err = TopKSelfJoin(h, objs, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		if p.Sim < 0.99-1e-9 {
			t.Errorf("pair %v below the floor", p)
		}
	}
	// Invalid options are rejected.
	if _, _, err := TopKSelfJoin(h, objs, 5, Options{}); err == nil {
		t.Error("zero options should be rejected")
	}
}

// TestTopKFloorAboveSchedule: a floor above the schedule's first step
// (0.95) still runs the floor join, so the top pairs are SelfJoin's at
// that τ — here exact duplicates, whose similarity 1 clears any floor.
func TestTopKFloorAboveSchedule(t *testing.T) {
	hr := dataset.GenHierarchy(dataset.DefaultHierarchy())
	objs := dataset.GenRecords(hr, dataset.POIConfig(200)).Records
	objs = append(objs, objs[0], objs[1])
	for _, floor := range []float64{0.96, 1} {
		opt := Defaults(0.5, floor)
		all, _, err := SelfJoin(hr.H, objs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) < 2 {
			t.Fatalf("floor %v: SelfJoin finds %d pairs, want the 2 duplicates at least", floor, len(all))
		}
		sortPairsBySim(all)
		want := all[:min(3, len(all))]
		got, _, err := TopKSelfJoin(hr.H, objs, 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("floor %v: TopKSelfJoin returns %d pairs, SelfJoin's top is %v", floor, len(got), want)
		}
		for i := range want {
			if got[i].X != want[i].X || got[i].Y != want[i].Y || math.Float64bits(got[i].Sim) != math.Float64bits(want[i].Sim) {
				t.Fatalf("floor %v rank %d: got %+v, want %+v", floor, i, got[i], want[i])
			}
		}
	}
}

func sortPairsBySim(ps []Pair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0; j-- {
			a, b := ps[j-1], ps[j]
			worse := a.Sim < b.Sim || (a.Sim == b.Sim && (a.X > b.X || (a.X == b.X && a.Y > b.Y)))
			if worse {
				ps[j-1], ps[j] = b, a
			} else {
				break
			}
		}
	}
}
