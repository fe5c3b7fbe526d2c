package sig

import (
	"testing"

	"kjoin/internal/dataset"
	"kjoin/internal/elem"
	"kjoin/internal/setmetric"
)

// benchSetup builds a space over the generated hierarchy with a sample
// of POI records resolved.
func benchSetup(b *testing.B, scheme Scheme) (*Space, [][]elem.ID) {
	b.Helper()
	hr := dataset.GenHierarchy(dataset.DefaultHierarchy())
	c := dataset.GenRecords(hr, dataset.POIConfig(500))
	r := elem.NewResolver(hr.H, elem.Options{})
	sp := NewSpace(r, elem.Standard, 0.8, scheme)
	objs := make([][]elem.ID, len(c.Records))
	for i, rec := range c.Records {
		for _, t := range rec {
			objs[i] = append(objs[i], r.ID(t))
		}
	}
	return sp, objs
}

func BenchmarkObjectSigsDeep(b *testing.B) {
	b.ReportAllocs()
	sp, objs := benchSetup(b, Deep)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.ObjectSigs(objs[i%len(objs)])
	}
}

func BenchmarkObjectSigsNode(b *testing.B) {
	b.ReportAllocs()
	sp, objs := benchSetup(b, Node)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.ObjectSigs(objs[i%len(objs)])
	}
}

func BenchmarkPrefixComputation(b *testing.B) {
	b.ReportAllocs()
	sp, objs := benchSetup(b, Deep)
	all := make([][]Entry, len(objs))
	for i := range objs {
		all[i] = sp.ObjectSigs(objs[i])
	}
	order := BuildOrder(all)
	for i := range all {
		order.Sort(all[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := all[i%len(all)]
		n := len(objs[i%len(objs)])
		DistElePrefix(en, setmetric.Jaccard.TauS(0.85, n))
		WeightedPrefix(en, setmetric.Jaccard.MinOverlap(0.85, n))
	}
}

func BenchmarkBuildOrder(b *testing.B) {
	b.ReportAllocs()
	sp, objs := benchSetup(b, Deep)
	all := make([][]Entry, len(objs))
	for i := range objs {
		all[i] = sp.ObjectSigs(objs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildOrder(all)
	}
}

// BenchmarkOrderSort sorts each object's entry list in the global order,
// the dominant step of prefix building.
func BenchmarkOrderSort(b *testing.B) {
	b.ReportAllocs()
	sp, objs := benchSetup(b, Deep)
	all := make([][]Entry, len(objs))
	for i := range objs {
		all[i] = sp.ObjectSigs(objs[i])
	}
	order := BuildOrder(all)
	var buf []Entry
	var ps PrefixScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = append(buf[:0], all[i%len(all)]...)
		order.SortS(buf, &ps)
	}
}
