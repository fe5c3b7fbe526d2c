package core

// Join- and engine-level tests of the lazy verification ladder: its
// early exits may depend on nothing worker-local (counters repeat
// exactly across worker counts and repeated joins), and the key-ordered
// column it walks is derived state the engine rebuilds wherever it
// rebuilds the sorted keys — seal, merge and snapshot load.

import (
	"bytes"
	"reflect"
	"testing"

	"kjoin/internal/dataset"
	"kjoin/internal/verify"
)

// columnCounts reports how many of the objects carry the key-ordered
// column, and checks every column against its object.
func columnCounts(t *testing.T, objs []*prepped) (with, without int) {
	t.Helper()
	for i, o := range objs {
		if o.ByKey == nil {
			without++
			continue
		}
		with++
		if len(o.ByKey) != len(o.Elems) || len(o.Keys) != len(o.Elems) {
			t.Fatalf("object %d: %d elements, %d keys, column of %d", i, len(o.Elems), len(o.Keys), len(o.ByKey))
		}
	}
	return with, without
}

// TestJoinCountersDeterministic joins the POI corpus at the batch-verify
// thresholds, where every rung of the ladder has work, with 1, 2 and 4
// workers and twice each: pairs and similarity bits, the candidate
// funnel and every verification counter must repeat exactly — no early
// exit may depend on which worker, or which warm cache, met the pair.
func TestJoinCountersDeterministic(t *testing.T) {
	hr := dataset.GenHierarchy(dataset.HierarchyConfig{Seed: 7, Nodes: 1200, Height: 6, MaxFanout: 20})
	recs := dataset.GenRecords(hr, dataset.POIConfig(260)).Records
	for _, verifier := range []verify.Kind{verify.SubGraph, verify.Adaptive} {
		opt := Defaults(0.5, 0.6)
		opt.Verifier = verifier
		var wantPairs []Pair
		var want *Stats
		for _, workers := range []int{1, 2, 4, 1, 2, 4} {
			opt.Workers = workers
			pairs, st, err := SelfJoin(hr.H, recs, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkFunnel(t, "SelfJoin", st.Candidates, st.SizePruned, st.Verify.Pairs)
			if want == nil {
				wantPairs, want = pairs, st
				v := st.Verify
				if v.CountPruned == 0 || v.WeightedPruned == 0 || v.Results == 0 ||
					(verifier == verify.Adaptive && (v.UBRejected == 0 || v.LBAccepted == 0)) {
					t.Fatalf("%v: corpus leaves a rung idle: %+v", verifier, v)
				}
				continue
			}
			if !samePairs(pairs, wantPairs) {
				t.Errorf("%v workers=%d: pairs diverge from the first run", verifier, workers)
			}
			if st.Verify != want.Verify || st.Candidates != want.Candidates || st.SizePruned != want.SizePruned ||
				st.SigEntries != want.SigEntries || st.AvgPrefix != want.AvgPrefix {
				t.Errorf("%v workers=%d: counters %+v cand=%d size=%d, first run %+v cand=%d size=%d",
					verifier, workers, st.Verify, st.Candidates, st.SizePruned, want.Verify, want.Candidates, want.SizePruned)
			}
		}
	}
}

// TestPreparedColumnKinds pins which objects get the key-ordered column:
// under plain resolution every one; under Plus resolution of the kernel
// corpus (a hierarchy with repeated names) both kinds occur, so
// TestKernelPathsMatchNaive runs the merge walk and the union-find path.
func TestPreparedColumnKinds(t *testing.T) {
	h, objects := kernelCorpus(300)
	for _, plus := range []bool{false, true} {
		opt := Defaults(0.6, 0.55)
		opt.Plus = plus
		_, objs, _ := batchState(h, objects, opt)
		ptrs := make([]*prepped, len(objs))
		for i := range objs {
			ptrs[i] = &objs[i]
		}
		with, without := columnCounts(t, ptrs)
		if with == 0 || (without > 0) != plus {
			t.Errorf("plus=%v: %d objects with the column, %d without", plus, with, without)
		}
	}
}

// TestEngineRebuildsColumn: the column is derived like the sorted keys,
// so the snapshot format does not carry it and every engine path that
// produces an object produces its column. A sealed and merged Indexer
// and its LoadIndexer round-trip must hold a column for every
// single-key object and answer every query bit-identically — to each
// other and to a memtable-only engine that never sealed.
func TestEngineRebuildsColumn(t *testing.T) {
	for _, plus := range []bool{false, true} {
		h, objs := segDiffCorpus(29, 120)
		opt := Defaults(0.6, 0.5)
		opt.Plus = plus
		flat := opt
		flat.SealEvery = 1 << 20
		ref, err := NewIndexer(h, flat)
		if err != nil {
			t.Fatal(err)
		}
		addAll(t, ref, objs)

		opt.SealEvery = 8
		ix, err := NewIndexer(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		addAll(t, ix, objs)
		if err := ix.Seal(); err != nil {
			t.Fatal(err)
		}
		ix.WaitMerges()
		if ix.view.Load().mergeTotal == 0 {
			t.Fatal("no merge ran; the corpus does not exercise merged segments")
		}
		var buf bytes.Buffer
		if err := ix.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadIndexer(h, opt, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		for name, e := range map[string]*Indexer{"merged": ix, "loaded": loaded} {
			v := e.view.Load()
			all := make([]*prepped, v.total)
			for id := range all {
				all[id] = v.objAt(id)
			}
			with, without := columnCounts(t, all)
			if with == 0 || (without > 0) != plus {
				t.Errorf("plus=%v %s: %d objects with the column, %d without", plus, name, with, without)
			}
			for id := range all {
				if want := ref.view.Load().objAt(id); !reflect.DeepEqual(all[id].Prepared, want.Prepared) {
					t.Fatalf("plus=%v %s object %d: prepared form %+v, memtable engine has %+v", plus, name, id, all[id].Prepared, want.Prepared)
				}
			}
			for i, o := range objs {
				got, err := e.Query(o)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Query(o)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(matchBits(got), matchBits(want)) {
					t.Fatalf("plus=%v %s query %d: %v, memtable engine answers %v", plus, name, i, matchBits(got), matchBits(want))
				}
			}
		}
	}
}
