package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kjoin/internal/elem"
	"kjoin/internal/hierarchy"
	"kjoin/internal/paperdata"
)

// bulkCorpus is segDiffCorpus widened for the bulk path: more objects
// than one bulk chunk holds, a fresh token in every third object (so
// every chunk interns, resolves and warms new elements), and upper-case
// spellings that intern as the lower-case element.
func bulkCorpus(seed int64, count int) (*hierarchy.Hierarchy, [][]string) {
	r := rand.New(rand.NewSource(seed))
	h := randHierarchy(r, 40)
	objs := randObjects(r, h, count)
	for i, o := range objs {
		if i%3 == 0 {
			objs[i] = append(o, fmt.Sprintf("u%d", i))
		}
		if i%5 == 0 {
			objs[i][0] = strings.ToUpper(objs[i][0])
		}
	}
	return h, objs
}

// logRec is one record of a write-ahead log as the server writes it: an
// add's tokens, or a seal.
type logRec struct {
	seal   bool
	tokens []string
}

// addLogged streams objs into ix the way the server does and returns
// log extended by the records it would write: each seal the engine
// performs is logged before the add that triggered it, and with
// sealEvery > 0 a forced seal lands before every sealEvery-th add, off
// the count rule's boundaries.
func addLogged(t *testing.T, ix *Indexer, log []logRec, objs [][]string, sealEvery int) []logRec {
	t.Helper()
	ix.SetSealLogger(func() (uint64, error) {
		log = append(log, logRec{seal: true})
		return uint64(len(log)), nil
	})
	for i, o := range objs {
		if sealEvery > 0 && i%sealEvery == sealEvery-1 {
			if err := ix.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ix.Add(o); err != nil {
			t.Fatal(err)
		}
		log = append(log, logRec{tokens: o})
		ix.SetWALSeq(uint64(len(log)))
	}
	ix.WaitMerges()
	return log
}

// replayLog applies log[from:] to ix the way server recovery does:
// consecutive adds as one ApplyLoggedRun, each seal record alone.
func replayLog(t *testing.T, ix *Indexer, log []logRec, from int) {
	t.Helper()
	var run [][]string
	var first uint64
	flush := func() {
		if len(run) > 0 {
			if err := ix.ApplyLoggedRun(first, run); err != nil {
				t.Fatal(err)
			}
			run = nil
		}
	}
	for i := from; i < len(log); i++ {
		seq := uint64(i + 1)
		if log[i].seal {
			flush()
			if err := ix.ApplySealLogged(seq); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if len(run) == 0 {
			first = seq
		}
		run = append(run, log[i].tokens)
	}
	flush()
	ix.WaitMerges()
}

// olderSnapshot rewrites a current snapshot in the format of version 1
// or 2: no segments line, and for v2 a trailer recomputed over the
// rewritten bytes; v1 also drops the walseq field.
func olderSnapshot(snap []byte, version int) []byte {
	lines := strings.Split(strings.TrimSuffix(string(snap), "\n"), "\n")
	cfg := lines[1]
	if version == 1 {
		cfg = cfg[:strings.Index(cfg, " walseq=")]
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d\n%s\n", snapshotMagic, version, cfg)
	objs := lines[3 : len(lines)-1]
	for _, l := range objs {
		b.WriteString(l + "\n")
	}
	if version == 2 {
		fmt.Fprintf(&b, "%s crc32c=%08x records=%d\n", snapshotTrailer, crc32.Checksum(b.Bytes(), snapCastagnoli), len(objs))
	}
	return b.Bytes()
}

// requireSameIndex fails unless got holds exactly want's state: the
// same element and signature ids with the same cached signatures and
// group keys, the same prepared form and prefix for every object, the
// same segment layout and insert counters, and bit-identical query
// answers. Its queries intern nothing new, so want stays comparable.
func requireSameIndex(t *testing.T, what string, want, got *Indexer) {
	t.Helper()
	wr, gr := want.j.res, got.j.res
	if wr.Len() != gr.Len() || want.j.sp.NumSigs() != got.j.sp.NumSigs() {
		t.Fatalf("%s: %d elements / %d signatures, want %d / %d", what, gr.Len(), got.j.sp.NumSigs(), wr.Len(), want.j.sp.NumSigs())
	}
	for e := range wr.Len() {
		id := elem.ID(e)
		if wr.Info(id).Token != gr.Info(id).Token {
			t.Fatalf("%s: element %d is %q, want %q", what, e, gr.Info(id).Token, wr.Info(id).Token)
		}
		if !reflect.DeepEqual(want.j.sp.ElemSigs(id), got.j.sp.ElemSigs(id)) ||
			!slices.Equal(want.j.sp.GroupKeys(id), got.j.sp.GroupKeys(id)) {
			t.Fatalf("%s: element %d signatures or group keys differ", what, e)
		}
	}
	wv, gv := want.view.Load(), got.view.Load()
	if gv.total != wv.total {
		t.Fatalf("%s: %d objects, want %d", what, gv.total, wv.total)
	}
	for id := range wv.total {
		w, g := wv.objAt(id), gv.objAt(id)
		if !slices.Equal(w.Elems, g.Elems) || !slices.Equal(w.Keys, g.Keys) ||
			!slices.Equal(w.ByKey, g.ByKey) || (w.ByKey == nil) != (g.ByKey == nil) || !slices.Equal(w.prefix, g.prefix) {
			t.Fatalf("%s: object %d prepared as %+v, want %+v", what, id, *g, *w)
		}
	}
	if !reflect.DeepEqual(got.SegmentSizes(), want.SegmentSizes()) {
		t.Fatalf("%s: layout %v, want %v", what, got.SegmentSizes(), want.SegmentSizes())
	}
	if ws, gs := want.Stats(), got.Stats(); gs.Objects != ws.Objects || gs.SigEntries != ws.SigEntries {
		t.Fatalf("%s: stats objects=%d sig_entries=%d, want %d and %d", what, gs.Objects, gs.SigEntries, ws.Objects, ws.SigEntries)
	}
	for id := 0; id < wv.total; id += 13 {
		q := wv.objAt(id).Elems
		toks := make([]string, len(q))
		for i, e := range q {
			toks[i] = wr.Info(e).Token
		}
		wm, err := want.Query(toks)
		if err != nil {
			t.Fatal(err)
		}
		gm, err := got.Query(toks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(matchBits(gm), matchBits(wm)) {
			t.Fatalf("%s: query %d answers %v, want %v", what, id, matchBits(gm), matchBits(wm))
		}
	}
}

// requireSameAdd adds one more object, with a token neither index has
// seen, to both and fails unless the pairs match bit for bit — the live
// add path over a loaded or replayed index.
func requireSameAdd(t *testing.T, what string, want, got *Indexer) {
	t.Helper()
	probe := []string{"n1", "n2", "alpha", "novel"}
	wp, err := want.Add(probe)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := got.Add(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pairBits(gp), pairBits(wp)) {
		t.Fatalf("%s: add after load pairs %v, want %v", what, pairBits(gp), pairBits(wp))
	}
	requireSameIndex(t, what+"/after-add", want, got)
}

// TestBulkLoadMatchesAdds pins the bulk path against Add: a snapshot
// load of every format version and a WAL replay — run by run across
// seal records, from empty or over a mid-stream snapshot — rebuild
// exactly the index an Add-fed one holds, for memtables of 3, 7 and
// 256 objects, serially and across workers, with and without K-Join+
// resolution.
func TestBulkLoadMatchesAdds(t *testing.T) {
	h, objs := bulkCorpus(61, bulkChunk+150)
	for _, sealEvery := range []int{3, 7, 256} {
		for _, workers := range []int{1, 4} {
			for _, plus := range []bool{false, true} {
				opt := Defaults(0.7, 0.5)
				opt.SealEvery, opt.Workers, opt.Plus = sealEvery, workers, plus
				name := fmt.Sprintf("seal=%d/workers=%d/plus=%v", sealEvery, workers, plus)
				fresh := func() *Indexer {
					ix, err := NewIndexer(h, opt)
					if err != nil {
						t.Fatal(err)
					}
					return ix
				}
				load := func(snap []byte) *Indexer {
					ix, err := LoadIndexer(h, opt, bytes.NewReader(snap))
					if err != nil {
						t.Fatal(err)
					}
					ix.WaitMerges()
					return ix
				}

				// The count rule alone: every format rebuilds the layout.
				counted := fresh()
				log := addLogged(t, counted, nil, objs, 0)
				snap := snapshotOf(t, counted)
				requireSameIndex(t, name+"/v3", counted, load(snap))
				requireSameIndex(t, name+"/v2", counted, load(olderSnapshot(snap, 2)))
				requireSameIndex(t, name+"/v1", counted, load(olderSnapshot(snap, 1)))
				replayed := fresh()
				replayLog(t, replayed, log, 0)
				requireSameIndex(t, name+"/wal", counted, replayed)
				// A log written before seal records existed.
				replayed = fresh()
				replayLog(t, replayed, slices.DeleteFunc(log, func(r logRec) bool { return r.seal }), 0)
				requireSameIndex(t, name+"/wal-without-seals", counted, replayed)
				requireSameAdd(t, name+"/wal-without-seals", counted, replayed)

				// Forced seals off the count boundaries: only the recorded
				// layout (v3, seal records) reproduces them. A snapshot
				// pinned mid-stream plus the log past it is what recovery
				// replays.
				sealed := fresh()
				log = addLogged(t, sealed, nil, objs[:len(objs)/2], 50)
				mid := sealed.Pin()
				log = addLogged(t, sealed, log, objs[len(objs)/2:], 50)
				requireSameIndex(t, name+"/v3-sealed", sealed, load(snapshotOf(t, sealed)))
				replayed = fresh()
				replayLog(t, replayed, log, 0)
				requireSameIndex(t, name+"/wal-sealed", sealed, replayed)
				var buf bytes.Buffer
				if err := mid.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				recovered := load(buf.Bytes())
				replayLog(t, recovered, log, int(mid.WALSeq()))
				requireSameIndex(t, name+"/snapshot+wal", sealed, recovered)
				requireSameAdd(t, name+"/snapshot+wal", sealed, recovered)
			}
		}
	}
}

// TestLoadRejectsCorruptSnapshots pins the integrity checks of a load and
// their errors, and that they all fire in readSnapshot — before an index
// exists, so before any object of a corrupt generation is prepared.
func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	h, _ := paperdata.Fig1()
	opt := Defaults(0.7, 0.6)
	ix := table1Indexer(t)
	snap := string(snapshotOf(t, ix))
	trailerAt := strings.LastIndex(snap, snapshotTrailer)
	body, trailer := snap[:trailerAt], snap[trailerAt:]
	crc := crc32.Checksum([]byte(body), snapCastagnoli)
	lines := strings.SplitAfter(snap, "\n")
	v1 := string(olderSnapshot([]byte(snap), 1))
	cases := []struct {
		name, snap, err string
	}{
		{"truncated before trailer", body, "kjoin: snapshot: truncated: missing trailer"},
		{"truncated mid-line", body[:len(body)-3], "kjoin: snapshot: truncated: missing trailer"},
		{"truncated mid-trailer", body + trailer[:len(snapshotTrailer)+9],
			fmt.Sprintf("kjoin: snapshot: bad trailer %q", trailer[:len(snapshotTrailer)+9])},
		{"object line missing", strings.Join(append(slices.Clone(lines[:3]), lines[4:]...), ""),
			"kjoin: snapshot: checksum mismatch: crc32c "},
		{"flipped crc", body + fmt.Sprintf("%s crc32c=%08x records=%d\n", snapshotTrailer, crc^1, ix.Len()),
			fmt.Sprintf("kjoin: snapshot: checksum mismatch: crc32c %08x, trailer says %08x", crc, crc^1)},
		{"wrong records", body + fmt.Sprintf("%s crc32c=%08x records=%d\n", snapshotTrailer, crc, ix.Len()+1),
			fmt.Sprintf("kjoin: snapshot: trailer records=%d but %d objects read", ix.Len()+1, ix.Len())},
		{"data after trailer", snap + "KFC\n", "kjoin: snapshot: data after trailer"},
		{"v1 truncated on a line boundary", v1[:strings.LastIndex(strings.TrimSuffix(v1, "\n"), "\n")+1],
			fmt.Sprintf("kjoin: snapshot: header says objects=%d but %d object lines read (truncated?)", ix.Len(), ix.Len()-1)},
	}
	for _, c := range cases {
		_, loadErr := LoadIndexer(h, opt, strings.NewReader(c.snap))
		_, _, _, readErr := readSnapshot(strings.NewReader(c.snap), opt)
		if loadErr == nil || readErr == nil {
			t.Errorf("%s: loaded (load error %v, read error %v)", c.name, loadErr, readErr)
			continue
		}
		if !strings.HasPrefix(loadErr.Error(), c.err) {
			t.Errorf("%s: error %q, want %q", c.name, loadErr, c.err)
		}
		if readErr.Error() != loadErr.Error() {
			t.Errorf("%s: readSnapshot says %q but the load %q", c.name, readErr, loadErr)
		}
	}
}
