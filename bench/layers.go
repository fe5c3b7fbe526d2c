package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"kjoin"
	"kjoin/internal/core"
	"kjoin/internal/elem"
	"kjoin/internal/index"
	"kjoin/internal/matching"
	"kjoin/internal/server"
	"kjoin/internal/serverutil"
	"kjoin/internal/sig"
	"kjoin/internal/strutil"
	"kjoin/internal/verify"
	"kjoin/internal/wal"
)

// Sample sizes of the per-layer passes: large enough for a stable
// median, small enough that the whole traced pass fits one run.
const (
	pairSample  = 2000 // candidate pairs per verify sample
	pairScanCap = 3_000_000
	matchSample = 300
	walRecords  = 20000
	walSyncs    = 300
	handlerOps  = 600
	plusTokens  = 400
	replayOps   = 200
	// minOps is how many whole ops (adds, queries) a loop runs before its
	// time budget (scale.opBudget) may stop it.
	minOps = 30
)

// layers is the state the per-layer passes share.
type layers struct {
	cfg     *config
	out     *outcome
	tr      *tracer
	h       *kjoin.Hierarchy
	records [][]string
	opt     kjoin.Options
	dir     string
}

// runLayers measures from outside the layers the workload's requests
// cross, on the workload's own records and options: it times calls into
// each layer's exported functions and reads the counters the public API
// returns. Every workload crosses the join layers (elem, strutil, sig,
// index, verify, matching: a SelfJoin and an engine add or query both go
// through them); a serve workload also crosses the streaming engine, wal,
// serverutil and server. A layer the workload does not cross gets no call,
// so it has no span in the trace and its metrics read 0.
func runLayers(cfg *config, out *outcome, tr *tracer, h *kjoin.Hierarchy, records [][]string, opt kjoin.Options, serve bool) {
	l := &layers{cfg: cfg, out: out, tr: tr, h: h, records: records, opt: opt}
	if !serve {
		l.stageWalk()
		return
	}
	// A serve workload's corpus through the batch join, for the core.* and
	// verify.* counters of its data and thresholds.
	half, _ := timedJoin(h, records[:len(records)/2], opt, tr, "core.SelfJoin.half")
	full, _ := timedJoin(h, records, opt, tr, "core.SelfJoin")
	batchLayerStats(out, &full, &half, math.Log2(full.wall.Seconds()/half.wall.Seconds()))
	l.stageWalk()

	var err error
	if l.dir, err = os.MkdirTemp(cfg.buildDir, "layers-"); err != nil {
		fatalf("temp dir: %v", err)
	}
	defer os.RemoveAll(l.dir)
	ix := l.engine(records)
	corpus := records[:ix.Len()] // as far as the add budget reached
	l.walAndStore(ix, corpus)
	l.replay(ix, corpus)
	l.serverLayer(corpus)
}

// timeEach calls fn up to n times, stopping early once opBudget has gone
// by, and returns each call's duration.
func (l *layers) timeEach(n int, fn func(i int)) []time.Duration {
	d := make([]time.Duration, 0, n)
	start := time.Now()
	for i := 0; i < n && (i < minOps || time.Since(start) < l.cfg.scale.opBudget); i++ {
		t0 := time.Now()
		fn(i)
		d = append(d, time.Since(t0))
	}
	return d
}

// per is a total time as a float per item.
func per(total time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(n)
}

// perCall repeats pass, which makes n calls, until scale.samplePass has
// gone by and returns the mean time of one call.
func (l *layers) perCall(pass func(), n int, unit time.Duration) float64 {
	passes := 0
	t0 := time.Now()
	for passes == 0 || time.Since(t0) < l.cfg.scale.samplePass {
		pass()
		passes++
	}
	return per(time.Since(t0), passes*n, unit)
}

// stageWalk walks one join's stages itself, through the same exported
// calls core makes, timing each: resolve → signatures → global order →
// prefixes → index build → sampled verification and matching.
func (l *layers) stageWalk() {
	out, opt := l.out, l.opt
	root, endRoot := l.tr.begin(0, "bench.stagewalk")
	defer endRoot()

	// elem: intern and resolve every token (the joiner's resolver settings).
	phiMin := math.Max(opt.Delta, 0.8)
	res := elem.NewResolver(l.h, elem.Options{PhiMin: phiMin, MaxMappings: 4})
	objs := make([][]elem.ID, len(l.records))
	tokens := 0
	_, end := l.tr.begin(root, "elem.resolve")
	t0 := time.Now()
	for i, rec := range l.records {
		seen := map[elem.ID]bool{}
		for _, t := range rec {
			if id := res.ID(t); !seen[id] {
				seen[id] = true
				objs[i] = append(objs[i], id)
			}
		}
		tokens += len(rec)
	}
	res.ResolveAll(0)
	out.set("elem.resolve_us_per_token", per(time.Since(t0), tokens, time.Microsecond))
	end()

	// elem, K-Join+ mode: typo-tolerant resolution of a token sample.
	plus := elem.NewResolver(l.h, elem.Options{Plus: true, PhiMin: phiMin, MaxMappings: 4})
	n := 0
	_, end = l.tr.begin(root, "elem.resolve_plus")
	t0 = time.Now()
	for _, rec := range l.records {
		for _, t := range rec {
			plus.ID(t)
		}
		if n += len(rec); plus.Len() >= plusTokens {
			break
		}
	}
	plus.ResolveAll(0)
	out.set("elem.resolve_plus_us_per_token", per(time.Since(t0), n, time.Microsecond))
	end()

	// strutil: the bounded edit distance K-Join+ resolution leans on.
	var flat []string
	for _, rec := range l.records {
		if flat = append(flat, rec...); len(flat) > 4000 {
			break
		}
	}
	_, end = l.tr.begin(root, "strutil.edit_within")
	t0 = time.Now()
	for i := 1; i < len(flat); i++ {
		strutil.EditDistanceWithin(flat[i-1], flat[i], 2)
	}
	out.set("strutil.edit_within_ns", per(time.Since(t0), len(flat)-1, time.Nanosecond))
	end()

	// sig: per-object signature entries, the global df order, prefixes.
	sp := sig.NewSpace(res, opt.Metric, opt.Delta, opt.Scheme)
	sp.Warm(res.Len(), 0)
	entries := make([][]sig.Entry, len(objs))
	_, end = l.tr.begin(root, "sig.object_sigs")
	t0 = time.Now()
	for i, o := range objs {
		entries[i] = sp.ObjectSigs(o)
	}
	out.set("sig.object_sigs_us", per(time.Since(t0), len(objs), time.Microsecond))
	end()
	_, end = l.tr.begin(root, "sig.build_order")
	t0 = time.Now()
	order := sig.BuildOrder(entries)
	out.set("sig.build_order_ms", ms(time.Since(t0)))
	end()
	for _, en := range entries {
		order.Sort(en)
	}
	prefixLen := make([]int, len(objs))
	var ps sig.PrefixScratch
	_, end = l.tr.begin(root, "sig.weighted_prefix")
	t0 = time.Now()
	for i, en := range entries {
		if opt.Weighted {
			prefixLen[i] = sig.WeightedPrefixS(en, opt.Set.MinOverlap(opt.Tau, len(objs[i])), &ps)
		} else {
			prefixLen[i] = sig.DistElePrefixS(en, opt.Set.TauS(opt.Tau, len(objs[i])), &ps)
		}
	}
	out.set("sig.weighted_prefix_ns", per(time.Since(t0), len(objs), time.Nanosecond))
	end()

	// index: the inverted index over prefix signatures.
	prefixes := make([][]int32, len(objs))
	for i, en := range entries {
		seen := map[sig.Sig]bool{}
		for _, e := range en[:prefixLen[i]] {
			if !seen[e.Sig] {
				seen[e.Sig] = true
				prefixes[i] = append(prefixes[i], int32(e.Sig))
			}
		}
	}
	inv := index.New()
	_, end = l.tr.begin(root, "index.build")
	t0 = time.Now()
	for i, p := range prefixes {
		inv.AddAll(p, int32(i))
	}
	out.set("index.add_ns_per_entry", per(time.Since(t0), inv.Len(), time.Nanosecond))
	end()
	var lens []int
	for s := 0; s < sp.NumSigs(); s++ {
		if n := len(inv.Postings(int32(s))); n > 0 {
			lens = append(lens, n)
		}
	}
	sort.Ints(lens)
	if len(lens) > 0 {
		out.set("index.postings_len_p50", float64(lens[len(lens)/2]))
		out.set("index.postings_len_p99", float64(lens[len(lens)*99/100]))
		out.set("index.postings_len_max", float64(lens[len(lens)-1]))
	}

	// verify: candidate pairs the prefix filter generates, split into the
	// ones count pruning kills and the ones that survive it.
	vc := &verify.Context{Res: res, Space: sp, Metric: opt.Metric, Set: opt.Set, Delta: opt.Delta, Tau: opt.Tau}
	keys := make([][]sig.Sig, len(objs))
	for i, o := range objs {
		keys[i] = vc.SortedKeys(o)
	}
	var pruned, survivors [][2]int
	var st verify.Stats
	scanned := 0
scan:
	for y, p := range prefixes {
		for _, s := range p {
			for _, x := range inv.Postings(s) {
				if int(x) >= y {
					break
				}
				before := st.CountPruned
				vc.VerifyKeyed(objs[x], objs[y], keys[x], keys[y], opt.Verifier, &st)
				if st.CountPruned > before {
					if len(pruned) < pairSample {
						pruned = append(pruned, [2]int{int(x), y})
					}
				} else if len(survivors) < pairSample {
					survivors = append(survivors, [2]int{int(x), y})
				}
				if scanned++; scanned >= pairScanCap || (len(pruned) >= pairSample && len(survivors) >= pairSample) {
					break scan
				}
			}
		}
	}
	if len(survivors) == 0 {
		// No candidate survives on this data: an object against itself does.
		for i := 0; i < min(len(objs), 100); i++ {
			survivors = append(survivors, [2]int{i, i})
		}
	}
	timePairs := func(name string, pairs [][2]int) float64 {
		if len(pairs) == 0 {
			return 0
		}
		_, end := l.tr.begin(root, name)
		defer end()
		return l.perCall(func() {
			for _, p := range pairs {
				vc.VerifyKeyed(objs[p[0]], objs[p[1]], keys[p[0]], keys[p[1]], opt.Verifier, &st)
			}
		}, len(pairs), time.Nanosecond)
	}
	out.set("verify.pruned_pair_ns", timePairs("verify.pruned_pairs", pruned))
	out.set("verify.survivor_pair_ns", timePairs("verify.survivor_pairs", survivors))
	out.note("verify.sample", float64(len(pruned)), "pairs", fmt.Sprintf("count-pruned; %d survivors", len(survivors)))

	// matching and elem.Sim: the δ-thresholded bigraphs of the survivors.
	type graph struct {
		nx, ny int
		edges  []matching.Edge
	}
	var graphs []graph
	sims := 0
	_, end = l.tr.begin(root, "elem.sim")
	t0 = time.Now()
	for _, p := range survivors[:min(len(survivors), matchSample)] {
		x, y := objs[p[0]], objs[p[1]]
		g := graph{nx: len(x), ny: len(y)}
		for i, a := range x {
			for j, b := range y {
				sims++
				if w := res.Sim(a, b, opt.Metric); w >= opt.Delta {
					g.edges = append(g.edges, matching.Edge{X: i, Y: j, W: w})
				}
			}
		}
		graphs = append(graphs, g)
	}
	out.set("elem.sim_ns", per(time.Since(t0), sims, time.Nanosecond))
	end()
	var solver matching.Solver
	solve := func(name string, fn func(g *graph)) float64 {
		_, end := l.tr.begin(root, name)
		defer end()
		return l.perCall(func() {
			for i := range graphs {
				fn(&graphs[i])
			}
		}, len(graphs), time.Microsecond)
	}
	out.set("matching.max_weight_us", solve("matching.max_weight", func(g *graph) { solver.MaxWeight(g.nx, g.ny, g.edges) }))
	out.set("matching.lower_bound_us", solve("matching.lower_bound", func(g *graph) { solver.LowerBound(g.nx, g.ny, g.edges) }))
	out.set("matching.upper_bound_us", solve("matching.upper_bound", func(g *graph) { solver.UpperBound(g.nx, g.ny, g.edges) }))
}

// engine measures the streaming Indexer in-process at the serve
// workloads' corpus size and returns it loaded.
func (l *layers) engine(corpus [][]string) *core.Indexer {
	out := l.out
	root, endRoot := l.tr.begin(0, "bench.engine")
	defer endRoot()
	ix, err := core.NewIndexer(l.h, l.opt)
	if err != nil {
		fatalf("indexer: %v", err)
	}
	ctx := context.Background()
	adds := l.timeEach(len(corpus), func(i int) {
		_, end := l.tr.begin(root, "core.AddCtx")
		if _, _, err := ix.AddCtx(ctx, corpus[i]); err != nil {
			fatalf("add: %v", err)
		}
		end()
	})
	corpus = corpus[:len(adds)]
	q := max(len(adds)/4, 1)
	first, last := medianDuration(adds[:q]), medianDuration(adds[len(adds)-q:])
	out.set("core.add_us", us(medianDuration(adds)))
	out.note("core.engine_corpus", float64(len(corpus)), "objects", "in-process streaming engine size")
	// Cost growth between the first and the last quarter of the corpus,
	// whose centres lie three quarters of it apart.
	out.set("core.add_us_per_1k_objects", us(last-first)/(0.75*float64(len(corpus))/1000))
	l.tr.do(root, "core.WaitMerges", func() {
		t0 := time.Now()
		ix.WaitMerges()
		out.set("core.merge_drain_ms", ms(time.Since(t0)))
	})

	nq := min(len(corpus), handlerOps)
	prepared := make([]*core.PreparedQuery, nq)
	prep := l.timeEach(nq, func(i int) {
		_, end := l.tr.begin(root, "core.PrepareQuery")
		prepared[i], err = ix.PrepareQuery(corpus[i*len(corpus)/nq])
		end()
		if err != nil {
			fatalf("prepare query: %v", err)
		}
	})
	prepared = prepared[:len(prep)]
	run := l.timeEach(len(prepared), func(i int) {
		_, end := l.tr.begin(root, "core.RunQuery")
		_, err := ix.RunQuery(ctx, prepared[i])
		end()
		if err != nil {
			fatalf("run query: %v", err)
		}
	})
	out.set("core.prepare_query_us", us(medianDuration(prep)))
	out.set("core.run_query_us", us(medianDuration(run)))

	var buf bytes.Buffer
	var writes, loads []time.Duration
	for i := 0; i < 3; i++ {
		buf.Reset()
		l.tr.do(root, "core.WriteSnapshot", func() {
			t0 := time.Now()
			if err := ix.WriteSnapshot(&buf); err != nil {
				fatalf("write snapshot: %v", err)
			}
			writes = append(writes, time.Since(t0))
		})
		l.tr.do(root, "core.LoadIndexer", func() {
			t0 := time.Now()
			if _, err := core.LoadIndexer(l.h, l.opt, bytes.NewReader(buf.Bytes())); err != nil {
				fatalf("load snapshot: %v", err)
			}
			loads = append(loads, time.Since(t0))
		})
	}
	out.set("core.snapshot_write_ms", ms(medianDuration(writes)))
	out.set("core.snapshot_load_ms", ms(medianDuration(loads)))
	out.set("core.snapshot_bytes_per_object", float64(buf.Len())/float64(len(corpus)))
	return ix
}

func dirSize(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// walAndStore measures the write-ahead log and the snapshot generation
// store on a temp dir inside the checkout.
func (l *layers) walAndStore(ix *core.Indexer, corpus [][]string) {
	out := l.out
	root, endRoot := l.tr.begin(0, "bench.wal")
	defer endRoot()
	open := func(dir string, policy wal.Policy, replay func(uint64, wal.Op, []string) error) *wal.WAL {
		w, err := wal.Open(nil, dir, wal.Options{Policy: policy}, replay)
		if err != nil {
			fatalf("wal open: %v", err)
		}
		return w
	}
	closeWAL := func(w *wal.WAL) {
		if err := w.Close(); err != nil {
			fatalf("wal close: %v", err)
		}
	}

	// Unsynced appends, then a replay of the same log, then compaction.
	dir := filepath.Join(l.dir, "wal-none")
	w := open(dir, wal.SyncNone, nil)
	_, end := l.tr.begin(root, "wal.Append")
	t0 := time.Now()
	for i := 0; i < walRecords; i++ {
		if _, err := w.Append(corpus[i%len(corpus)]); err != nil {
			fatalf("wal append: %v", err)
		}
	}
	out.set("wal.append_us", per(time.Since(t0), walRecords, time.Microsecond))
	end()
	closeWAL(w)
	out.set("wal.bytes_per_record", float64(dirSize(dir))/walRecords)
	replayed := 0
	_, end = l.tr.begin(root, "wal.Open.replay")
	t0 = time.Now()
	w = open(dir, wal.SyncNone, func(uint64, wal.Op, []string) error { replayed++; return nil })
	out.set("wal.replay_records_per_s", float64(replayed)/time.Since(t0).Seconds())
	end()
	l.tr.do(root, "wal.Compact", func() {
		t0 := time.Now()
		if err := w.Compact(w.LastSeq()); err != nil {
			fatalf("wal compact: %v", err)
		}
		out.set("wal.compact_ms", ms(time.Since(t0)))
	})
	closeWAL(w)

	// Durable appends: one appender, then two sharing group commits.
	w = open(filepath.Join(l.dir, "wal-sync"), wal.SyncAlways, nil)
	appendSync := func(i int) {
		_, end := l.tr.begin(root, "wal.AppendSync")
		if _, err := w.AppendSync(corpus[i%len(corpus)]); err != nil {
			fatalf("wal append+sync: %v", err)
		}
		end()
	}
	out.set("wal.append_sync_us", us(medianDuration(l.timeEach(walSyncs, appendSync))))
	var wg sync.WaitGroup
	both := make([][]time.Duration, 2)
	for g := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[g] = l.timeEach(walSyncs, appendSync)
		}()
	}
	wg.Wait()
	out.set("wal.append_sync_us.c2", us(medianDuration(append(both[0], both[1]...))))
	closeWAL(w)

	// serverutil: one atomic snapshot generation of the engine's corpus.
	gens := &serverutil.GenStore{Dir: filepath.Join(l.dir, "gens"), Keep: 3}
	saves := l.timeEach(3, func(int) {
		_, end := l.tr.begin(root, "serverutil.GenStore.Save")
		_, err := gens.Save(func(w io.Writer) error { return ix.WriteSnapshot(w) })
		end()
		if err != nil {
			fatalf("generation save: %v", err)
		}
	})
	out.set("serverutil.gen_save_ms", ms(medianDuration(saves)))
}

type tokensReq struct {
	Tokens []string `json:"tokens"`
}

func decodeTokens(body []byte) []string {
	var req tokensReq
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		fatalf("decode: %v", err)
	}
	return req.Tokens
}

// replay walks single ops through the layers in the order the server's
// handlers call them, so the trace shows where one op's time goes:
// decode → AddCtx → wal.Append → wal.Sync for an add, decode →
// PrepareQuery → RunQuery for a query.
func (l *layers) replay(ix *core.Indexer, corpus [][]string) {
	w, err := wal.Open(nil, filepath.Join(l.dir, "wal-replay"), wal.Options{Policy: wal.SyncAlways}, nil)
	if err != nil {
		fatalf("wal open: %v", err)
	}
	ctx := context.Background()
	n := min(len(corpus), replayOps)
	start := time.Now()
	for i := 0; i < n && (i < minOps || time.Since(start) < l.cfg.scale.opBudget); i++ {
		body := tokensBody(corpus[i])
		root, endOp := l.tr.begin(0, "bench.replay.add")
		var toks []string
		l.tr.do(root, "server.json_decode", func() { toks = decodeTokens(body) })
		l.tr.do(root, "core.AddCtx", func() {
			if _, _, err := ix.AddCtx(ctx, toks); err != nil {
				fatalf("add: %v", err)
			}
		})
		var seq uint64
		l.tr.do(root, "wal.Append", func() {
			if seq, err = w.Append(toks); err != nil {
				fatalf("wal append: %v", err)
			}
		})
		l.tr.do(root, "wal.Sync", func() {
			if err := w.Sync(seq); err != nil {
				fatalf("wal sync: %v", err)
			}
		})
		endOp()

		root, endOp = l.tr.begin(0, "bench.replay.query")
		l.tr.do(root, "server.json_decode", func() { toks = decodeTokens(body) })
		var pq *core.PreparedQuery
		l.tr.do(root, "core.PrepareQuery", func() {
			if pq, err = ix.PrepareQuery(toks); err != nil {
				fatalf("prepare query: %v", err)
			}
		})
		l.tr.do(root, "core.RunQuery", func() {
			if _, err := ix.RunQuery(ctx, pq); err != nil {
				fatalf("run query: %v", err)
			}
		})
		endOp()
	}
	if err := w.Close(); err != nil {
		fatalf("wal close: %v", err)
	}
}

// serve sends one request through a handler in-process and returns how
// long ServeHTTP took.
func serve(h http.Handler, path string, body []byte) time.Duration {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	if rec.Code != http.StatusOK {
		fatalf("in-process %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return d
}

// post sends one request over a real loopback connection.
func post(hc *http.Client, url string, body []byte) time.Duration {
	t0 := time.Now()
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		fatalf("POST %s: %v", url, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close() // drained
	if resp.StatusCode != http.StatusOK {
		fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	return time.Since(t0)
}

// serverLayer measures the HTTP server in-process with the serve
// workloads' durability settings: handler time through ServeHTTP, what a
// real loopback connection adds, request decoding, and crash recovery.
func (l *layers) serverLayer(corpus [][]string) {
	out := l.out
	root, endRoot := l.tr.begin(0, "bench.server")
	defer endRoot()
	d := server.Durability{WALDir: filepath.Join(l.dir, "srv-wal"), SnapshotDir: filepath.Join(l.dir, "srv-snap"), Policy: wal.SyncAlways}
	srv, err := server.Recover(l.h, l.opt, server.Config{}, d)
	if err != nil {
		fatalf("server: %v", err)
	}
	n := min(len(corpus), handlerOps)
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = tokensBody(corpus[i])
	}
	adds := l.timeEach(n*4/5, func(i int) {
		_, end := l.tr.begin(root, "server.ServeHTTP.add")
		serve(srv, "/objects", bodies[i])
		end()
	})
	// A generation, then a tail only the WAL holds: recovery below loads
	// the one and replays the other.
	if err := srv.SnapshotGeneration(); err != nil {
		fatalf("snapshot generation: %v", err)
	}
	for i := n * 4 / 5; i < n; i++ {
		serve(srv, "/objects", bodies[i])
	}
	queries := l.timeEach(n, func(i int) {
		_, end := l.tr.begin(root, "server.ServeHTTP.query")
		serve(srv, "/query", bodies[i])
		end()
	})
	out.set("server.handler_add_us", us(medianDuration(adds)))
	out.set("server.handler_query_us", us(medianDuration(queries)))

	ts := httptest.NewServer(srv)
	hc := newHTTPClient()
	overHTTP := l.timeEach(n, func(i int) { post(hc, ts.URL+"/query", bodies[i]) })
	ts.Close()
	out.set("server.http_overhead_us", us(medianDuration(overHTTP)-medianDuration(queries)))

	decodes := l.timeEach(n, func(i int) {
		_, end := l.tr.begin(root, "server.json_decode")
		decodeTokens(bodies[i])
		end()
	})
	out.set("server.json_decode_us", us(medianDuration(decodes)))

	if err := srv.Close(); err != nil {
		fatalf("server close: %v", err)
	}
	l.tr.do(root, "server.Recover", func() {
		t0 := time.Now()
		srv, err = server.Recover(l.h, l.opt, server.Config{}, d)
		out.set("server.recover_s", time.Since(t0).Seconds())
	})
	if err != nil {
		fatalf("server recover: %v", err)
	}
	if err := srv.Close(); err != nil {
		fatalf("server close: %v", err)
	}
}
