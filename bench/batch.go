package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"kjoin"
	"kjoin/datasets"
	"kjoin/internal/core"
)

// batchSpec is one batch workload: a record generator, join thresholds
// and sizes. The half-size input is the first half of the full one
// (near-duplicates only ever copy earlier records, so a prefix of a
// collection is a collection of the same shape).
type batchSpec struct {
	gen        func(hr *datasets.Hier, n int, seed uint64) *datasets.Collection
	delta, tau float64
	n          int
	checkN     int // objects joined against core.NaiveSelfJoin
}

// joinLimit is the batch workloads' latency limit, about three times the
// full-size join's median on every batch workload: a full-size join slower
// than this, or a half-size one slower than a quarter of it, counts
// against slo_ok_frac.
const joinLimit = 2 * time.Second

func batchSpecs(sc scale) map[string]batchSpec {
	return map[string]batchSpec{
		wBatchFilter: {tweetRecords, 0.8, 0.85, sc.filterN, sc.filterCheck},
		wBatchSkew:   {skewRecords, 0.8, 0.85, sc.skewN, sc.filterCheck},
		wBatchVerify: {poiRecords, 0.5, 0.6, sc.verifyN, sc.verifyCheck},
	}
}

// joinRun is one timed SelfJoin.
type joinRun struct {
	wall  time.Duration
	pairs int
	stats kjoin.Stats
	// allocation deltas across the call
	mallocs, allocBytes uint64
}

func timedJoin(h *kjoin.Hierarchy, records [][]string, opt kjoin.Options, tr *tracer, name string) (joinRun, []kjoin.Pair) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, end := tr.begin(0, name)
	t0 := time.Now()
	pairs, st, err := kjoin.SelfJoin(h, records, opt)
	wall := time.Since(t0)
	end()
	if err != nil {
		fatalf("SelfJoin: %v", err)
	}
	runtime.ReadMemStats(&m1)
	return joinRun{wall: wall, pairs: len(pairs), stats: *st,
		mallocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc}, pairs
}

// sameCounts reports whether two joins of the same input did the same
// work: the counters that must repeat exactly for a fixed seed.
func sameCounts(a, b *joinRun) bool {
	return a.pairs == b.pairs && a.stats.Candidates == b.stats.Candidates &&
		a.stats.Verify == b.stats.Verify && a.stats.SigEntries == b.stats.SigEntries &&
		a.stats.AvgPrefix == b.stats.AvgPrefix
}

// batchInputs generates the workload's records from the seed, stores
// them with the hierarchy in the files a user would hand the CLI, and
// times loading them back: that load is the batch user's set-up.
func batchInputs(cfg *config, spec batchSpec) (*kjoin.Hierarchy, [][]string, time.Duration) {
	hr := genHierarchy()
	coll := spec.gen(hr, spec.n, cfg.seed)
	dir, err := os.MkdirTemp(cfg.buildDir, "batch-")
	if err != nil {
		fatalf("temp dir: %v", err)
	}
	defer os.RemoveAll(dir)
	if err := writeHierarchy(hr.H, dir+"/hierarchy.txt"); err != nil {
		fatalf("write hierarchy: %v", err)
	}
	if err := writeRecords(coll.Records, dir+"/records.txt"); err != nil {
		fatalf("write records: %v", err)
	}
	var h *kjoin.Hierarchy
	var records [][]string
	var loads []time.Duration
	for i := 0; i < 5*cfg.scale.setupReps; i++ { // milliseconds each: many reps are cheap
		t0 := time.Now()
		h, records, err = loadInputs(dir)
		if err != nil {
			fatalf("load inputs: %v", err)
		}
		loads = append(loads, time.Since(t0))
	}
	return h, records, medianDuration(loads)
}

func runBatch(cfg *config, w string, tr *tracer) *outcome {
	out := newOutcome()
	spec := batchSpecs(cfg.scale)[w]
	h, records, setup := batchInputs(cfg, spec)
	opt := kjoin.Defaults(spec.delta, spec.tau)
	half := records[:spec.n/2]
	out.note("n", float64(spec.n), "objects", fmt.Sprintf("delta=%v tau=%v workers=default(GOMAXPROCS=%d)", spec.delta, spec.tau, runtime.GOMAXPROCS(0)))

	// One discarded warm-up, then half- and full-size joins in alternating
	// rounds (half, full, half) so drift in the machine hits both sizes
	// alike and the shorter join gets twice the samples.
	timedJoin(h, half, opt, nil, "")
	window := cfg.seconds
	if tr != nil {
		window = cfg.seconds / 4
	}
	var halves, fulls []joinRun
	start := time.Now()
	for len(fulls) < 2 || time.Since(start) < window {
		h1, _ := timedJoin(h, half, opt, tr, "core.SelfJoin.half")
		fr, _ := timedJoin(h, records, opt, tr, "core.SelfJoin")
		h2, _ := timedJoin(h, half, opt, tr, "core.SelfJoin.half")
		halves, fulls = append(halves, h1, h2), append(fulls, fr)
	}
	measured := time.Since(start)
	peak := vmHWM("self")

	out.attempted = len(halves) + len(fulls)
	within := 0
	for _, g := range []struct {
		limit time.Duration
		reps  []joinRun
	}{{joinLimit, fulls}, {joinLimit / 4, halves}} {
		reps := g.reps
		for i := range reps {
			if !sameCounts(&reps[i], &reps[0]) {
				out.problem(fmt.Sprintf("rep %d of %d objects: pair count or counters differ from rep 0", i, reps[i].stats.Objects))
			}
			if reps[i].wall <= g.limit {
				within++
			}
		}
	}

	wall := func(rs []joinRun) []time.Duration {
		d := make([]time.Duration, len(rs))
		for i := range rs {
			d[i] = rs[i].wall
		}
		return d
	}
	fullD, halfD := sortDurations(wall(fulls)), sortDurations(wall(halves))
	joinFull, joinHalf := percentile(fullD, 0.5), percentile(halfD, 0.5)
	objects := float64(len(fulls)*spec.n + len(halves)*(spec.n/2))
	out.set("setup_s", setup.Seconds())
	out.set("op_p50_ms", ms(joinFull))
	out.set("op2_p50_ms", ms(joinHalf))
	out.set("ops_per_s", objects/measured.Seconds())
	out.set("peak_rss_mb", peak)
	out.set("slo_ok_frac", float64(within)/float64(out.attempted))
	exponent := math.Log2(joinFull.Seconds() / joinHalf.Seconds())
	out.note("join_s", joinFull.Seconds(), "s", fmt.Sprintf("n=%d reps=%d", spec.n, len(fulls)))
	out.note("join_max_s", fullD[len(fullD)-1].Seconds(), "s", "slowest full-size rep")
	out.note("join_half_s", joinHalf.Seconds(), "s", fmt.Sprintf("n=%d reps=%d", spec.n/2, len(halves)))
	out.note("join_scale_exponent", exponent, "ratio", "log2(join_s(N)/join_s(N/2))")
	out.note("pairs", float64(fulls[0].pairs), "count", "")

	checkAgainstNaive(out, h, records[:min(spec.checkN, len(records))], opt)

	if tr != nil {
		out.set("bench.op_tail_ms", ms(fullD[len(fullD)-1]))
		batchLayerStats(out, &fulls[0], &halves[0], exponent)
		runLayers(cfg, out, tr, h, records, opt, false)
	}
	return out
}

// batchLayerStats reports what core.Stats says about the full-size join.
func batchLayerStats(out *outcome, full, half *joinRun, exponent float64) {
	st := &full.stats
	out.set("core.preprocess_s", st.Preprocess.Seconds())
	out.set("core.build_index_s", st.BuildIndex.Seconds())
	out.set("core.probe_s", st.Probe.Seconds())
	out.set("core.verify_cpu_s", st.VerifyTime.Seconds())
	out.set("core.candidates", float64(st.Candidates))
	out.set("core.candidates_per_object", float64(st.Candidates)/float64(st.Objects))
	if st.Candidates > 0 {
		out.set("core.results_per_candidate", float64(st.Verify.Results)/float64(st.Candidates))
	}
	out.set("core.avg_prefix_len", st.AvgPrefix)
	out.set("core.sig_entries", float64(st.SigEntries))
	out.set("core.allocs_per_join", float64(full.mallocs))
	out.set("core.alloc_mb_per_join", float64(full.allocBytes)/(1<<20))
	out.set("core.join_scale_exponent", exponent)
	out.set("verify.count_pruned", float64(st.Verify.CountPruned))
	out.set("verify.weighted_pruned", float64(st.Verify.WeightedPruned))
	out.set("verify.ub_rejected", float64(st.Verify.UBRejected))
	out.set("verify.lb_accepted", float64(st.Verify.LBAccepted))
	out.set("verify.matching_calls", float64(st.Verify.MatchingCalls))
	out.set("verify.results", float64(st.Verify.Results))
	// The Fig 14 question: what grows faster than the input from N/2 to N.
	hs := &half.stats
	growth := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out.note("growth.candidates", growth(float64(st.Candidates), float64(hs.Candidates)), "x", "N vs N/2")
	out.note("growth.verified_past_count", growth(float64(st.Candidates-st.Verify.CountPruned), float64(hs.Candidates-hs.Verify.CountPruned)), "x", "N vs N/2")
	out.note("growth.matching_calls", growth(float64(st.Verify.MatchingCalls), float64(hs.Verify.MatchingCalls)), "x", "N vs N/2")
	out.note("growth.alloc_mb", growth(float64(full.allocBytes), float64(half.allocBytes)), "x", "N vs N/2")
	out.note("growth.probe_s", growth(st.Probe.Seconds(), hs.Probe.Seconds()), "x", "N vs N/2")
	out.note("growth.preprocess_s", growth(st.Preprocess.Seconds(), hs.Preprocess.Seconds()), "x", "N vs N/2")
}

// checkAgainstNaive compares the join of records with the all-pairs
// oracle: the same pair set and bit-identical similarities.
func checkAgainstNaive(out *outcome, h *kjoin.Hierarchy, records [][]string, opt kjoin.Options) {
	out.attempted++
	got, _, err := kjoin.SelfJoin(h, records, opt)
	if err != nil {
		out.problem("check join: " + err.Error())
		return
	}
	want, err := core.NaiveSelfJoin(h, records, opt)
	if err != nil {
		out.problem("naive join: " + err.Error())
		return
	}
	byXY := func(p []kjoin.Pair) {
		sort.Slice(p, func(i, j int) bool {
			if p[i].X != p[j].X {
				return p[i].X < p[j].X
			}
			return p[i].Y < p[j].Y
		})
	}
	byXY(got)
	byXY(want)
	if len(got) != len(want) {
		out.problem(fmt.Sprintf("join of %d objects found %d pairs, naive oracle %d", len(records), len(got), len(want)))
		return
	}
	for i := range got {
		if got[i].X != want[i].X || got[i].Y != want[i].Y || math.Float64bits(got[i].Sim) != math.Float64bits(want[i].Sim) {
			out.problem(fmt.Sprintf("pair %d: join %+v, naive oracle %+v", i, got[i], want[i]))
			return
		}
	}
	out.note("check.naive_pairs", float64(len(want)), "count", fmt.Sprintf("first %d objects equal core.NaiveSelfJoin", len(records)))
}
