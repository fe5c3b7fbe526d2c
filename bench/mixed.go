package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"kjoin/internal/cluster"
	"kjoin/internal/core"
)

// mixedSpec is the traffic of a mixed read/write workload: 70% /query,
// 30% /objects, open loop at a gate rate and then a closed loop.
type mixedSpec struct {
	cluster  bool
	preload  int
	rate     float64       // gate step, ops/s
	queryLim time.Duration // latency limits for slo_ok_frac
	addLim   time.Duration
}

const queryShare = 0.7

// satOpsPerSec sizes the closed-loop arrival table: a few times the
// capacity seen here (about 2 000 ops/s); a faster server that exhausts it
// just ends the phase early, and throughput is still ops over wall time.
const satOpsPerSec = 6000

// maxGenLag is how late the generator may send its p99 op before the run
// is invalid rather than slow: latency runs from the due time, so a late
// generator is charged to the server. Issue 11 asked for 1 ms. A quiet
// sandbox reads 0.3-0.5 ms, but in a busy spell cluster-mixed, where four
// processes share two cores, read 1.3-2.6 ms over ten runs. Crossing the
// limit fails the run, so it sits at twice the worst of those: a generator
// that late is broken or starved, not unlucky.
const maxGenLag = 5 * time.Millisecond

// The latency limits behind slo_ok_frac sit at about twice the p99
// measured at the gate step (one node: query about 2 ms, add about 3 ms;
// cluster: about 3 and 5 ms), so slo_ok_frac reads just below 1 and an op
// that a change pushes past today's tail crosses them. Issue 11's
// 20/30/50 ms were chosen before anything was measured and sat ten to
// twenty times above the tail.
func mixedSpecs(sc scale) map[string]mixedSpec {
	return map[string]mixedSpec{
		wServeMixed:   {false, sc.servePreload, sc.serveRate, 4 * time.Millisecond, 6 * time.Millisecond},
		wClusterMixed: {true, sc.clusterPreload, sc.clusterRate, 6 * time.Millisecond, 8 * time.Millisecond},
	}
}

// runMixed drives one durable kjoin-serve (serve-mixed) or a durable
// coordinator over two durable shards (cluster-mixed).
func runMixed(cfg *config, w string, tr *tracer) *outcome {
	out := newOutcome()
	spec := mixedSpecs(cfg.scale)[w]
	window := cfg.seconds
	if tr != nil {
		window = cfg.seconds * 2 / 5
	}
	warmDur, gateDur, satDur := window/10, window*6/10, window*3/10
	gateOps := int(spec.rate * gateDur.Seconds())
	warmOps := int(spec.rate / 2 * warmDur.Seconds())
	satOps := int(satOpsPerSec * satDur.Seconds())
	// Adds consume fresh records; queries probe any of them.
	env := newServeEnv(cfg, spec.preload+gateOps+warmOps+satOps)
	defer env.fleet.close()
	src := &opSource{r: rand.New(rand.NewSource(int64(cfg.seed))), records: env.records}
	preload := src.table(spec.preload, 0, 0)

	// Set-up: processes started, ready, and preloaded over HTTP. Repeated
	// on fresh directories; the last fleet is the one measured.
	var topo *topology
	var setups []time.Duration
	ack := acked{}
	for rep := 0; rep < cfg.scale.setupReps; rep++ {
		if topo != nil {
			topo.kill()
		}
		t0 := time.Now()
		if spec.cluster {
			topo = env.startCluster()
		} else {
			topo = &topology{front: env.startNode("serve", env.fleet.tempDir("node-"), "1s")}
		}
		rs, _ := closedLoop(toServer(env.hc, topo.front.url), preload, 0, nil)
		setups = append(setups, time.Since(t0))
		if rep == cfg.scale.setupReps-1 {
			countOps(out, rs)
			ack.collect(out, rs)
		}
	}
	front := toServer(env.hc, topo.front.url)

	// Low step: warms connections and caches, reported as info only.
	warm, _ := openLoop(front, src.table(warmOps, queryShare, spec.rate/2), nil, "")
	// Gate step: the rate the latency limits are stated at.
	gateTable := src.table(gateOps, queryShare, spec.rate)
	gate, gateWall := openLoop(front, gateTable, tr, "client")
	// Closed loop: capacity.
	sat, satWall := closedLoop(front, src.table(satOps, queryShare, 0), satDur, nil)
	peak := topo.peakRSSMB()

	shed := 0
	covered := fmt.Sprintf("%d/%d", len(topo.shards), len(topo.shards))
	for _, rs := range [][]opResult{warm, gate, sat} {
		shed += countOps(out, rs)
		ack.collect(out, rs)
		for i := range rs {
			if spec.cluster && rs[i].ok() && rs[i].coverage != covered {
				out.problem(fmt.Sprintf("response with coverage %q, want %s", rs[i].coverage, covered))
			}
		}
	}

	q, a := latencies(gate)
	qs, as := sortDurations(q), sortDurations(a)
	// slo_ok_frac is taken over six consecutive sixths of the gate step and
	// reported as the median sixth. One host stall in an open loop queues
	// hundreds of ops behind it and took a tenth off the whole-step share
	// in some runs and nothing in others; it spoils one sixth, while a tail
	// that a change made fatter shows in all six.
	const slices = 6
	var shares []float64
	var lags []time.Duration
	withinAll := 0
	for k := 0; k < slices; k++ {
		part := gate[k*len(gate)/slices : (k+1)*len(gate)/slices]
		within := 0
		for i := range part {
			lim := spec.addLim
			if part[i].op.query {
				lim = spec.queryLim
			}
			if part[i].ok() && part[i].lat <= lim {
				within++
			}
			lags = append(lags, part[i].lag)
		}
		if len(part) > 0 {
			shares = append(shares, float64(within)/float64(len(part)))
		}
		withinAll += within
	}
	tail := tailPercentile(len(qs))
	lagP99 := percentile(sortDurations(lags), 0.99)
	// Achieved rate: answered ops over the gate step's measured wall time.
	achieved := float64(len(q)+len(a)) / gateWall.Seconds()

	out.set("setup_s", medianDuration(setups).Seconds())
	out.set("op_p50_ms", ms(percentile(qs, 0.5)))
	out.set("op2_p50_ms", ms(percentile(as, 0.5)))
	out.set("ops_per_s", float64(len(sat))/satWall.Seconds())
	out.set("peak_rss_mb", peak)
	out.set("slo_ok_frac", medianFloat(shares))

	out.note("query_p50_ms", ms(percentile(qs, 0.5)), "ms", fmt.Sprintf("gate step %v ops/s, n=%d", spec.rate, len(qs)))
	out.note("query_tail_ms", ms(percentile(qs, tail)), "ms", fmt.Sprintf("p%v, n=%d", tail*100, len(qs)))
	out.note("add_p50_ms", ms(percentile(as, 0.5)), "ms", fmt.Sprintf("n=%d", len(as)))
	out.note("slo_ok_frac_whole_step", float64(withinAll)/float64(len(gate)), "fraction", fmt.Sprintf("limits %v query, %v add; the gated figure is the median of %d consecutive slices", spec.queryLim, spec.addLim, slices))
	if t := tailPercentile(len(as)); t > 0 {
		out.note("add_tail_ms", ms(percentile(as, t)), "ms", fmt.Sprintf("p%v, n=%d", t*100, len(as)))
	}
	wq, wa := latencies(warm)
	out.note("low_step.query_p50_ms", ms(medianDuration(wq)), "ms", fmt.Sprintf("%v ops/s, n=%d", spec.rate/2, len(wq)))
	out.note("low_step.add_p50_ms", ms(medianDuration(wa)), "ms", fmt.Sprintf("n=%d", len(wa)))
	sq, sa := latencies(sat)
	out.note("closed_loop.query_p50_ms", ms(medianDuration(sq)), "ms", fmt.Sprintf("%d connections, n=%d", conns(), len(sq)))
	out.note("closed_loop.add_p50_ms", ms(medianDuration(sa)), "ms", fmt.Sprintf("n=%d", len(sa)))
	out.note("gen_lag_p99_ms", ms(lagP99), "ms", fmt.Sprintf("generator lateness at the gate step (p50 %.3f ms)", ms(percentile(sortDurations(lags), 0.5))))
	out.note("achieved_rate_ops_s", achieved, "1/s", fmt.Sprintf("%d ops answered in %.3f s, scheduled at %v ops/s", len(q)+len(a), gateWall.Seconds(), spec.rate))
	// Like every percentile here, the lag that decides validity is the
	// highest one with ten samples beyond it: p99 at full scale.
	if t := tailPercentile(len(lags)); t > 0 {
		if lag := percentile(sortDurations(lags), t); lag > maxGenLag {
			out.problem(fmt.Sprintf("invalid run: generator lag p%v %.3f ms is above %v, so the gate-step latencies measure the generator, not the server", t*100, ms(lag), maxGenLag))
		}
	}

	if tr != nil {
		out.set("bench.op_tail_ms", ms(percentile(qs, tail)))
		out.set("bench.gen_lag_p99_ms", ms(lagP99))
		out.set("bench.achieved_rate_ops_s", achieved)
		out.set("server.shed_429", float64(shed))
		liveStats(env, out, topo)
	}
	mixedChecks(env, out, spec, topo, ack)
	if tr != nil {
		if spec.cluster {
			coordinatorOverhead(env, out, tr, topo, gateTable)
		}
		runLayers(cfg, out, tr, env.h, env.records[:min(len(env.records), cfg.scale.layerCorpus)], env.opt, true)
	}
	return out
}

// toShards sends ops straight to the shards, as a client that knew the
// route table would: an add to its home shard, a query to every shard at
// once, answered when the slowest has answered.
func toShards(hc *http.Client, shards []*proc) sender {
	router := cluster.NewRouter(len(shards))
	return func(o *op, res *opResult) {
		if !o.query {
			send(hc, shards[router.Home(o.tokens)].url, o, res)
			return
		}
		rs := make([]opResult, len(shards))
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				send(hc, shards[i].url, o, &rs[i])
			}()
		}
		wg.Wait()
		*res = rs[0]
		for i := range rs {
			if !rs[i].ok() {
				*res = rs[i]
			}
		}
	}
}

// coordinatorOverhead measures what the live durable coordinator adds on
// top of its shards: the gate step's arrival table is sent once more
// through the coordinator and then straight to the shards, back to back on
// the same corpus, and the overhead is the difference of the medians. The
// coordinator's share of an add is everything but the home shard's add:
// the intent and outcome fsyncs under addMu, the discover scatter, the
// extra hop. It runs last: writes that bypass the coordinator leave the
// fleet unusable through it.
func coordinatorOverhead(env *serveEnv, out *outcome, tr *tracer, topo *topology, table []op) {
	route := cluster.NewRouter(len(topo.shards))
	_, end := tr.begin(0, "cluster.Router.Home")
	t0 := time.Now()
	for i := range table {
		route.Home(table[i].tokens)
	}
	out.set("cluster.route_home_ns", per(time.Since(t0), len(table), time.Nanosecond))
	end()

	through, _ := openLoop(toServer(env.hc, topo.front.url), table, tr, "cluster.coordinator")
	direct, _ := openLoop(toShards(env.hc, topo.shards), table, tr, "server.shard")
	countOps(out, through)
	countOps(out, direct)
	tq, ta := latencies(through)
	dq, da := latencies(direct)
	out.set("cluster.coord_overhead_query_ms", ms(medianDuration(tq)-medianDuration(dq)))
	out.set("cluster.coord_overhead_add_ms", ms(medianDuration(ta)-medianDuration(da)))
	out.note("cluster.direct_query_p50_ms", ms(medianDuration(dq)), "ms", fmt.Sprintf("straight to both shards, n=%d; through the coordinator %.3f ms", len(dq), ms(medianDuration(tq))))
	out.note("cluster.direct_add_p50_ms", ms(medianDuration(da)), "ms", fmt.Sprintf("straight to the home shard, n=%d; through the coordinator %.3f ms", len(da), ms(medianDuration(ta))))
}

// mixedChecks compares sampled answers of the now-quiet fleet with an
// in-process reference: for one node, an Indexer loaded from the server's
// own GET /snapshot; for the cluster, a single Indexer fed every acked
// object in global-id order.
func mixedChecks(env *serveEnv, out *outcome, spec mixedSpec, topo *topology, ack acked) {
	r := rand.New(rand.NewSource(int64(env.cfg.seed) + 1))
	n := env.cfg.scale.checkQueries
	if !spec.cluster {
		ref := env.snapshotIndexer(topo.front.url)
		if ref.Len() != len(ack) {
			out.problem(fmt.Sprintf("snapshot holds %d objects, %d adds were acked", ref.Len(), len(ack)))
		}
		env.checkQueries(out, topo.front.url, ref, r, n, "an Indexer loaded from the server's own snapshot")
		return
	}
	objs := ack.inOrder(out)
	if objs == nil {
		return
	}
	ref, err := core.NewIndexer(env.h, env.opt)
	if err != nil {
		fatalf("reference indexer: %v", err)
	}
	for _, toks := range objs {
		if _, err := ref.Add(toks); err != nil {
			fatalf("reference add: %v", err)
		}
	}
	env.checkQueries(out, topo.front.url, ref, r, n, "one Indexer fed the acked objects in global-id order")
}

// liveStats reads the counters the running fleet reports on GET /stats.
func liveStats(env *serveEnv, out *outcome, topo *topology) {
	nodes := topo.shards
	if len(nodes) == 0 {
		nodes = []*proc{topo.front}
	}
	var objects []float64
	for _, p := range nodes {
		st := env.getJSON(p.url + "/stats")
		out.values["core.seal_total"] += num(st, "seal_total")
		out.values["core.merge_total"] += num(st, "merge_total")
		out.values["core.segment_count"] += num(st, "segment_count")
		out.values["core.merge_backlog"] += num(st, "merge_backlog")
		objects = append(objects, num(st, "objects"))
	}
	if len(topo.shards) == 0 {
		return
	}
	st := env.getJSON(topo.front.url + "/stats")
	if n := num(st, "objects"); n > 0 {
		out.set("cluster.coord_wal_records_per_add", num(st, "coordinator_wal_last_seq")/n)
	}
	var sum, max float64
	for _, o := range objects {
		sum += o
		if o > max {
			max = o
		}
	}
	if sum > 0 {
		out.set("cluster.shard_balance", max/(sum/float64(len(objects))))
	}
	out.set("cluster.retries_total", num(st, "retries_total"))
	out.set("cluster.hedges_total", num(st, "hedges_total"))
	out.set("cluster.partial_responses_total", num(st, "partial_responses_total"))
	for _, k := range []string{"retries_total", "hedges_total", "partial_responses_total"} {
		if num(st, k) != 0 {
			out.problem(fmt.Sprintf("coordinator %s = %v on a healthy loopback fleet, want 0", k, num(st, k)))
		}
	}
}
