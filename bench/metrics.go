package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Workload names, in the order the suite runs them.
const (
	wBatchFilter  = "batch-filter"
	wBatchSkew    = "batch-skew"
	wBatchVerify  = "batch-verify"
	wServeMixed   = "serve-mixed"
	wServeIngest  = "serve-ingest"
	wClusterMixed = "cluster-mixed"
)

var workloadNames = []string{wBatchFilter, wBatchSkew, wBatchVerify, wServeMixed, wServeIngest, wClusterMixed}

var batchWorkloads = []string{wBatchFilter, wBatchSkew, wBatchVerify}

// metricDef is one named metric. For a per-layer metric, moves names the
// end-to-end metric it is expected to move and on the workloads where a
// change to that layer should show (README "How the metrics interact").
type metricDef struct {
	name, unit, better string
	moves              string
	on                 []string
}

// endToEnd is what a user of the system sees. Every workload reports
// every metric; README.md states what "op" and "op2" are per workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op2_p50_ms", unit: "ms", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "slo_ok_frac", unit: "fraction", better: "higher"},
}

// perLayer is one outside-in number per layer a request crosses, named
// <package>.<metric>. Times come from the bench's own calls into the
// layer's exported functions on the workload's records; counts come from
// core.Stats and GET /stats.
var perLayer = []metricDef{
	{"core.preprocess_s", "s", "lower", "op_p50_ms", batchWorkloads},
	{"core.build_index_s", "s", "lower", "op_p50_ms", batchWorkloads},
	{"core.probe_s", "s", "lower", "op_p50_ms", batchWorkloads},
	{"core.verify_cpu_s", "s", "lower", "op_p50_ms", []string{wBatchVerify}},
	{"core.candidates", "count", "lower", "op_p50_ms", []string{wBatchFilter, wBatchSkew}},
	{"core.candidates_per_object", "count", "lower", "op_p50_ms", []string{wBatchFilter, wBatchSkew}},
	{"core.results_per_candidate", "ratio", "higher", "op_p50_ms", []string{wBatchFilter, wBatchSkew}},
	{"core.avg_prefix_len", "count", "lower", "op_p50_ms", []string{wBatchFilter, wBatchSkew}},
	{"core.sig_entries", "count", "lower", "op_p50_ms", batchWorkloads},
	{"core.allocs_per_join", "count", "lower", "peak_rss_mb", batchWorkloads},
	{"core.alloc_mb_per_join", "MB", "lower", "peak_rss_mb", batchWorkloads},
	{"core.join_scale_exponent", "ratio", "lower", "op_p50_ms", []string{wBatchFilter, wBatchSkew}},

	{"verify.count_pruned", "count", "lower", "op_p50_ms", []string{wBatchFilter, wBatchSkew}},
	{"verify.weighted_pruned", "count", "lower", "op_p50_ms", []string{wBatchVerify}},
	{"verify.ub_rejected", "count", "lower", "op_p50_ms", []string{wBatchVerify}},
	{"verify.lb_accepted", "count", "higher", "op_p50_ms", []string{wBatchVerify}},
	{"verify.matching_calls", "count", "lower", "op_p50_ms", []string{wBatchVerify}},
	{"verify.results", "count", "higher", "op_p50_ms", []string{wBatchVerify}},
	{"verify.pruned_pair_ns", "ns", "lower", "op_p50_ms", []string{wBatchFilter, wBatchSkew}},
	{"verify.survivor_pair_ns", "ns", "lower", "op_p50_ms", []string{wBatchVerify}},

	{"matching.max_weight_us", "us", "lower", "op_p50_ms", []string{wBatchVerify}},
	{"matching.lower_bound_us", "us", "lower", "op_p50_ms", []string{wBatchVerify}},
	{"matching.upper_bound_us", "us", "lower", "op_p50_ms", []string{wBatchVerify}},

	{"elem.resolve_us_per_token", "us", "lower", "op_p50_ms", batchWorkloads},
	{"elem.resolve_plus_us_per_token", "us", "lower", "op_p50_ms", batchWorkloads},
	{"elem.sim_ns", "ns", "lower", "op_p50_ms", []string{wBatchVerify}},
	{"strutil.edit_within_ns", "ns", "lower", "op_p50_ms", batchWorkloads},
	{"sig.object_sigs_us", "us", "lower", "op_p50_ms", batchWorkloads},
	{"sig.build_order_ms", "ms", "lower", "op_p50_ms", batchWorkloads},
	{"sig.weighted_prefix_ns", "ns", "lower", "op_p50_ms", batchWorkloads},
	{"index.add_ns_per_entry", "ns", "lower", "op_p50_ms", batchWorkloads},
	{"index.postings_len_p50", "count", "lower", "op_p50_ms", []string{wBatchFilter, wBatchSkew}},
	{"index.postings_len_p99", "count", "lower", "op_p50_ms", []string{wBatchSkew}},
	{"index.postings_len_max", "count", "lower", "op_p50_ms", []string{wBatchSkew}},

	{"core.add_us", "us", "lower", "op_p50_ms", []string{wServeIngest}},
	{"core.add_us_per_1k_objects", "us", "lower", "ops_per_s", []string{wServeIngest}},
	{"core.prepare_query_us", "us", "lower", "op_p50_ms", []string{wServeMixed, wClusterMixed}},
	{"core.run_query_us", "us", "lower", "op_p50_ms", []string{wServeMixed, wClusterMixed}},
	{"core.merge_drain_ms", "ms", "lower", "slo_ok_frac", []string{wServeIngest}},
	{"core.snapshot_write_ms", "ms", "lower", "slo_ok_frac", []string{wServeIngest, wServeMixed}},
	{"core.snapshot_load_ms", "ms", "lower", "op2_p50_ms", []string{wServeIngest}},
	{"core.snapshot_bytes_per_object", "B", "lower", "op2_p50_ms", []string{wServeIngest}},
	{"core.seal_total", "count", "lower", "slo_ok_frac", []string{wServeIngest}},
	{"core.merge_total", "count", "lower", "slo_ok_frac", []string{wServeIngest}},
	{"core.segment_count", "count", "lower", "op_p50_ms", []string{wServeMixed}},
	{"core.merge_backlog", "count", "lower", "op_p50_ms", []string{wServeMixed}},

	{"wal.append_us", "us", "lower", "op_p50_ms", []string{wServeIngest}},
	{"wal.append_sync_us", "us", "lower", "op_p50_ms", []string{wServeIngest}},
	{"wal.append_sync_us.c2", "us", "lower", "ops_per_s", []string{wServeIngest}},
	{"wal.bytes_per_record", "B", "lower", "op2_p50_ms", []string{wServeIngest}},
	{"wal.replay_records_per_s", "1/s", "higher", "op2_p50_ms", []string{wServeIngest}},
	{"wal.compact_ms", "ms", "lower", "slo_ok_frac", []string{wServeIngest}},
	{"serverutil.gen_save_ms", "ms", "lower", "slo_ok_frac", []string{wServeIngest}},

	{"server.handler_add_us", "us", "lower", "op2_p50_ms", []string{wServeMixed, wClusterMixed}},
	{"server.handler_query_us", "us", "lower", "op_p50_ms", []string{wServeMixed, wClusterMixed}},
	{"server.http_overhead_us", "us", "lower", "ops_per_s", []string{wServeMixed, wClusterMixed}},
	{"server.json_decode_us", "us", "lower", "ops_per_s", []string{wServeMixed, wClusterMixed}},
	{"server.recover_s", "s", "lower", "op2_p50_ms", []string{wServeIngest}},
	{"server.shed_429", "count", "lower", "slo_ok_frac", []string{wServeMixed, wClusterMixed}},

	{"cluster.route_home_ns", "ns", "lower", "op2_p50_ms", []string{wClusterMixed}},
	{"cluster.coord_overhead_query_ms", "ms", "lower", "op_p50_ms", []string{wClusterMixed}},
	{"cluster.coord_overhead_add_ms", "ms", "lower", "op2_p50_ms", []string{wClusterMixed}},
	{"cluster.coord_wal_records_per_add", "count", "lower", "op2_p50_ms", []string{wClusterMixed}},
	{"cluster.shard_balance", "ratio", "lower", "op_p50_ms", []string{wClusterMixed}},
	{"cluster.retries_total", "count", "lower", "slo_ok_frac", []string{wClusterMixed}},
	{"cluster.hedges_total", "count", "lower", "slo_ok_frac", []string{wClusterMixed}},
	{"cluster.partial_responses_total", "count", "lower", "slo_ok_frac", []string{wClusterMixed}},

	{"bench.op_tail_ms", "ms", "lower", "slo_ok_frac", workloadNames},
	{"bench.gen_lag_p99_ms", "ms", "lower", "op_p50_ms", []string{wServeMixed, wClusterMixed}},
	{"bench.achieved_rate_ops_s", "1/s", "higher", "slo_ok_frac", []string{wServeMixed, wClusterMixed}},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// info is an extra human-readable line (a sample count, an ungated
// number); it never enters the result object.
type info struct {
	name  string
	value float64
	unit  string
	note  string
}

// outcome is what one workload run produces: values by metric name plus
// the op accounting and the info lines.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string // output-check mismatches; any entry makes the run incorrect
	infos     []info
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(name string, v float64, unit, note string) {
	o.infos = append(o.infos, info{name, v, unit, note})
}

func (o *outcome) problem(msg string) {
	o.problems = append(o.problems, msg)
	o.failed++
}

// mismatch records n failed ops behind one problem line; n == 0 is no
// problem.
func (o *outcome) mismatch(n int, what string) {
	if n > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d %s", n, what))
		o.failed += n
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianDuration(d []time.Duration) time.Duration { return percentile(sortDurations(d), 0.5) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile is the highest of p99/p95/p90 that leaves at least ten
// of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0
}
