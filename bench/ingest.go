package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	// ingestAddLimit is about twice the closed-loop add p99 measured here
	// (3 ms), like the limits of the mixed workloads.
	ingestAddLimit = 6 * time.Millisecond
	recoveries     = 15
)

// runIngest drives one durable kjoin-serve with writes only: phase A
// from empty with periodic snapshots, a graceful restart, phase B with
// none, then SIGKILL and recovery over the fixed snapshot + WAL tail that
// leaves behind.
func runIngest(cfg *config, tr *tracer) *outcome {
	out := newOutcome()
	secs := cfg.seconds.Seconds()
	if tr != nil {
		secs = secs * 2 / 5
	}
	nA, nB := int(float64(cfg.scale.ingestPerSec)*secs), int(float64(cfg.scale.tailPerSec)*secs)
	env := newServeEnv(cfg, nA+nB)
	defer env.fleet.close()
	src := &opSource{r: rand.New(rand.NewSource(int64(cfg.seed))), records: env.records}

	// Set-up: an empty durable server, started to ready.
	var setups []time.Duration
	for rep := 0; rep < 3*cfg.scale.setupReps; rep++ {
		t0 := time.Now()
		p := env.startNode("empty", env.fleet.tempDir("empty-"), "")
		setups = append(setups, time.Since(t0))
		p.stop(syscall.SIGKILL)
	}

	dir := env.fleet.tempDir("node-")
	ack := acked{}
	var peak float64
	// Phase A: snapshot + compact cycles run beside the adds.
	node := env.startNode("ingest-a", dir, "1s")
	resA, wallA := closedLoop(toServer(env.hc, node.url), src.table(nA, 0, 0), 0, tr)
	if tr != nil {
		liveStats(env, out, &topology{front: node})
	}
	peak = max(peak, node.peakRSSMB())
	node.stop(syscall.SIGTERM) // writes the final generation
	// Phase B: a WAL tail no snapshot covers.
	node = env.startNode("ingest-b", dir, "")
	resB, wallB := closedLoop(toServer(env.hc, node.url), src.table(nB, 0, 0), 0, tr)
	countOps(out, resA)
	countOps(out, resB)
	ack.collect(out, resA)
	ack.collect(out, resB)

	// Answers to keep: what the server said just before it was killed.
	r := rand.New(rand.NewSource(int64(cfg.seed) + 1))
	before := make([]opResult, cfg.scale.checkQueries)
	probes := make([]op, len(before))
	for i := range probes {
		probes[i] = op{query: true, tokens: env.records[r.Intn(len(env.records))]}
		probes[i].body = tokensBody(probes[i].tokens)
		send(env.hc, node.url, &probes[i], &before[i])
	}

	// SIGKILL after the last ack, restart, first /readyz 200: the same
	// snapshot and the same tail every time.
	var recs []time.Duration
	for i := 0; i < recoveries; i++ {
		peak = max(peak, node.peakRSSMB())
		t0 := time.Now()
		node.stop(syscall.SIGKILL)
		node = env.startNode(fmt.Sprintf("recover-%d", i), dir, "")
		recs = append(recs, time.Since(t0))
	}
	peak = max(peak, node.peakRSSMB())

	// Output checks on the recovered server.
	st := env.getJSON(node.url + "/stats")
	out.attempted++
	if int(num(st, "objects")) != len(ack) {
		out.problem(fmt.Sprintf("recovered server reports %v objects, %d adds were acked", num(st, "objects"), len(ack)))
	}
	ids := make([]int, 0, len(ack))
	for id := range ack {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	lost := 0
	for i := 0; i < len(before) && len(ids) > 0; i++ {
		id := ids[r.Intn(len(ids))]
		out.attempted++
		if !env.objectIs(node.url, id, normalized(ack[id])) {
			lost++
		}
	}
	out.mismatch(lost, "sampled acked objects are missing or changed after SIGKILL and restart")
	changed := 0
	for i := range probes {
		var after opResult
		send(env.hc, node.url, &probes[i], &after)
		out.attempted++
		if !before[i].ok() || !after.ok() || !bytes.Equal(before[i].body, after.body) {
			changed++
		}
	}
	out.mismatch(changed, "pre-kill queries answer differently after recovery")
	out.note("check.recovered", float64(len(ack)), "objects", fmt.Sprintf("objects == acked adds, %d sampled objects and %d pre-kill queries identical", len(before), len(probes)))

	_, adds := latencies(append(resA, resB...))
	sorted := sortDurations(adds)
	within := 0
	for _, d := range sorted {
		if d <= ingestAddLimit {
			within++
		}
	}
	tail := tailPercentile(len(sorted))
	out.set("setup_s", medianDuration(setups).Seconds())
	out.set("op_p50_ms", ms(percentile(sorted, 0.5)))
	out.set("op2_p50_ms", ms(medianDuration(recs)))
	out.set("ops_per_s", float64(len(adds))/(wallA+wallB).Seconds())
	out.set("peak_rss_mb", peak)
	out.set("slo_ok_frac", float64(within)/float64(len(resA)+len(resB)))
	out.note("add_p50_ms", ms(percentile(sorted, 0.5)), "ms", fmt.Sprintf("closed loop, %d connections, n=%d", conns(), len(sorted)))
	out.note("add_tail_ms", ms(percentile(sorted, tail)), "ms", fmt.Sprintf("p%v", tail*100))
	out.note("ingest_ops_s", float64(len(adds))/(wallA+wallB).Seconds(), "1/s", fmt.Sprintf("%d adds in phase A, %d in phase B", nA, nB))
	out.note("recovery_s", medianDuration(recs).Seconds(), "s", fmt.Sprintf("median of %d, snapshot of %d objects + %d-record tail", recoveries, nA, nB))

	if tr != nil {
		out.set("bench.op_tail_ms", ms(percentile(sorted, tail)))
		out.set("bench.achieved_rate_ops_s", float64(len(adds))/(wallA+wallB).Seconds())
		runLayers(cfg, out, tr, env.h, env.records[:min(len(env.records), cfg.scale.layerCorpus)], env.opt, true)
	}
	return out
}

// objectIs reports whether GET /objects/{id} returns exactly tokens.
func (e *serveEnv) objectIs(base string, id int, tokens []string) bool {
	resp, err := e.hc.Get(fmt.Sprintf("%s/objects/%d", base, id))
	if err != nil {
		return false
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read
	var got struct {
		Tokens []string `json:"tokens"`
	}
	return err == nil && resp.StatusCode == http.StatusOK && json.Unmarshal(b, &got) == nil && slices.Equal(got.Tokens, tokens)
}

// normalized is how the server stores an object: lowercased tokens,
// repeats dropped, first occurrences kept (an object is a set of
// elements).
func normalized(tokens []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range tokens {
		if t = strings.ToLower(t); !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
