package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"kjoin"
	"kjoin/internal/core"
)

// Serve workloads join POI-shaped records at the paper's default
// thresholds.
const (
	serveDelta = 0.8
	serveTau   = 0.85
)

// topology is the set of processes one serve workload talks to: front
// takes the client's requests; for a cluster, shards are behind it.
type topology struct {
	front  *proc
	shards []*proc
}

func (t *topology) all() []*proc {
	if len(t.shards) == 0 {
		return []*proc{t.front}
	}
	return append([]*proc{t.front}, t.shards...)
}

func (t *topology) kill() {
	for _, p := range t.all() {
		p.stop(syscall.SIGKILL)
	}
}

func (t *topology) peakRSSMB() float64 {
	var sum float64
	for _, p := range t.all() {
		sum += p.peakRSSMB()
	}
	return sum
}

// serveEnv is what every serve workload shares: the fleet, the client,
// the hierarchy (in memory and as the file the servers load) and the
// seeded record collection.
type serveEnv struct {
	cfg      *config
	fleet    *fleet
	hc       *http.Client
	h        *kjoin.Hierarchy
	hierPath string
	records  [][]string
	opt      kjoin.Options
}

func newServeEnv(cfg *config, nRecords int) *serveEnv {
	f, err := newFleet(cfg.serveBin, cfg.buildDir)
	if err != nil {
		fatalf("%v", err)
	}
	activeFleet = f
	hr := genHierarchy()
	env := &serveEnv{cfg: cfg, fleet: f, hc: newHTTPClient(), h: hr.H,
		hierPath: filepath.Join(f.dir, "hierarchy.txt"),
		records:  poiRecords(hr, nRecords, cfg.seed).Records,
		opt:      kjoin.Defaults(serveDelta, serveTau)}
	if err := writeHierarchy(hr.H, env.hierPath); err != nil {
		fatalf("write hierarchy: %v", err)
	}
	return env
}

// startNode starts one durable kjoin-serve over dir (fresh or holding an
// earlier run's state) and waits until it is ready.
func (e *serveEnv) startNode(name, dir, snapshotInterval string) *proc {
	args := []string{"-hierarchy", e.hierPath, "-delta", fmt.Sprint(serveDelta), "-tau", fmt.Sprint(serveTau),
		"-wal-dir", filepath.Join(dir, "wal"), "-snapshot-dir", filepath.Join(dir, "snap"), "-wal-sync", "always"}
	if snapshotInterval != "" {
		args = append(args, "-snapshot-interval", snapshotInterval)
	}
	p, err := e.fleet.start(name, args...)
	if err == nil {
		err = p.ready(e.hc, 30*time.Second)
	}
	if err != nil {
		fatalf("start %s: %v", name, err)
	}
	return p
}

// startCluster starts two durable shards and a durable coordinator over
// them, all on loopback.
func (e *serveEnv) startCluster() *topology {
	t := &topology{}
	var urls []string
	for i := 0; i < 2; i++ {
		p := e.startNode(fmt.Sprintf("shard%d", i), e.fleet.tempDir("shard-"), "1s")
		t.shards = append(t.shards, p)
		urls = append(urls, p.url)
	}
	dir := e.fleet.tempDir("coord-")
	p, err := e.fleet.start("coordinator", "-cluster", "-shards", strings.Join(urls, ","),
		"-coord-wal-dir", filepath.Join(dir, "wal"), "-coord-snapshot-dir", filepath.Join(dir, "snap"))
	if err == nil {
		err = p.ready(e.hc, 30*time.Second)
	}
	if err != nil {
		fatalf("start coordinator: %v", err)
	}
	t.front = p
	return t
}

// getJSON fetches a JSON object.
func (e *serveEnv) getJSON(url string) map[string]any {
	resp, err := e.hc.Get(url)
	if err != nil {
		fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || resp.StatusCode != http.StatusOK {
		fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return m
}

func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// match is one /query result as the server prints it.
type match struct {
	Index int     `json:"index"`
	Sim   float64 `json:"sim"`
}

// sameMatches compares a /query response body with an in-process
// Indexer's answer: the same indices in the same order with bit-identical
// similarities.
func sameMatches(body []byte, want []core.Match) bool {
	var got struct {
		Matches []match `json:"matches"`
	}
	if json.Unmarshal(body, &got) != nil || len(got.Matches) != len(want) {
		return false
	}
	for i, m := range got.Matches {
		if m.Index != want[i].Index || math.Float64bits(m.Sim) != math.Float64bits(want[i].Sim) {
			return false
		}
	}
	return true
}

// checkQueries sends n seeded queries to base while the server is quiet
// and compares each answer with the reference Indexer's.
func (e *serveEnv) checkQueries(out *outcome, base string, ref *core.Indexer, r *rand.Rand, n int, what string) {
	bad := 0
	for i := 0; i < n; i++ {
		o := op{query: true, tokens: e.records[r.Intn(len(e.records))]}
		o.body = tokensBody(o.tokens)
		var res opResult
		send(e.hc, base, &o, &res)
		want, err := ref.Query(o.tokens)
		out.attempted++
		if !res.ok() || err != nil || !sameMatches(res.body, want) {
			bad++
		}
	}
	out.mismatch(bad, "sampled queries differ from "+what)
	out.note("check.queries", float64(n), "count", "sampled queries equal "+what)
}

// addID extracts the id a successful POST /objects assigned.
func addID(body []byte) (int, bool) {
	var resp struct {
		ID *int `json:"id"`
	}
	if json.Unmarshal(body, &resp) != nil || resp.ID == nil {
		return 0, false
	}
	return *resp.ID, true
}

// acked collects the tokens of every acknowledged add by the id the
// server gave it.
type acked map[int][]string

func (a acked) collect(out *outcome, rs []opResult) {
	for i := range rs {
		if rs[i].op.query || !rs[i].ok() {
			continue
		}
		id, ok := addID(rs[i].body)
		if _, dup := a[id]; !ok || dup {
			out.problem(fmt.Sprintf("add answered with a missing or repeated id: %s", bytes.TrimSpace(rs[i].body)))
			continue
		}
		a[id] = rs[i].op.tokens
	}
}

// inOrder returns the acked token lists by ascending id, checking that
// the ids are exactly 0..n-1.
func (a acked) inOrder(out *outcome) [][]string {
	objs := make([][]string, len(a))
	for id, toks := range a {
		if id < 0 || id >= len(objs) {
			out.problem(fmt.Sprintf("acked id %d outside 0..%d: the id space has a gap", id, len(objs)-1))
			return nil
		}
		objs[id] = toks
	}
	return objs
}

// countOps adds the results of one phase to the op accounting; a non-2xx
// answer, a refused connection or a timeout is a failed op.
func countOps(out *outcome, rs []opResult) (shed int) {
	for i := range rs {
		out.attempted++
		if !rs[i].ok() {
			out.failed++
			if rs[i].status == http.StatusTooManyRequests {
				shed++
			}
		}
	}
	return shed
}

// snapshotIndexer downloads the server's own snapshot and loads it into
// an in-process Indexer.
func (e *serveEnv) snapshotIndexer(base string) *core.Indexer {
	resp, err := e.hc.Get(base + "/snapshot")
	if err != nil {
		fatalf("GET /snapshot: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read
	if err != nil || resp.StatusCode != http.StatusOK {
		fatalf("GET /snapshot: status %d, %v", resp.StatusCode, err)
	}
	ix, err := core.LoadIndexer(e.h, e.opt, bytes.NewReader(b))
	if err != nil {
		fatalf("load snapshot: %v", err)
	}
	return ix
}
