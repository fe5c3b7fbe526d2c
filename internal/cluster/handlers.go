package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"kjoin/internal/replica"
	"kjoin/internal/serverutil"
)

// Request headers the coordinator honors and response headers it sets.
const (
	// HeaderPartial selects the partial-result policy per request
	// ("fail" or "degrade"); absent means the configured default.
	HeaderPartial = "X-Kjoin-Partial"
	// HeaderDeadlineMs shrinks the request's deadline budget below the
	// configured RequestTimeout (milliseconds; it cannot grow it). Every
	// shard call forwards the remaining budget in it.
	HeaderDeadlineMs = serverutil.HeaderDeadlineMs
	// HeaderCoverage reports gather coverage as "k/n": k of n shards
	// contributed to the answer.
	HeaderCoverage = "X-Kjoin-Coverage"
	// HeaderSkippedShards lists the shard ids missing from a degraded
	// answer, comma-separated.
	HeaderSkippedShards = "X-Kjoin-Skipped-Shards"
	// HeaderFailedShards lists the shard ids that caused a fail-policy
	// 503, comma-separated.
	HeaderFailedShards = "X-Kjoin-Failed-Shards"
	// HeaderRouteVersion, on a request, asserts the route-table version
	// the client computed against. A mismatch (a reshard moved the table
	// out from under the client's cache) is refused with a typed 409
	// stale_route carrying the current version in this same header, so
	// the client refetches /cluster/route instead of acting on a stale
	// partitioning.
	HeaderRouteVersion = "X-Kjoin-Route-Version"
)

func (c *Coordinator) mux() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /objects", c.Limited(c.routeGate(http.HandlerFunc(c.handleAdd))))
	mux.Handle("POST /query", c.Limited(c.routeGate(http.HandlerFunc(c.handleQuery))))
	mux.Handle("POST /join", c.Limited(c.routeGate(http.HandlerFunc(c.handleJoin))))
	mux.Handle("POST /similarity", c.Limited(http.HandlerFunc(c.handleSimilarity)))
	// The reshard endpoints skip the admission gate and request deadline:
	// they are rare control operations whose begin scan is allowed to
	// outlive a data-plane deadline, and shedding one under load would
	// only postpone draining that load off the hot shard.
	mux.Handle("POST /cluster/reshard", serverutil.LimitBody(c.Edge.MaxBodyBytes)(http.HandlerFunc(c.handleReshard)))
	mux.HandleFunc("POST /cluster/reshard/abort", c.handleReshardAbort)
	mux.HandleFunc("GET /cluster/reshard", c.handleReshardStatus)
	mux.HandleFunc("GET /cluster/route", c.handleRoute)
	mux.HandleFunc("GET /stats", c.handleStats)
	return c.Handler(mux)
}

// routeGate refuses requests asserting a stale route-table version. A
// client that computed an object's home against version v must not act
// on the answer if the table has since moved: the 409 carries the
// current version so it can refetch /cluster/route and retry.
func (c *Coordinator) routeGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get(HeaderRouteVersion); h != "" {
			v, err := strconv.Atoi(h)
			if err != nil || v < 1 {
				serverutil.WriteError(w, http.StatusBadRequest, "bad_route_version",
					fmt.Sprintf("%s must be a positive integer, got %q", HeaderRouteVersion, h))
				return
			}
			c.mu.RLock()
			cur := c.router.Version()
			c.mu.RUnlock()
			if v != cur {
				w.Header().Set(HeaderRouteVersion, strconv.Itoa(cur))
				serverutil.WriteError(w, http.StatusConflict, "stale_route",
					fmt.Sprintf("route version %d is stale; the table is now version %d", v, cur))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// policy resolves the request's partial-result policy.
func (c *Coordinator) policy(w http.ResponseWriter, r *http.Request) (string, bool) {
	p := r.Header.Get(HeaderPartial)
	if p == "" {
		return c.cfg.Partial, true
	}
	if p != PartialFail && p != PartialDegrade {
		serverutil.WriteError(w, http.StatusBadRequest, "bad_policy",
			fmt.Sprintf("%s must be %q or %q, got %q", HeaderPartial, PartialFail, PartialDegrade, p))
		return "", false
	}
	return p, true
}

// shardList renders shard ids as "1,3".
func shardList(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}

// gatherHeaders applies the partial-result policy to a gather over n
// target shards with the given failed shard set. It returns false after
// writing the response itself (nothing answered, or fail policy with
// gaps); on true the caller proceeds to write the 200, whose coverage
// headers are already set.
func (c *Coordinator) gatherHeaders(w http.ResponseWriter, policy string, n int, failed []int, lastErr error) bool {
	live := n - len(failed)
	if live == 0 {
		// A shard-side 400 means the input itself is bad (every shard would
		// refuse it); answer 400, not a coverage gap.
		var se *replica.StatusError
		if errors.As(lastErr, &se) && se.Status == http.StatusBadRequest {
			serverutil.WriteError(w, http.StatusBadRequest, "invalid_input", "shards rejected the request: "+lastErr.Error())
			return false
		}
		w.Header().Set(HeaderFailedShards, shardList(failed))
		serverutil.Fail(w, http.StatusServiceUnavailable, "all_shards_failed", fmt.Errorf("every shard failed: %w", lastErr))
		return false
	}
	if len(failed) > 0 {
		c.partialTotal.Add(1)
		if policy == PartialFail {
			w.Header().Set(HeaderFailedShards, shardList(failed))
			serverutil.WriteError(w, http.StatusServiceUnavailable, "partial_failure",
				fmt.Sprintf("shards %s failed and the request demands full coverage", shardList(failed)))
			return false
		}
		w.Header().Set(HeaderSkippedShards, shardList(failed))
	}
	w.Header().Set(HeaderCoverage, fmt.Sprintf("%d/%d", live, n))
	return true
}

// objectRequest is the body of POST /objects and POST /query.
type objectRequest struct {
	Tokens []string `json:"tokens"`
}

// toEntries maps one shard's local match indices into global-id
// entries. Matches for local ids the coordinator has not assigned are
// dropped — they can only come from writes that bypassed the
// coordinator, and inventing global ids for them would corrupt the
// merge. Tombstoned copies (retired by a reshard finalize or abort) are
// dropped too: the surviving copy answers for the object. Caller holds
// c.mu (read side).
func (c *Coordinator) toEntries(shardID int, ms []replica.Match) []Entry {
	tg := c.toGlobal[shardID]
	out := make([]Entry, 0, len(ms))
	for _, m := range ms {
		if m.Index < 0 || m.Index >= len(tg) {
			continue
		}
		if tg[m.Index] < 0 {
			continue
		}
		out = append(out, Entry{Index: tg[m.Index], Sim: m.Sim})
	}
	return out
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	policy, ok := c.policy(w, r)
	if !ok {
		return
	}
	k := 0
	if kq := r.URL.Query().Get("k"); kq != "" {
		var err error
		if k, err = strconv.Atoi(kq); err != nil || k < 1 {
			serverutil.WriteError(w, http.StatusBadRequest, "bad_k",
				fmt.Sprintf("k must be a positive integer, got %q", kq))
			return
		}
	}
	var req objectRequest
	if !serverutil.DecodeJSON(w, r, &req) {
		return
	}
	// During a dual-read window the targets cover both the old and new
	// homes of every moving object; duplicate answers collapse in the
	// merge's global-id dedup (sims are placement-independent, so which
	// copy answers cannot change a bit of the result).
	targets, dual := c.gatherTargets()
	if dual {
		c.dualReadTotal.Add(1)
	}
	outs := scatter(c, r.Context(), targets, func(ctx context.Context, _ int, cl *replica.Client) (*replica.Result, error) {
		return cl.Query(ctx, req.Tokens)
	})
	var failed []int
	var lastErr error
	entries := make([][]Entry, len(outs))
	c.mu.RLock()
	for i, out := range outs {
		if out.err != nil {
			failed = append(failed, targets[i])
			lastErr = out.err
			continue
		}
		entries[i] = c.toEntries(targets[i], out.val.Matches)
	}
	c.mu.RUnlock()
	if !c.gatherHeaders(w, policy, len(targets), failed, lastErr) {
		return
	}
	var merged []Entry
	if k > 0 {
		merged = mergeTopK(entries, k)
	} else {
		merged = mergeAscending(entries)
	}
	if merged == nil {
		merged = []Entry{}
	}
	serverutil.WriteJSON(w, map[string]any{"matches": merged})
}

// joinRequest is the body of POST /join: a batch of objects joined
// against the cluster's indexed corpus.
type joinRequest struct {
	Objects [][]string `json:"objects"`
}

// joinPair is one reported (batch object, corpus object) match.
type joinPair struct {
	X   int     `json:"x"` // index into the posted batch
	Y   int     `json:"y"` // global id of the corpus object
	Sim float64 `json:"sim"`
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	policy, ok := c.policy(w, r)
	if !ok {
		return
	}
	var req joinRequest
	if !serverutil.DecodeJSON(w, r, &req) {
		return
	}
	targets, dual := c.gatherTargets()
	if dual {
		c.dualReadTotal.Add(1)
	}
	// Each shard serves the whole batch under one shard deadline: the
	// per-object queries are sequential, so the shard's allowance covers
	// the batch, not each object.
	outs := scatter(c, r.Context(), targets, func(ctx context.Context, _ int, cl *replica.Client) ([][]replica.Match, error) {
		res := make([][]replica.Match, len(req.Objects))
		for i, obj := range req.Objects {
			out, err := cl.Query(ctx, obj)
			if err != nil {
				return nil, err
			}
			res[i] = out.Matches
		}
		return res, nil
	})
	var failed []int
	var lastErr error
	// Per-batch-object entry lists, so duplicate copies of a corpus
	// object collapse per query exactly as /query's merge would.
	perObj := make([][][]Entry, len(req.Objects))
	c.mu.RLock()
	for s, out := range outs {
		if out.err != nil {
			failed = append(failed, targets[s])
			lastErr = out.err
			continue
		}
		for i, ms := range out.val {
			perObj[i] = append(perObj[i], c.toEntries(targets[s], ms))
		}
	}
	c.mu.RUnlock()
	if !c.gatherHeaders(w, policy, len(targets), failed, lastErr) {
		return
	}
	var pairs []joinPair
	for i, lists := range perObj {
		for _, e := range mergeAscending(lists) {
			pairs = append(pairs, joinPair{X: i, Y: e.Index, Sim: e.Sim})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].X != pairs[j].X {
			return pairs[i].X < pairs[j].X
		}
		return pairs[i].Y < pairs[j].Y
	})
	if pairs == nil {
		pairs = []joinPair{}
	}
	serverutil.WriteJSON(w, map[string]any{"pairs": pairs})
}

// similarityRequest is the body of POST /similarity.
type similarityRequest struct {
	X []string `json:"x"`
	Y []string `json:"y"`
}

func (c *Coordinator) handleSimilarity(w http.ResponseWriter, r *http.Request) {
	var req similarityRequest
	if !serverutil.DecodeJSON(w, r, &req) {
		return
	}
	// Similarity is stateless over the shared hierarchy, so any shard
	// can answer; start from a rotating cursor and fail over across the
	// fleet.
	c.mu.RLock()
	shs := append([]*shard(nil), c.shards...)
	c.mu.RUnlock()
	start := int(c.rr.Add(1))
	var lastErr error
	for off := 0; off < len(shs); off++ {
		sh := shs[(start+off)%len(shs)]
		res, err := callShard(c, r.Context(), sh, func(ctx context.Context, cl *replica.Client) (*replica.Result, error) {
			return cl.Similarity(ctx, req.X, req.Y)
		})
		if err == nil {
			serverutil.WriteJSON(w, map[string]float64{"sim": res.Sim})
			return
		}
		lastErr = err
		if r.Context().Err() != nil {
			break
		}
	}
	var se *replica.StatusError
	if errors.As(lastErr, &se) && se.Status == http.StatusBadRequest {
		serverutil.WriteError(w, http.StatusBadRequest, "invalid_input", "shards rejected the pair: "+lastErr.Error())
		return
	}
	serverutil.Fail(w, http.StatusServiceUnavailable, "all_shards_failed", fmt.Errorf("no shard could score the pair: %w", lastErr))
}

// pairJSON is one reported pair in an add response, in global ids.
type pairJSON struct {
	X   int     `json:"x"`
	Y   int     `json:"y"`
	Sim float64 `json:"sim"`
}

// shardAddResponse is what a shard's POST /objects returns (local ids).
type shardAddResponse struct {
	ID    int        `json:"id"`
	Pairs []pairJSON `json:"pairs"`
}

func (c *Coordinator) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req objectRequest
	if !serverutil.DecodeJSON(w, r, &req) {
		return
	}
	// Adds serialize cluster-wide (see the addMu doc): global id order is
	// insertion order, the discovery sweep sees exactly the objects with
	// smaller ids, and the coordinator WAL holds at most one unresolved
	// intent. Throughput scales with shards via query traffic, not adds.
	c.addMu.Lock()
	defer c.addMu.Unlock()
	if err := c.controlErr(); err != nil {
		serverutil.Fail(w, http.StatusInternalServerError, "control_plane_failed", err)
		return
	}
	c.mu.RLock()
	home := c.router.Home(req.Tokens)
	g := c.objects
	sh := c.shards[home]
	expected := len(c.toGlobal[home])
	c.mu.RUnlock()
	durable := c.log != nil
	if durable {
		// Fail fast once the log is poisoned: taking more adds into a state
		// the log cannot vouch for only widens the gap recovery will erase.
		if werr := c.log.WAL().Err(); werr != nil {
			serverutil.Fail(w, http.StatusInternalServerError, "wal_failed", werr)
			return
		}
		// Write-ahead intent: a crash between the shard add and its outcome
		// record leaves this as the log's tail, and recovery settles it
		// against the shard's object count.
		if _, err := c.appendSync(encAssignIntent(g, home, req.Tokens)); err != nil {
			serverutil.Fail(w, http.StatusInternalServerError, "wal_failed", err)
			return
		}
	}
	res, err := c.addToShard(r.Context(), sh, req.Tokens)
	var homePairs []pairJSON
	adopted := false
	switch {
	case err == nil:
		if res.ID != expected {
			// The shard's id sequence diverged from ours: something wrote to
			// it around the coordinator. Refuse loudly rather than serve a
			// corrupted mapping — and on a durable coordinator latch the
			// control plane, because the log now ends in an intent no record
			// can truthfully close.
			derr := fmt.Errorf("shard %d assigned local id %d, coordinator expected %d: writes bypassed the coordinator", home, res.ID, expected)
			if durable {
				c.failControl(derr)
			}
			serverutil.Fail(w, http.StatusInternalServerError, "shard_drift", derr)
			return
		}
		homePairs = res.Pairs
		if aerr := c.applyAssign(g, home, expected); aerr != nil {
			c.failControl(aerr)
			serverutil.Fail(w, http.StatusInternalServerError, "control_plane_failed", aerr)
			return
		}
		if durable {
			// The ack below is written only after this record is durable: an
			// acked id assignment survives any crash bit-identically.
			if _, werr := c.appendSync(encAssignDone(g, home, expected)); werr != nil {
				serverutil.Fail(w, http.StatusInternalServerError, "wal_failed", werr)
				return
			}
		}
	case !durable:
		c.addError(w, home, err)
		return
	case provablyNotApplied(err):
		// The shard never indexed the object: close the intent with an
		// abort record and surface the refusal.
		if _, aerr := c.appendSync(encAssignAbort(g)); aerr != nil {
			serverutil.Fail(w, http.StatusInternalServerError, "wal_failed", aerr)
			return
		}
		c.addError(w, home, err)
		return
	default:
		// Ambiguous outcome (timed out mid-flight, connection dropped):
		// settle the intent by counting, exactly as recovery would.
		applied, rerr := c.resolveAmbiguous(recAssignIntent, g, home, home)
		if rerr != nil {
			serverutil.Fail(w, http.StatusInternalServerError, "control_plane_failed", rerr)
			return
		}
		if !applied {
			c.addError(w, home, err)
			return
		}
		// The add landed before the failure surfaced: the object exists and
		// is durably mapped, so acknowledge it rather than invite a
		// duplicating retry. Its pair report was lost with the response;
		// the coverage headers below declare the home shard's gap.
		adopted = true
	}
	c.mu.RLock()
	tgHome := c.toGlobal[home]
	homeEntries := make([]Entry, 0, len(homePairs))
	for _, p := range homePairs {
		// A shard add reports pairs as (candidate local id, new local id).
		if p.X < 0 || p.X >= len(tgHome) || tgHome[p.X] < 0 {
			continue
		}
		homeEntries = append(homeEntries, Entry{Index: tgHome[p.X], Sim: p.Sim})
	}
	targets, dual := c.gatherTargetsLocked()
	c.mu.RUnlock()
	if dual {
		c.dualReadTotal.Add(1)
	}
	// Cross-shard pair discovery: the new object queried against every
	// other gather target's corpus (all ids < g — adds are serialized).
	// The home add has already committed, so discovery gaps degrade the
	// reported pair set with coverage headers; they never fail the add.
	// The home shard is excluded from the scatter outright: its pairs
	// came with the add, and even a no-op call would charge its breaker
	// and the retry budget — a half-open breaker must never be closed by
	// a probe that proved nothing.
	others := make([]int, 0, len(targets))
	for _, t := range targets {
		if t != home {
			others = append(others, t)
		}
	}
	outs := scatter(c, r.Context(), others, func(ctx context.Context, _ int, cl *replica.Client) (*replica.Result, error) {
		return cl.Query(ctx, req.Tokens)
	})
	var failed []int
	entries := make([][]Entry, 0, len(outs)+1)
	entries = append(entries, homeEntries)
	c.mu.RLock()
	for i, out := range outs {
		if out.err != nil {
			failed = append(failed, others[i])
			continue
		}
		entries = append(entries, c.toEntries(others[i], out.val.Matches))
	}
	c.mu.RUnlock()
	if adopted {
		failed = append([]int{home}, failed...)
	}
	if len(failed) > 0 {
		c.partialTotal.Add(1)
		w.Header().Set(HeaderSkippedShards, shardList(failed))
	}
	n := len(others) + 1
	w.Header().Set(HeaderCoverage, fmt.Sprintf("%d/%d", n-len(failed), n))
	merged := mergeAscending(entries)
	pairs := make([]pairJSON, 0, len(merged))
	for _, e := range merged {
		pairs = append(pairs, pairJSON{X: e.Index, Y: g, Sim: e.Sim})
	}
	serverutil.WriteJSON(w, map[string]any{"id": g, "pairs": pairs})
}

// addToShard runs the home-shard add. Adds are not idempotent — a
// timed-out add may have applied — so only responses that prove the
// add was not applied (a 429 shed at the shard's admission gate) are
// retried; everything else surfaces to the caller after one attempt
// (on a durable coordinator, an ambiguous failure is then settled by
// counting — see resolveAmbiguous).
func (c *Coordinator) addToShard(ctx context.Context, sh *shard, tokens []string) (*shardAddResponse, error) {
	c.budget.onAttempt()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !sh.breaker.Allow() {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, errBreakerOpen
		}
		sctx, cancel := context.WithTimeout(ctx, shardDeadline(ctx, c.cfg.ShardTimeout, c.cfg.MergeSlack))
		res, err := c.postAdd(sctx, sh.cfg.Primary, tokens)
		cancel()
		if err == nil {
			sh.breaker.Success()
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			sh.breaker.Forgive()
			return nil, fmt.Errorf("add to shard %d: %w", sh.id, err)
		}
		se := statusErrOf(err)
		switch {
		case se != nil && se.Status == http.StatusTooManyRequests:
			// Shed at the door: provably not applied, safe to retry, and
			// no evidence the shard is broken.
			sh.breaker.Forgive()
			if attempt >= c.cfg.MaxRetries || !c.budget.spend() {
				return nil, fmt.Errorf("add to shard %d: %w", sh.id, err)
			}
			c.retriesTotal.Add(1)
			d := c.jitterBackoff()
			if se.RetryAfter > d {
				d = se.RetryAfter
			}
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		case se != nil && se.Status >= 400 && se.Status < 500:
			// The object itself was refused; not the shard's fault.
			sh.breaker.Forgive()
			return nil, fmt.Errorf("add to shard %d: %w", sh.id, err)
		default:
			sh.breaker.Failure()
			return nil, fmt.Errorf("add to shard %d: %w", sh.id, err)
		}
	}
}

// postAdd posts one object to a shard primary.
func (c *Coordinator) postAdd(ctx context.Context, primary string, tokens []string) (*shardAddResponse, error) {
	var out shardAddResponse
	if _, err := replica.Call(ctx, c.cfg.HTTP, http.MethodPost, primary, "/objects", objectRequest{Tokens: tokens}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// addError maps a failed home-shard add to a response: client errors
// pass through as 400, everything else goes through serverutil.Fail as
// a 503 naming the shard the object routes to.
func (c *Coordinator) addError(w http.ResponseWriter, home int, err error) {
	var se *replica.StatusError
	if errors.As(err, &se) && se.Status >= 400 && se.Status < 500 && se.Status != http.StatusTooManyRequests {
		serverutil.WriteError(w, http.StatusBadRequest, "invalid_input", "shard rejected the object: "+err.Error())
		return
	}
	w.Header().Set(HeaderFailedShards, strconv.Itoa(home))
	serverutil.Fail(w, http.StatusServiceUnavailable, "shard_unavailable", fmt.Errorf("home shard %d cannot accept the object: %w", home, err))
}

// statusErrOf unwraps a *replica.StatusError from a shard call's error
// chain (nil when there is none).
func statusErrOf(err error) *replica.StatusError {
	var se *replica.StatusError
	if errors.As(err, &se) {
		return se
	}
	return nil
}

// routeShard is one shard's row in the route table.
type routeShard struct {
	ID       int      `json:"id"`
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
	Objects  int      `json:"objects"`
}

// handleRoute serves the versioned route table: the partitioning
// algorithm, the bucket→shard assignment and the shard endpoints, so
// clients can compute homes themselves and detect a repartition by
// comparing versions (or asserting one with X-Kjoin-Route-Version).
func (c *Coordinator) handleRoute(w http.ResponseWriter, r *http.Request) {
	c.mu.RLock()
	rows := make([]routeShard, len(c.shards))
	for i, sh := range c.shards {
		rows[i] = routeShard{ID: i, Primary: sh.cfg.Primary, Replicas: sh.cfg.Replicas, Objects: c.live[i]}
	}
	version := c.router.Version()
	assign := c.router.Assign()
	c.mu.RUnlock()
	serverutil.WriteJSON(w, map[string]any{
		"version": version,
		"algo":    "minhash-fnv1a64",
		"assign":  assign,
		"shards":  rows,
	})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	c.mu.RLock()
	objects := c.objects
	version := c.router.Version()
	shs := append([]*shard(nil), c.shards...)
	state := "idle"
	moved, moving := 0, 0
	if c.mig != nil {
		state = "migrating"
		moved, moving = c.mig.moved, len(c.mig.items)
	}
	c.mu.RUnlock()
	healthy := make([]bool, len(shs))
	states := make([]string, len(shs))
	for i, sh := range shs {
		st := sh.breaker.State()
		states[i] = st.String()
		healthy[i] = st != BreakerOpen
	}
	out := map[string]any{
		"objects":                 objects,
		"shards":                  len(shs),
		"route_version":           version,
		"shard_healthy":           healthy,
		"breaker_state":           states,
		"hedges_total":            c.HedgesTotal(),
		"retries_total":           c.retriesTotal.Load(),
		"partial_responses_total": c.partialTotal.Load(),
		"inflight":                c.Sem.InFlight(),
		"reshard_state":           state,
		"reshard_moved":           moved,
		"reshard_moving":          moving,
		"reshard_moved_objects":   c.movedTotal.Load(),
		"dual_read_total":         c.dualReadTotal.Load(),
	}
	if wl := c.log.WAL(); wl != nil {
		out["coordinator_wal_last_seq"] = wl.LastSeq()
		out["coordinator_wal_durable_seq"] = wl.DurableSeq()
		out["coordinator_wal_healthy"] = wl.Err() == nil
		out["coordinator_snapshot_seq"] = c.log.SnapshotSeq()
		out["control_plane_healthy"] = c.controlErr() == nil
	}
	serverutil.WriteJSON(w, out)
}
