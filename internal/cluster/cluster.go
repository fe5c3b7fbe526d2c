// Package cluster is the scatter-gather coordinator over a set of
// kjoin shard servers. Objects are partitioned across shards by a
// min-hash router (similar objects co-locate with probability about
// their Jaccard overlap, so most prefix-filter candidates are found by
// the home shard itself); queries and joins scatter to every shard and
// gather deterministically, bit-identical to a single-node server on
// full coverage.
//
// The coordinator is built to degrade instead of amplify: a
// per-request deadline budget is split into per-shard deadlines with
// slack reserved for the merge; shard attempts retry with jittered
// backoff under a cluster-wide retry budget (a token bucket — when a
// shard melts down, retries are shed rather than multiplied into a
// storm); each shard hides behind a circuit breaker
// (closed/open/half-open with a single probe) and a fail-over
// replica.Client that hedges slow primaries and falls back to
// replicas; and a per-request partial-result policy decides whether
// missing shards fail the request (503 naming the failed shards) or
// degrade it (200 with X-Kjoin-Coverage and the skipped shard list).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kjoin/internal/replica"
	"kjoin/internal/rng"
	"kjoin/internal/serverutil"
)

// Partial-result policies: how a gather with failed shards answers.
const (
	// PartialFail turns any missed shard into a 503 naming the failed
	// shard set — for callers that need exact answers or nothing.
	PartialFail = "fail"
	// PartialDegrade answers 200 from the shards that responded, with
	// X-Kjoin-Coverage and X-Kjoin-Skipped-Shards declaring the gap —
	// for callers that prefer a partial answer now over none.
	PartialDegrade = "degrade"
)

// ShardConfig names one shard: its primary and any read replicas the
// fail-over client may use.
type ShardConfig struct {
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
}

// Config tunes the coordinator. The zero value of every field selects
// the default documented on it.
type Config struct {
	// Shards is the fixed shard set (required, at least one).
	Shards []ShardConfig
	// RequestTimeout is the whole-request deadline budget (default 30s).
	// A request may shrink its own budget with an X-Kjoin-Deadline-Ms
	// header; it cannot grow it.
	RequestTimeout time.Duration
	// ShardTimeout caps one shard attempt (default 2s). The effective
	// per-shard deadline is min(ShardTimeout, remaining request budget
	// minus MergeSlack).
	ShardTimeout time.Duration
	// MergeSlack is the tail of the request budget reserved for the
	// gather merge after the slowest shard answers (default 25ms).
	MergeSlack time.Duration
	// HedgeDelay is how long a shard's replica attempt may run before
	// the fail-over client hedges the primary (default 100ms).
	HedgeDelay time.Duration
	// MaxRetries bounds retries per shard per request (default 1).
	MaxRetries int
	// RetryBudget is the retry token bucket's capacity (default 10);
	// RetryBudgetEarn is the fraction of a token earned per first
	// attempt (default 0.1). Retries spend one token each, so sustained
	// failure sheds retries at ~RetryBudgetEarn per request.
	RetryBudget     float64
	RetryBudgetEarn float64
	// RetryBackoffMin/Max bound the jittered pause before a retry
	// (defaults 5ms / 50ms).
	RetryBackoffMin time.Duration
	RetryBackoffMax time.Duration
	// BreakerThreshold opens a shard's breaker after that many
	// consecutive failures (default 3); BreakerCooldown is how long it
	// stays open before admitting a half-open probe (default 3s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Partial is the default partial-result policy (PartialDegrade);
	// requests override it with an X-Kjoin-Partial header.
	Partial string
	// MaxBodyBytes caps a request body (default 1 MiB); MaxInflight
	// bounds concurrently executing requests (default 64). These, the
	// RequestTimeout, Seed and Logf configure the serverutil.Edge.
	MaxBodyBytes int64
	MaxInflight  int
	// MoveThrottle, when positive, pauses the reshard mover between
	// objects so a migration trickles instead of saturating the fleet.
	MoveThrottle time.Duration
	// Seed makes retry jitter deterministic (default 1).
	Seed uint64
	// HTTP overrides the transport for every shard call (nil →
	// http.DefaultClient); chaos tests inject a faulty dialer here.
	HTTP *http.Client
	// Logf, when set, receives recovered panics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 2 * time.Second
	}
	if c.MergeSlack == 0 {
		c.MergeSlack = 25 * time.Millisecond
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 100 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 1
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 10
	}
	if c.RetryBudgetEarn == 0 {
		c.RetryBudgetEarn = 0.1
	}
	if c.RetryBackoffMin == 0 {
		c.RetryBackoffMin = 5 * time.Millisecond
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = 50 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 3 * time.Second
	}
	if c.Partial == "" {
		c.Partial = PartialDegrade
	}
	return c
}

// shard is one shard's client-side state. The stable index id never
// changes once assigned: resharding appends new shards and retires old
// ones from the route table, but an index keeps naming the same
// endpoint forever (toGlobal rows, WAL records and snapshots all speak
// stable indices).
type shard struct {
	id      int
	cfg     ShardConfig
	client  *replica.Client
	breaker *Breaker
}

// objLoc is where one global object currently lives.
type objLoc struct {
	shard int // stable shard index
	local int // shard-local id
}

// Coordinator is an http.Handler fronting the shard fleet. It owns the
// global id space: every accepted object gets the id a single-node
// server would have assigned it, and gathers translate shard-local
// match indices back through that mapping, which is what makes cluster
// answers comparable (and on full coverage bit-identical) to one node.
//
// With durability configured (Recover), every id assignment and route
// change is a typed record in a coordinator WAL, fsync'd before the add
// is acknowledged, so a killed-and-restarted coordinator answers
// bit-identically to one that never died.
type Coordinator struct {
	// Edge is the shared HTTP edge: probes, admission, deadlines and body
	// caps. Recovery runs before the listener starts, so it is always ready.
	*serverutil.Edge
	cfg     Config
	budget  *retryBudget
	handler http.Handler

	// addMu serializes cluster adds end-to-end (home-shard add, global
	// id assignment, cross-shard pair discovery) and every reshard
	// transition and object move: insertion order is global-id order, an
	// add's discovery sweep sees exactly the objects with smaller ids —
	// the single-node add's invariant — and the coordinator WAL holds at
	// most one unresolved intent record at any moment, which is what
	// makes crash recovery's tail resolution unambiguous.
	//kjoinlint:lockorder rank=12
	addMu sync.Mutex

	//kjoinlint:lockorder rank=14
	mu sync.RWMutex
	// shards is the full fleet, append-only, indexed by stable shard
	// index. Guarded by mu for append (reshard begin); the *shard values
	// are immutable.
	shards []*shard
	// router is the current route table; replaced whole (never mutated)
	// at every reshard transition. Guarded by mu.
	router *Router
	// toGlobal maps each shard's local ids to global ids, in local-id
	// order. A tombstone (the copy retired by a reshard finalize or
	// abort) is stored as -1-g, which no gather can emit. Guarded by mu;
	// written under addMu+mu, read under mu.
	toGlobal [][]int
	// live counts each shard's non-tombstoned entries; a shard with live
	// objects stays in the gather set even when the route table no
	// longer assigns it anything. Guarded by mu.
	live []int
	// homeOf maps each global id to its current authoritative location
	// (the source copy until a migration finalizes). Guarded by mu.
	homeOf  []objLoc
	objects int // guarded by mu; next global id
	// mig is the in-flight migration, nil when idle. Guarded by mu.
	mig *migration

	// log is the durable control-plane state (nil on a non-durable
	// coordinator): the coordinator WAL bound to its snapshot
	// generations. Set once by Recover before the coordinator is shared.
	log *serverutil.Log

	// jmu guards the retry-jitter RNG (leaf lock).
	//kjoinlint:lockorder rank=18
	jmu sync.Mutex
	jr  *rng.RNG // guarded by jmu

	rr            atomic.Int64 // round-robin cursor for /similarity
	retriesTotal  atomic.Int64
	partialTotal  atomic.Int64
	dualReadTotal atomic.Int64 // gathers served during a dual-read window
	movedTotal    atomic.Int64 // objects moved by resharding, cumulative

	// closed stops the reshard mover; moverWG joins it on Close.
	closeOnce sync.Once
	closed    chan struct{}
	moverWG   sync.WaitGroup

	// ctrlFailed latches a control-plane invariant violation (shard
	// drift, an intent the log can never close): once set, adds and
	// reshard transitions fail fast instead of appending records after a
	// state the log cannot vouch for. Cleared only by restart (recovery
	// re-derives the truth from the log).
	ctrlFailed atomic.Pointer[ctrlFailure]
}

// ctrlFailure wraps the latched control-plane error.
type ctrlFailure struct{ err error }

// newShard builds one shard's client-side state for stable index id.
func (c *Coordinator) newShard(id int, sc ShardConfig) *shard {
	return &shard{
		id:  id,
		cfg: sc,
		client: &replica.Client{
			Primary:    sc.Primary,
			Replicas:   sc.Replicas,
			HTTP:       c.cfg.HTTP,
			TryTimeout: c.cfg.ShardTimeout,
			HedgeDelay: c.cfg.HedgeDelay,
			Seed:       c.Edge.Seed + uint64(id) + 1,
		},
		breaker: NewBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown),
	}
}

// New returns a non-durable coordinator over the configured shard
// fleet: the id map and route table live only in memory, and resharding
// (which needs durable progress records) is refused. Use Recover for a
// crash-safe control plane.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one shard is required")
	}
	if cfg.Partial != PartialFail && cfg.Partial != PartialDegrade {
		return nil, fmt.Errorf("cluster: unknown partial policy %q", cfg.Partial)
	}
	e := serverutil.NewEdge(serverutil.Limits{MaxBodyBytes: cfg.MaxBodyBytes, MaxInflight: cfg.MaxInflight,
		RequestTimeout: cfg.RequestTimeout, Seed: cfg.Seed, Logf: cfg.Logf})
	c := &Coordinator{
		Edge:     e,
		cfg:      cfg,
		router:   NewRouter(len(cfg.Shards)),
		budget:   newRetryBudget(cfg.RetryBudget, cfg.RetryBudgetEarn),
		toGlobal: make([][]int, len(cfg.Shards)),
		live:     make([]int, len(cfg.Shards)),
		jr:       rng.New(e.Seed),
		closed:   make(chan struct{}),
	}
	for i, sc := range cfg.Shards {
		if sc.Primary == "" {
			return nil, fmt.Errorf("cluster: shard %d has no primary", i)
		}
		c.shards = append(c.shards, c.newShard(i, sc))
	}
	c.handler = c.mux()
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.handler.ServeHTTP(w, r)
}

// Close stops the reshard mover (waiting for it to exit) and closes the
// coordinator WAL. The coordinator keeps serving reads afterwards; adds
// on a durable coordinator fail once the log is closed.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	c.moverWG.Wait()
	if c.log == nil {
		return nil
	}
	return c.log.WAL().Close()
}

// gatherTargets returns the stable indices a gather must scatter to —
// every shard the route table assigns plus every shard still holding
// live objects (during a dual-read window that is both the old and new
// homes of the moving set; after an aborted shrink it keeps stranded
// adds reachable) — and whether a migration made the set a dual-read
// union.
func (c *Coordinator) gatherTargets() (targets []int, dual bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gatherTargetsLocked()
}

// gatherTargetsLocked is gatherTargets under a held c.mu.
func (c *Coordinator) gatherTargetsLocked() (targets []int, dual bool) {
	in := make([]bool, len(c.shards))
	for _, s := range c.router.assign {
		in[s] = true
	}
	if c.mig != nil {
		dual = true
		for _, s := range c.mig.oldAssign {
			in[s] = true
		}
	}
	for s, n := range c.live {
		if n > 0 {
			in[s] = true
		}
	}
	for s, ok := range in {
		if ok {
			targets = append(targets, s)
		}
	}
	return targets, dual
}

// errBreakerOpen is a shard attempt rejected at the breaker without
// touching the network.
var errBreakerOpen = errors.New("cluster: circuit breaker open")

// jitterBackoff returns a deterministic retry pause in
// [RetryBackoffMin, RetryBackoffMax].
func (c *Coordinator) jitterBackoff() time.Duration {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	span := c.cfg.RetryBackoffMax - c.cfg.RetryBackoffMin
	return c.cfg.RetryBackoffMin + time.Duration(c.jr.Float64()*float64(span))
}

// callShard runs one logical shard request with the full robustness
// stack: breaker admission, a per-attempt deadline carved from the
// request budget, bounded retries under the cluster retry budget with
// jittered backoff. call receives a context already bounded by the
// per-shard deadline. An abort caused by the parent request's own
// deadline is forgiven, not charged to the shard's breaker.
func callShard[T any](c *Coordinator, ctx context.Context, sh *shard, call func(context.Context, *replica.Client) (T, error)) (T, error) {
	var zero T
	c.budget.onAttempt()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !sh.breaker.Allow() {
			if lastErr != nil {
				return zero, lastErr
			}
			return zero, errBreakerOpen
		}
		sctx, cancel := context.WithTimeout(ctx, shardDeadline(ctx, c.cfg.ShardTimeout, c.cfg.MergeSlack))
		res, err := call(sctx, sh.client)
		cancel()
		if err == nil {
			sh.breaker.Success()
			return res, nil
		}
		if ctx.Err() != nil {
			// The request's own budget expired mid-attempt; the shard may
			// be perfectly healthy.
			sh.breaker.Forgive()
			return zero, ctx.Err()
		}
		lastErr = err
		// Classify before charging the breaker: a 4xx is the caller's
		// input refused by a healthy shard (no charge, no retry), a 429 is
		// a live shard shedding load (no charge, retryable, honoring its
		// Retry-After), and only the rest is evidence the shard is broken.
		var retryFloor time.Duration
		if se := statusErrOf(err); se != nil && se.Status >= 400 && se.Status < 500 {
			sh.breaker.Forgive()
			if se.Status != http.StatusTooManyRequests {
				return zero, lastErr
			}
			retryFloor = se.RetryAfter
		} else {
			sh.breaker.Failure()
		}
		if attempt >= c.cfg.MaxRetries || !c.budget.spend() {
			return zero, lastErr
		}
		c.retriesTotal.Add(1)
		d := c.jitterBackoff()
		if retryFloor > d {
			d = retryFloor
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return zero, ctx.Err()
		case <-t.C:
		}
	}
}

// shardResult is one shard's gathered outcome.
type shardResult[T any] struct {
	val T
	err error
}

// scatter fans call out to the target shards concurrently and gathers
// every outcome, indexed by position in targets (targets[i] is the
// stable shard index outs[i] came from). The goroutines are joined
// before return — a coordinator deadline expiring mid-gather still
// waits for each shard call to observe its context and exit, so
// nothing leaks.
func scatter[T any](c *Coordinator, ctx context.Context, targets []int, call func(ctx context.Context, shardID int, cl *replica.Client) (T, error)) []shardResult[T] {
	c.mu.RLock()
	shs := make([]*shard, len(targets))
	for i, id := range targets {
		shs[i] = c.shards[id]
	}
	c.mu.RUnlock()
	outs := make([]shardResult[T], len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			val, err := callShard(c, ctx, sh, func(sctx context.Context, cl *replica.Client) (T, error) {
				return call(sctx, sh.id, cl)
			})
			outs[i] = shardResult[T]{val: val, err: err}
		}(i, shs[i])
	}
	wg.Wait()
	return outs
}

// NumShards reports the current fleet size — the durable fleet after
// recovery or resharding, which may differ from the configured one.
func (c *Coordinator) NumShards() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.shards)
}

// HedgesTotal sums hedge requests across every shard's fail-over
// client.
func (c *Coordinator) HedgesTotal() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, sh := range c.shards {
		n += sh.client.HedgeCount()
	}
	return n
}
