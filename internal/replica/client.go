package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kjoin/internal/rng"
	"kjoin/internal/server"
	"kjoin/internal/serverutil"
)

// Match is one similarity-query result.
type Match struct {
	Index int     `json:"index"`
	Sim   float64 `json:"sim"`
}

// Result is a fail-over request's answer plus where it came from.
type Result struct {
	// Matches holds a Query's answer (nil for Similarity).
	Matches []Match
	// Sim holds a Similarity call's answer (zero for Query).
	Sim float64
	// Endpoint is the base URL that answered.
	Endpoint string
	// LagMS is the answering replica's advertised staleness in
	// milliseconds; -1 when unknown (e.g. the primary answered).
	LagMS int64
}

// StatusError is a non-success HTTP answer from one endpoint. It
// carries any Retry-After the server sent on a 429 or 503, so the
// caller's backoff can honor the server's own schedule instead of
// hammering an endpoint that just said how long it needs.
type StatusError struct {
	Endpoint string
	Status   int
	// RetryAfter is the server's requested pause (zero when none was
	// sent or the status carries none).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("replica: %s answered %d (retry after %v)", e.Endpoint, e.Status, e.RetryAfter)
	}
	return fmt.Sprintf("replica: %s answered %d", e.Endpoint, e.Status)
}

// retryAfterOf extracts the server-requested pause from an endpoint
// error chain (zero when there is none).
func retryAfterOf(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// Client routes similarity queries across a primary and its read
// replicas: each attempt gets its own deadline, replicas are tried in
// rotating order with jittered backoff between endpoints, and a replica
// try that fails or dawdles is hedged with a concurrent request to the
// primary — the read stays fast even while a replica is down, stalled
// or too stale to serve.
type Client struct {
	// Primary is the primary's base URL (required; last resort for reads
	// and the hedge target).
	Primary string
	// Replicas are the read replicas' base URLs (may be empty — then
	// every read goes straight to the primary).
	Replicas []string
	// HTTP is the transport (nil → http.DefaultClient).
	HTTP *http.Client
	// TryTimeout bounds one endpoint attempt, hedge included (default 2s).
	TryTimeout time.Duration
	// HedgeDelay is how long a replica attempt may run before a
	// concurrent hedge request is sent to the primary (default
	// TryTimeout/4). The first success wins.
	HedgeDelay time.Duration
	// BackoffMin/BackoffMax bound the jittered pause between endpoint
	// attempts within one Query call (defaults 10ms / 250ms). A 429/503
	// Retry-After from the previous endpoint raises the pause to at
	// least what the server asked for.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed makes rotation and jitter deterministic (default 1).
	Seed uint64

	mu   sync.Mutex
	r    *rng.RNG // guarded by mu
	next int      // guarded by mu; round-robin start offset

	// hedges counts hedge requests launched, for the coordinator's
	// hedges_total statistic.
	hedges atomic.Int64
}

// HedgeCount returns how many hedge requests this client has launched.
func (c *Client) HedgeCount() int64 { return c.hedges.Load() }

func (c *Client) tryTimeout() time.Duration {
	if c.TryTimeout > 0 {
		return c.TryTimeout
	}
	return 2 * time.Second
}

func (c *Client) hedgeDelay() time.Duration {
	if c.HedgeDelay > 0 {
		return c.HedgeDelay
	}
	return c.tryTimeout() / 4
}

// order returns this call's endpoint sequence: replicas rotated by a
// round-robin counter (so load spreads across them), primary last.
func (c *Client) order() []string {
	c.mu.Lock()
	start := c.next
	if len(c.Replicas) > 0 {
		c.next = (c.next + 1) % len(c.Replicas)
	}
	c.mu.Unlock()
	eps := make([]string, 0, len(c.Replicas)+1)
	for i := range c.Replicas {
		eps = append(eps, c.Replicas[(start+i)%len(c.Replicas)])
	}
	return append(eps, c.Primary)
}

// jitter returns a deterministic pause in [min, max].
func (c *Client) jitter(min, max time.Duration) time.Duration {
	if min <= 0 {
		min = 10 * time.Millisecond
	}
	if max < min {
		max = 250 * time.Millisecond
		if max < min {
			max = min
		}
	}
	c.mu.Lock()
	if c.r == nil {
		seed := c.Seed
		if seed == 0 {
			seed = 1
		}
		c.r = rng.New(seed)
	}
	d := min + time.Duration(c.r.Float64()*float64(max-min))
	c.mu.Unlock()
	return d
}

// Query runs one similarity query with fail-over: every endpoint gets a
// bounded attempt (replica attempts hedged to the primary), and the
// first success anywhere is the answer. It returns the last error only
// after every endpoint has failed.
func (c *Client) Query(ctx context.Context, tokens []string) (*Result, error) {
	return c.run(ctx, func(tctx context.Context, ep string) (*Result, error) {
		return c.tryQuery(tctx, ep, tokens)
	})
}

// Similarity scores one pair of objects with the same fail-over and
// hedging as Query. Any endpoint can answer: /similarity is stateless
// over the shared hierarchy, so replicas serve it without a staleness
// gate.
func (c *Client) Similarity(ctx context.Context, x, y []string) (*Result, error) {
	return c.run(ctx, func(tctx context.Context, ep string) (*Result, error) {
		return c.trySimilarity(tctx, ep, x, y)
	})
}

// run drives one request across the endpoint order: a bounded, hedged
// attempt per endpoint, jittered backoff between endpoints (raised to a
// previous endpoint's Retry-After when one was sent), first success
// wins.
func (c *Client) run(ctx context.Context, try func(context.Context, string) (*Result, error)) (*Result, error) {
	if c.Primary == "" {
		return nil, errors.New("replica: client has no primary endpoint")
	}
	var lastErr error
	var floor time.Duration // Retry-After from the previous endpoint
	for i, ep := range c.order() {
		if i > 0 {
			d := c.jitter(c.BackoffMin, c.BackoffMax)
			if floor > d {
				// The server scheduled our next attempt itself; honoring it
				// beats retrying into the very saturation it reported. The
				// context still bounds the wait.
				d = floor
			}
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		res, err := c.tryHedged(ctx, ep, try)
		if err == nil {
			return res, nil
		}
		lastErr = err
		floor = retryAfterOf(err)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("replica: every endpoint failed: %w", lastErr)
}

// tryHedged attempts one endpoint under the per-try deadline. When the
// endpoint is a replica, a hedge request to the primary launches after
// HedgeDelay (or immediately when the replica errors out fast); the
// first success wins and the loser is cancelled with the shared try
// context.
func (c *Client) tryHedged(ctx context.Context, ep string, try func(context.Context, string) (*Result, error)) (*Result, error) {
	tctx, cancel := context.WithTimeout(ctx, c.tryTimeout())
	defer cancel()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 2)
	launch := func(target string) {
		go func() {
			res, err := try(tctx, target)
			ch <- outcome{res, err}
		}()
	}
	launch(ep)
	pending := 1
	hedged := ep == c.Primary // nothing to hedge with when ep is the primary
	var timer *time.Timer
	var hedgeC <-chan time.Time
	if !hedged {
		timer = time.NewTimer(c.hedgeDelay())
		defer timer.Stop()
		hedgeC = timer.C
	}
	var lastErr error
	for pending > 0 {
		select {
		case out := <-ch:
			pending--
			if out.err == nil {
				return out.res, nil
			}
			lastErr = out.err
			if !hedged {
				// The replica failed outright; hedge immediately rather than
				// waiting out the delay.
				hedged = true
				c.hedges.Add(1)
				launch(c.Primary)
				pending++
			}
		case <-hedgeC:
			hedgeC = nil
			if !hedged {
				hedged = true
				c.hedges.Add(1)
				launch(c.Primary)
				pending++
			}
		case <-tctx.Done():
			if lastErr == nil {
				lastErr = tctx.Err()
			}
			return nil, fmt.Errorf("replica: try %s: %w", ep, lastErr)
		}
	}
	return nil, fmt.Errorf("replica: try %s: %w", ep, lastErr)
}

// maxResponseBytes caps the JSON body Call decodes from one endpoint.
const maxResponseBytes = 64 << 20

// Call is the one outbound JSON call to a kjoin tier. It marshals in as
// the request body (nil sends none), forwards ctx's remaining budget as
// X-Kjoin-Deadline-Ms (rounded up to whole milliseconds, at least 1) so
// the callee gives up when the caller does, turns a non-200 into a
// *StatusError carrying any Retry-After sent with a 429 or 503, and
// decodes a 200 into out under maxResponseBytes. The body is always
// drained and closed so the connection is reused. hc nil means
// http.DefaultClient.
func Call(ctx context.Context, hc *http.Client, method, ep, path string, in, out any) (http.Header, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, ep+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if d, ok := ctx.Deadline(); ok {
		ms := max((time.Until(d)+time.Millisecond-1)/time.Millisecond, 1)
		req.Header.Set(serverutil.HeaderDeadlineMs, strconv.FormatInt(int64(ms), 10))
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Endpoint: ep, Status: resp.StatusCode}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
				se.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, se
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResponseBytes)).Decode(out); err != nil {
		return nil, fmt.Errorf("replica: %s%s: bad response body: %w", ep, path, err)
	}
	return resp.Header, nil
}

// tryQuery runs one POST /query against one endpoint.
func (c *Client) tryQuery(ctx context.Context, ep string, tokens []string) (*Result, error) {
	var out struct {
		Matches []Match `json:"matches"`
	}
	hdr, err := Call(ctx, c.HTTP, http.MethodPost, ep, "/query", map[string]any{"tokens": tokens}, &out)
	if err != nil {
		return nil, err
	}
	lag := int64(-1)
	if h := hdr.Get(server.HeaderReplicaLag); h != "" {
		if ms, perr := strconv.ParseInt(h, 10, 64); perr == nil {
			lag = ms
		}
	}
	return &Result{Matches: out.Matches, Endpoint: ep, LagMS: lag}, nil
}

// trySimilarity runs one POST /similarity against one endpoint.
func (c *Client) trySimilarity(ctx context.Context, ep string, x, y []string) (*Result, error) {
	var out struct {
		Sim float64 `json:"sim"`
	}
	if _, err := Call(ctx, c.HTTP, http.MethodPost, ep, "/similarity", map[string]any{"x": x, "y": y}, &out); err != nil {
		return nil, err
	}
	return &Result{Sim: out.Sim, Endpoint: ep, LagMS: -1}, nil
}
