package serverutil

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// HeaderDeadlineMs shrinks a request's deadline budget below the tier's
// RequestTimeout (whole milliseconds; it can never grow it). Every tier
// honours it on the way in, and the outbound shard call forwards the
// remaining budget in it, so a shard stops when its caller gives up.
const HeaderDeadlineMs = "X-Kjoin-Deadline-Ms"

// Limits bounds what one request, or a burst of them, may consume at an
// Edge. A zero field selects the default documented on it.
type Limits struct {
	// MaxBodyBytes caps a request body (default 1 MiB). Oversized bodies
	// fail with a structured 400 (code "body_too_large").
	MaxBodyBytes int64
	// MaxInflight bounds concurrently executing limited requests (default
	// 64); excess requests are shed with 429 + Retry-After.
	MaxInflight int
	// RequestTimeout is the per-request deadline budget (default 30s); an
	// X-Kjoin-Deadline-Ms header may shrink it.
	RequestTimeout time.Duration
	// Seed seeds the deterministic Retry-After jitter (default 1).
	Seed uint64
	// Logf, when set, receives recovered panics.
	Logf func(format string, args ...any)
}

// Edge is the HTTP edge every kjoin tier — shard server, read replica and
// coordinator — serves through: panic recovery around everything, the
// /healthz and /readyz probes, and Limited, the protection stack for
// expensive endpoints. An Edge starts ready; a tier that must rebuild
// state before serving flips it with SetReady.
type Edge struct {
	Limits // defaults applied
	// Sem is the admission gate Limited sheds at.
	Sem *Semaphore

	ready, draining atomic.Bool
}

// NewEdge returns a ready edge enforcing l.
func NewEdge(l Limits) *Edge {
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = 1 << 20
	}
	if l.MaxInflight <= 0 {
		l.MaxInflight = 64
	}
	if l.RequestTimeout <= 0 {
		l.RequestTimeout = 30 * time.Second
	}
	if l.Seed == 0 {
		l.Seed = 1
	}
	e := &Edge{Limits: l, Sem: NewSemaphore(l.MaxInflight)}
	e.ready.Store(true)
	return e
}

// SetReady flips the ready gate: while it is down, /readyz and every
// gated endpoint answer 503 "recovering".
func (e *Edge) SetReady(v bool) { e.ready.Store(v) }

// SetDraining flips the readiness probe: a draining tier answers /readyz
// with 503 so load balancers stop routing new traffic while in-flight
// requests finish. Serving itself is not affected.
func (e *Edge) SetDraining(v bool) { e.draining.Store(v) }

// Handler registers the probes on mux and wraps it in panic recovery.
func (e *Edge) Handler(mux *http.ServeMux) http.Handler {
	mux.HandleFunc("GET /healthz", e.probe)
	mux.HandleFunc("GET /readyz", e.probe)
	return Recover(e.Logf)(mux)
}

// probe serves /healthz (liveness: the process is up and serving) and
// /readyz (readiness: whether new traffic should be routed here).
func (e *Edge) probe(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		WriteJSON(w, map[string]string{"status": "ok"})
	case !e.ready.Load():
		WriteError(w, http.StatusServiceUnavailable, "recovering", "index recovery in progress")
	case e.draining.Load():
		WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining")
	default:
		WriteJSON(w, map[string]string{"status": "ready"})
	}
}

// Gate refuses requests with 503 "recovering" until the edge is ready:
// nothing runs against a half-rebuilt index.
func (e *Edge) Gate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !e.ready.Load() {
			WriteError(w, http.StatusServiceUnavailable, "recovering", "index recovery in progress")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Limited wraps an expensive endpoint in the full protection stack: the
// ready gate outermost, then admission control (shed before spending
// anything), then the deadline budget, then the body cap.
func (e *Edge) Limited(h http.Handler) http.Handler {
	return Chain(h, e.Gate, Admit(e.Sem, e.Seed), e.deadline, LimitBody(e.MaxBodyBytes))
}

// deadline attaches the request's deadline budget: RequestTimeout,
// shrunk by an X-Kjoin-Deadline-Ms header when the caller wants a
// tighter bound. Handlers that thread the context into the join engine
// or a shard call abort when it expires. The header is compared in
// milliseconds before it is converted, so a huge value cannot overflow
// into an already-expired budget.
func (e *Edge) deadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := e.RequestTimeout
		if h := r.Header.Get(HeaderDeadlineMs); h != "" {
			ms, err := strconv.ParseInt(h, 10, 64)
			if err != nil || ms <= 0 {
				WriteError(w, http.StatusBadRequest, "bad_deadline",
					fmt.Sprintf("%s must be a positive integer, got %q", HeaderDeadlineMs, h))
				return
			}
			if ms < d.Milliseconds() {
				d = time.Duration(ms) * time.Millisecond
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
