// Package serverutil holds the production-hardening building blocks of
// the kjoin HTTP service: the Edge every tier serves through (panic
// recovery, health probes, admission control, the X-Kjoin-Deadline-Ms
// deadline budget, body size caps), JSON request/response helpers and
// Fail, the one structured error mapper, atomic file writes, snapshot
// generations, the durable-log kernel (recovery and snapshot→compact)
// and a background snapshotter. Of the join engine it knows only
// core.InputError, the type Fail maps to a 400, so the shard server and
// the cluster coordinator compose it freely.
package serverutil

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"kjoin/internal/core"
	"kjoin/internal/rng"
)

// Middleware wraps an http.Handler with extra behavior.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares to h: the first middleware is outermost
// (runs first on the way in).
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// ErrorBody is the structured JSON error shape every failure path
// writes: a machine-readable code and a human-readable message.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// WriteError writes a structured JSON error with the given status.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: msg, Code: code})
}

// Fail is the one error mapper every tier answers a failed operation
// through: a *core.InputError is the caller's fault (400
// invalid_input), an expired deadline is 503 timeout, a vanished client
// gets nothing (there is no one to answer), and anything else keeps the
// caller's status and code with the error as its message.
func Fail(w http.ResponseWriter, status int, code string, err error) {
	var ie *core.InputError
	switch {
	case errors.As(err, &ie):
		WriteError(w, http.StatusBadRequest, "invalid_input", ie.Detail)
	case errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusServiceUnavailable, "timeout", "request deadline exceeded")
	case errors.Is(err, context.Canceled):
	default:
		WriteError(w, status, code, err.Error())
	}
}

// WriteJSON writes a success response. ackorder proves no handler
// reaches it with an unsynced WAL append pending.
//
//kjoinlint:ackorder ack
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // headers are already sent; nothing more to do
}

// DecodeJSON parses a JSON request body into v, rejecting unknown
// fields. On failure it writes a structured 400 — distinguishing an
// over-cap body (LimitBody) from malformed JSON — and returns false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var mbe *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &mbe):
		WriteError(w, http.StatusBadRequest, "body_too_large", fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
	default:
		WriteError(w, http.StatusBadRequest, "bad_json", "bad request body: "+err.Error())
	}
	return false
}

// Recover converts a handler panic into a 500 response instead of
// killing the process (net/http would only kill the goroutine, but a
// shared-nothing 500 with a logged stack beats a hung client and a
// half-written body). logf may be nil.
func Recover(logf func(format string, args ...any)) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					if v == http.ErrAbortHandler {
						panic(v) // deliberate connection abort; let net/http handle it
					}
					if logf != nil {
						logf("panic serving %s %s: %v", r.Method, r.URL.Path, v)
					}
					// Best effort: if the handler already wrote headers
					// this is a no-op superfluous-WriteHeader.
					WriteError(w, http.StatusInternalServerError, "internal_panic", "internal server error")
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// Semaphore is a bounded-concurrency admission gate.
type Semaphore struct {
	ch chan struct{}
}

// NewSemaphore returns a semaphore admitting at most n concurrent
// holders. n <= 0 panics — an unlimited gate is spelled by not using one.
func NewSemaphore(n int) *Semaphore {
	if n <= 0 {
		panic("serverutil: semaphore size must be positive")
	}
	return &Semaphore{ch: make(chan struct{}, n)}
}

// TryAcquire takes a slot if one is free, without blocking.
func (s *Semaphore) TryAcquire() bool {
	select {
	case s.ch <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot.
func (s *Semaphore) Release() { <-s.ch }

// InFlight returns the number of held slots.
func (s *Semaphore) InFlight() int { return len(s.ch) }

// Admit rejects requests with 429 + Retry-After when the semaphore is
// saturated, instead of queueing them unboundedly. Load-shedding at the
// door keeps latency bounded for the requests that are admitted. The
// Retry-After value is jittered uniformly over 1–3 whole seconds: a
// fixed value would tell every shed client to come back at the same
// instant, converting one overload spike into a synchronized retry herd
// that recreates it. seed makes the jitter sequence deterministic for
// tests.
func Admit(sem *Semaphore, seed uint64) Middleware {
	var mu sync.Mutex
	r := rng.New(seed)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if !sem.TryAcquire() {
				mu.Lock()
				secs := 1 + r.Intn(3)
				mu.Unlock()
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				WriteError(w, http.StatusTooManyRequests, "saturated", "server is at capacity; retry later")
				return
			}
			defer sem.Release()
			next.ServeHTTP(w, req)
		})
	}
}

// LimitBody caps the request body at n bytes via http.MaxBytesReader;
// reads past the cap fail with *http.MaxBytesError, which the server
// maps to a structured 400.
func LimitBody(n int64) Middleware {
	return func(next http.Handler) http.Handler {
		if n <= 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Body = http.MaxBytesReader(w, r.Body, n)
			next.ServeHTTP(w, r)
		})
	}
}
