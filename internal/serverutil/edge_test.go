package serverutil

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kjoin/internal/core"
)

// TestEdgeDeadlineHeaderShrinksNeverGrows: X-Kjoin-Deadline-Ms may only
// shrink the budget. Values at or past RequestTimeout — including ones
// whose nanosecond conversion would overflow int64 — leave it in force,
// and a malformed or non-positive value is a 400 bad_deadline that never
// reaches the handler.
func TestEdgeDeadlineHeaderShrinksNeverGrows(t *testing.T) {
	const timeout = 20 * time.Second
	e := NewEdge(Limits{RequestTimeout: timeout})
	cases := []struct {
		hdr    string
		status int
		budget time.Duration // the deadline the handler must see
	}{
		{"500", http.StatusOK, 500 * time.Millisecond},
		{"20000", http.StatusOK, timeout},
		{"20001", http.StatusOK, timeout},
		{"10000000000000", http.StatusOK, timeout},
		{"9223372036854775807", http.StatusOK, timeout},
		{"0", http.StatusBadRequest, 0},
		{"-1", http.StatusBadRequest, 0},
		{"abc", http.StatusBadRequest, 0},
		{"99999999999999999999", http.StatusBadRequest, 0},
	}
	for _, tc := range cases {
		var left time.Duration
		called := false
		h := e.Limited(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			called = true
			dl, _ := r.Context().Deadline()
			left = time.Until(dl)
			if r.Context().Err() != nil {
				WriteError(w, http.StatusServiceUnavailable, "timeout", "expired on arrival")
			}
		}))
		req := httptest.NewRequest("POST", "/query", nil)
		req.Header.Set(HeaderDeadlineMs, tc.hdr)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Fatalf("header %q: status %d, want %d: %s", tc.hdr, rec.Code, tc.status, rec.Body)
		}
		if tc.status == http.StatusBadRequest {
			var body ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Code != "bad_deadline" {
				t.Fatalf("header %q: body %s, want code bad_deadline", tc.hdr, rec.Body)
			}
			if called {
				t.Fatalf("header %q: a rejected request reached the handler", tc.hdr)
			}
			continue
		}
		if left > tc.budget || left < tc.budget-time.Second {
			t.Errorf("header %q: handler saw %v left, want just under %v", tc.hdr, left, tc.budget)
		}
	}
}

// TestEdgeProbesAndReadyGate: /healthz answers while the edge is not
// ready or draining; /readyz and gated endpoints report why not.
func TestEdgeProbesAndReadyGate(t *testing.T) {
	e := NewEdge(Limits{})
	mux := http.NewServeMux()
	mux.Handle("GET /work", e.Limited(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, map[string]string{"done": "yes"})
	})))
	h := e.Handler(mux)
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var body ErrorBody
		_ = json.Unmarshal(rec.Body.Bytes(), &body)
		return rec.Code, body.Code
	}
	for _, st := range []struct {
		ready, draining bool
		readyz, work    int
		code            string
	}{
		{true, false, http.StatusOK, http.StatusOK, ""},
		{false, false, http.StatusServiceUnavailable, http.StatusServiceUnavailable, "recovering"},
		{true, true, http.StatusServiceUnavailable, http.StatusOK, "draining"},
	} {
		e.SetReady(st.ready)
		e.SetDraining(st.draining)
		if code, _ := get("/healthz"); code != http.StatusOK {
			t.Errorf("%+v: /healthz %d, want 200", st, code)
		}
		if code, ec := get("/readyz"); code != st.readyz || ec != st.code {
			t.Errorf("%+v: /readyz %d %q, want %d %q", st, code, ec, st.readyz, st.code)
		}
		if code, _ := get("/work"); code != st.work {
			t.Errorf("%+v: gated endpoint %d, want %d", st, code, st.work)
		}
	}
}

// TestFailMapsErrors pins the one error mapper: input errors are the
// caller's 400, an expired deadline is 503 timeout wherever it is
// wrapped, a cancelled request gets no answer, and the rest keeps the
// caller's status and code.
func TestFailMapsErrors(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("shard: %w", &core.InputError{Reason: "empty_object", Detail: "object has no tokens"}), http.StatusBadRequest, "invalid_input"},
		{fmt.Errorf("every shard failed: %w", context.DeadlineExceeded), http.StatusServiceUnavailable, "timeout"},
		{errors.New("disk on fire"), http.StatusInternalServerError, "wal_failed"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		Fail(rec, http.StatusInternalServerError, "wal_failed", tc.err)
		var body ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%v: body %q is not structured JSON", tc.err, rec.Body)
		}
		if rec.Code != tc.status || body.Code != tc.code {
			t.Errorf("%v: %d %q, want %d %q", tc.err, rec.Code, body.Code, tc.status, tc.code)
		}
	}
	rec := httptest.NewRecorder()
	Fail(rec, http.StatusInternalServerError, "internal", fmt.Errorf("query: %w", context.Canceled))
	if rec.Body.Len() != 0 {
		t.Errorf("cancelled request was answered: %s", rec.Body)
	}
}
