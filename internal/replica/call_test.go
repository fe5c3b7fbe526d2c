package replica

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"kjoin/internal/serverutil"
)

// TestCallForwardsDeadlineAndStatus pins the one outbound call: the
// caller's remaining budget travels as X-Kjoin-Deadline-Ms (whole
// milliseconds, never above the budget, absent without a deadline), a
// JSON body is sent only when there is one, a 429 or 503 carries its
// Retry-After into the *StatusError, and other failures carry none.
func TestCallForwardsDeadlineAndStatus(t *testing.T) {
	var gotHdr, gotType string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHdr, gotType = r.Header.Get(serverutil.HeaderDeadlineMs), r.Header.Get("Content-Type")
		switch r.URL.Path {
		case "/shed":
			w.Header().Set("Retry-After", "2")
			serverutil.WriteError(w, http.StatusTooManyRequests, "saturated", "busy")
		case "/gone":
			w.Header().Set("Retry-After", "2")
			serverutil.WriteError(w, http.StatusNotFound, "unknown_object", "no such object")
		default:
			serverutil.WriteJSON(w, map[string]int{"objects": 3})
		}
	}))
	t.Cleanup(ts.Close)

	var out struct {
		Objects int `json:"objects"`
	}
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	if _, err := Call(ctx, nil, http.MethodGet, ts.URL, "/stats", nil, &out); err != nil || out.Objects != 3 {
		t.Fatalf("GET /stats: %v, objects %d", err, out.Objects)
	}
	if ms, err := strconv.Atoi(gotHdr); err != nil || ms <= 0 || ms > 1500 {
		t.Fatalf("forwarded %s %q, want an integer in (0, 1500]", serverutil.HeaderDeadlineMs, gotHdr)
	}
	if gotType != "" {
		t.Errorf("bodiless GET sent Content-Type %q", gotType)
	}

	if _, err := Call(context.Background(), nil, http.MethodPost, ts.URL, "/query", map[string]any{"tokens": []string{"a"}}, &out); err != nil {
		t.Fatal(err)
	}
	if gotHdr != "" {
		t.Errorf("a call with no deadline forwarded %s %q", serverutil.HeaderDeadlineMs, gotHdr)
	}
	if gotType != "application/json" {
		t.Errorf("POST sent Content-Type %q, want application/json", gotType)
	}

	for path, want := range map[string]StatusError{
		"/shed": {Endpoint: ts.URL, Status: http.StatusTooManyRequests, RetryAfter: 2 * time.Second},
		"/gone": {Endpoint: ts.URL, Status: http.StatusNotFound},
	} {
		_, err := Call(ctx, nil, http.MethodGet, ts.URL, path, nil, &out)
		var se *StatusError
		if !errors.As(err, &se) || *se != want {
			t.Errorf("GET %s: error %v, want %+v", path, err, want)
		}
	}
}
