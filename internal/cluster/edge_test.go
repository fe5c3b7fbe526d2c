package cluster

// The shared HTTP edge as the coordinator and its shards see it: both
// tiers honour X-Kjoin-Deadline-Ms the same way, the coordinator
// forwards its remaining budget on every shard call, and the probes
// behave like a shard server's.

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kjoin/internal/paperdata"
	"kjoin/internal/server"
	"kjoin/internal/serverutil"
	"kjoin/internal/wal"
)

// recordingShard is a real shard server behind a handler that notes the
// deadline header of every request by route, and can fail the next
// adds with a 500 (an outcome the coordinator must settle by counting).
type recordingShard struct {
	next http.Handler
	ts   *httptest.Server

	mu       sync.Mutex
	seen     map[string][]string // route → X-Kjoin-Deadline-Ms values
	failAdds int
}

func newRecordingShard(t *testing.T) *recordingShard {
	t.Helper()
	h, _ := paperdata.Fig1()
	s, err := server.New(h, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	rs := &recordingShard{next: s, seen: map[string][]string{}}
	rs.ts = httptest.NewServer(rs)
	t.Cleanup(rs.ts.Close)
	return rs
}

func (rs *recordingShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := r.Method + " " + r.URL.Path
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/objects/") {
		route = "GET /objects/{id}"
	}
	rs.mu.Lock()
	rs.seen[route] = append(rs.seen[route], r.Header.Get(HeaderDeadlineMs))
	fail := route == "POST /objects" && rs.failAdds > 0
	if fail {
		rs.failAdds--
	}
	rs.mu.Unlock()
	if fail {
		serverutil.WriteError(w, http.StatusInternalServerError, "injected", "injected add failure")
		return
	}
	rs.next.ServeHTTP(w, r)
}

// last returns the deadline header of the newest request on route.
func (rs *recordingShard) last(route string) string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	v := rs.seen[route]
	if len(v) == 0 {
		return ""
	}
	return v[len(v)-1]
}

func (rs *recordingShard) setFailAdds(n int) {
	rs.mu.Lock()
	rs.failAdds = n
	rs.mu.Unlock()
}

// TestCoordinatorForwardsDeadlineOnEveryShardCall: each kind of shard
// call — the query scatter, the home add, similarity, the /stats count
// that settles an ambiguous add and the /objects/{id} fetch of a
// reshard — carries X-Kjoin-Deadline-Ms, positive and within that
// call's per-shard budget.
func TestCoordinatorForwardsDeadlineOnEveryShardCall(t *testing.T) {
	watchGoroutines(t)
	const shardTimeout = 2 * time.Second
	shards := []*recordingShard{newRecordingShard(t), newRecordingShard(t)}
	dir := t.TempDir()
	c, err := Recover(Config{
		Shards:         []ShardConfig{{Primary: shards[0].ts.URL}, {Primary: shards[1].ts.URL}},
		RequestTimeout: 10 * time.Second,
		ShardTimeout:   shardTimeout,
		Seed:           7,
		Logf:           t.Logf,
	}, Durability{WALDir: filepath.Join(dir, "wal"), SnapshotDir: filepath.Join(dir, "snap"), Keep: 2, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(func() {
		ts.Close()
		_ = c.Close()
	})

	objs := paperdata.Table1()
	for _, o := range objs {
		addAt(t, ts.URL, o)
	}
	queryAt(t, ts.URL, objs[0], nil)
	if resp, b := doJSON(t, http.MethodPost, ts.URL+"/similarity", map[string]any{"x": objs[0], "y": objs[1]}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("similarity: %d: %s", resp.StatusCode, b)
	}
	// A 500 from the home shard is ambiguous: the coordinator counts the
	// shard's objects to settle it, and the add is refused.
	for _, s := range shards {
		s.setFailAdds(1)
	}
	if resp, b := doJSON(t, http.MethodPost, ts.URL+"/objects", map[string]any{"tokens": objs[0]}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("add over a failing home shard: %d: %s", resp.StatusCode, b)
	}
	for _, s := range shards {
		s.setFailAdds(0)
	}
	// Growing the fleet reads every object off its home shard and moves
	// some of them.
	grown := newRecordingShard(t)
	shards = append(shards, grown)
	startReshard(t, ts.URL, map[string]any{"add": []map[string]any{{"primary": grown.ts.URL}}})
	waitReshardIdle(t, ts.URL)

	for _, route := range []string{"POST /query", "POST /objects", "POST /similarity", "GET /stats", "GET /objects/{id}"} {
		n := 0
		for i, s := range shards {
			s.mu.Lock()
			vals := append([]string(nil), s.seen[route]...)
			s.mu.Unlock()
			for _, v := range vals {
				n++
				if ms, err := strconv.Atoi(v); err != nil || ms <= 0 || ms > int(shardTimeout/time.Millisecond) {
					t.Errorf("shard %d: %s carried %s %q, want an integer in (0, %d]", i, route, HeaderDeadlineMs, v, shardTimeout/time.Millisecond)
				}
			}
		}
		if n == 0 {
			t.Errorf("no %s call reached any shard; the check is vacuous", route)
		}
	}
}

// TestDeadlineHeaderEveryTier runs the same X-Kjoin-Deadline-Ms table
// against a shard server and a coordinator: the header only ever
// shrinks the budget (values past RequestTimeout, even ones whose
// nanosecond conversion overflows, leave it in force and answer 200),
// and a malformed or non-positive value is a 400 bad_deadline. On the
// coordinator the budget in force is visible in what it forwards.
func TestDeadlineHeaderEveryTier(t *testing.T) {
	watchGoroutines(t)
	shard := newRecordingShard(t)
	c, err := New(Config{
		Shards:         []ShardConfig{{Primary: shard.ts.URL}},
		RequestTimeout: 10 * time.Second,
		ShardTimeout:   2 * time.Second,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(c)
	t.Cleanup(coord.Close)

	cases := []struct {
		hdr    string
		status int
		// forwarded bounds the coordinator's shard call header, in ms:
		// min(ShardTimeout, budget − the default 25ms MergeSlack).
		minFwd, maxFwd int
	}{
		{"500", http.StatusOK, 1, 475},
		{"20000", http.StatusOK, 1000, 2000},
		{"10000000000000", http.StatusOK, 1000, 2000},
		{"9223372036854775807", http.StatusOK, 1000, 2000},
		{"0", http.StatusBadRequest, 0, 0},
		{"-1", http.StatusBadRequest, 0, 0},
		{"abc", http.StatusBadRequest, 0, 0},
	}
	for _, tier := range []struct{ name, url string }{{"coordinator", coord.URL}, {"shard", shard.ts.URL}} {
		for _, tc := range cases {
			resp, b := doJSON(t, http.MethodPost, tier.url+"/query",
				map[string]any{"tokens": []string{"KFC"}}, map[string]string{HeaderDeadlineMs: tc.hdr})
			if resp.StatusCode != tc.status {
				t.Fatalf("%s, header %q: status %d, want %d: %s", tier.name, tc.hdr, resp.StatusCode, tc.status, b)
			}
			if tc.status == http.StatusBadRequest {
				if !strings.Contains(string(b), `"bad_deadline"`) {
					t.Fatalf("%s, header %q: body %s, want code bad_deadline", tier.name, tc.hdr, b)
				}
				continue
			}
			if tier.name != "coordinator" {
				continue
			}
			fwd, err := strconv.Atoi(shard.last("POST /query"))
			if err != nil || fwd < tc.minFwd || fwd > tc.maxFwd {
				t.Fatalf("header %q: coordinator forwarded %q, want [%d, %d]", tc.hdr, shard.last("POST /query"), tc.minFwd, tc.maxFwd)
			}
		}
	}
}

// TestCoordinatorHealthAndReadiness: the coordinator answers both probes
// from construction, and draining flips readiness but not liveness.
func TestCoordinatorHealthAndReadiness(t *testing.T) {
	c, err := New(Config{Shards: []ShardConfig{{Primary: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	for _, path := range []string{"/healthz", "/readyz"} {
		if resp, b := doJSON(t, http.MethodGet, ts.URL+path, nil, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, b)
		}
	}
	c.SetDraining(true)
	resp, b := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(b), `"draining"`) {
		t.Errorf("draining /readyz: %d %s, want 503 draining", resp.StatusCode, b)
	}
	if resp, b := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz: status %d: %s", resp.StatusCode, b)
	}
}
