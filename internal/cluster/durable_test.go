package cluster

// The durable-control-plane matrix: a coordinator whose id map and
// route table live in a coordinator WAL plus snapshot generations,
// killed and rebooted over whatever the crash left on disk, asserting
// the control-plane durability contract —
//
//  1. a killed-and-restarted coordinator answers bit-identically to one
//     that never died (ids, pair sets, Float64bits, order);
//  2. a crash at every single WAL write (and fsync) boundary leaves a
//     recoverable state: every acknowledged add survives with its id,
//     and at most the one in-flight add is adopted from the shard;
//  3. snapshot generations compact the log without ever dropping a
//     record an older retained generation still needs;
//  4. over-compaction and out-of-band deletion are refused loudly, with
//     the same failure shapes as the server's data path.
//
// The shard servers deliberately outlive coordinator reboots: they play
// the remote processes that keep running (and keep their objects) while
// the coordinator crashes and recovers against them.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kjoin/internal/fault"
	"kjoin/internal/paperdata"
	"kjoin/internal/server"
	"kjoin/internal/wal"
)

// dfleet is a durable coordinator over persistent shard servers. Unlike
// fleet, the coordinator can be killed and rebooted mid-test from its
// WAL and snapshot directories while the shards keep serving.
type dfleet struct {
	t               *testing.T
	shards          []*httptest.Server
	n               int // initial fleet size; config() names only these
	inj             *fault.NetInjector
	tr              *http.Transport
	walDir, snapDir string
	keep            int
	mod             func(*Config)

	coord *Coordinator
	ts    *httptest.Server
}

// newDFleet starts n shard servers and prepares (but does not boot) a
// durable coordinator over them; mod may adjust the config at each
// boot.
func newDFleet(t *testing.T, n int, mod func(*Config)) *dfleet {
	t.Helper()
	dir := t.TempDir()
	f := &dfleet{
		t:       t,
		n:       n,
		inj:     fault.NewNetInjector(nil),
		walDir:  filepath.Join(dir, "coord-wal"),
		snapDir: filepath.Join(dir, "coord-snap"),
		keep:    2,
		mod:     mod,
	}
	f.tr = f.inj.Transport()
	t.Cleanup(f.tr.CloseIdleConnections)
	for i := 0; i < n; i++ {
		f.newShardServer()
	}
	t.Cleanup(f.kill)
	return f
}

// newShardServer starts one more shard server (an in-memory kjoin
// server playing a remote shard process) and returns its ShardConfig.
// Servers beyond the initial n are not named in config(): a rebooted
// coordinator must learn them from its own durable reshard records.
func (f *dfleet) newShardServer() ShardConfig {
	f.t.Helper()
	h, _ := paperdata.Fig1()
	s, err := server.New(h, testOpt())
	if err != nil {
		f.t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	f.t.Cleanup(ts.Close)
	f.shards = append(f.shards, ts)
	return ShardConfig{Primary: ts.URL}
}

// addr returns shard i's dial address, for scoping injected faults.
func (f *dfleet) addr(i int) string {
	return strings.TrimPrefix(f.shards[i].URL, "http://")
}

// config builds a fresh coordinator config over the initial fleet.
func (f *dfleet) config() Config {
	cfg := Config{
		HTTP:             &http.Client{Transport: f.tr},
		RequestTimeout:   10 * time.Second,
		ShardTimeout:     2 * time.Second,
		HedgeDelay:       100 * time.Millisecond,
		RetryBackoffMin:  time.Millisecond,
		RetryBackoffMax:  5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  200 * time.Millisecond,
		Seed:             7,
		Logf:             f.t.Logf,
	}
	for i := 0; i < f.n; i++ {
		cfg.Shards = append(cfg.Shards, ShardConfig{Primary: f.shards[i].URL})
	}
	if f.mod != nil {
		f.mod(&cfg)
	}
	return cfg
}

// boot recovers a coordinator from the fleet's directories over fsys
// (the reboot: a fresh filesystem handle over the surviving bytes).
func (f *dfleet) boot(fsys fault.FS) (*Coordinator, error) {
	f.t.Helper()
	c, err := Recover(f.config(), Durability{
		FS:          fsys,
		WALDir:      f.walDir,
		SnapshotDir: f.snapDir,
		Keep:        f.keep,
		Policy:      wal.SyncAlways,
		Logf:        f.t.Logf,
	})
	if err != nil {
		return nil, err
	}
	f.coord = c
	f.ts = httptest.NewServer(c)
	return c, nil
}

func (f *dfleet) mustBoot(fsys fault.FS) *Coordinator {
	f.t.Helper()
	c, err := f.boot(fsys)
	if err != nil {
		f.t.Fatalf("coordinator recovery failed: %v", err)
	}
	return c
}

// kill stops the coordinator process: the HTTP front end goes away and
// the log handle closes, while the shard servers keep running with
// everything they hold. Idempotent, and registered as a cleanup so the
// goroutine watchdog always sees the mover joined.
func (f *dfleet) kill() {
	if f.ts != nil {
		f.ts.Close()
		f.ts = nil
	}
	if f.coord != nil {
		_ = f.coord.Close() // a crashed log may refuse the final sync
		f.coord = nil
	}
}

// load adds the objects through the coordinator, requiring clean full
// coverage and the expected global ids.
func (f *dfleet) load(objs [][]string) {
	f.t.Helper()
	for i, o := range objs {
		resp, id, _ := addAt(f.t, f.ts.URL, o)
		if id != i {
			f.t.Fatalf("load: object %d got global id %d", i, id)
		}
		want := fmt.Sprintf("%d/%d", f.n, f.n)
		if cov := resp.Header.Get(HeaderCoverage); cov != want {
			f.t.Fatalf("load: add %d coverage %q, want %s", i, cov, want)
		}
	}
}

// verifyBitIdentical pins every query answer to the single-node oracle.
func (f *dfleet) verifyBitIdentical(oracle string, objs [][]string) {
	f.t.Helper()
	for qi, q := range objs {
		_, want := queryAt(f.t, oracle, q, nil)
		resp, got := queryAt(f.t, f.ts.URL, q, nil)
		if skipped := resp.Header.Get(HeaderSkippedShards); skipped != "" {
			f.t.Fatalf("query %d skipped shards %q on a healthy fleet", qi, skipped)
		}
		assertMatchesBitIdentical(f.t, fmt.Sprintf("query %d", qi), got, want)
	}
}

// TestCoordinatorKillRestartBitIdentity: the basic durability
// round-trip. Load through a durable coordinator, kill it, recover from
// the WAL alone (no snapshot was ever taken), and every answer — and
// every later add — must be bit-identical to an uncrashed single node.
func TestCoordinatorKillRestartBitIdentity(t *testing.T) {
	watchGoroutines(t)
	objs := paperdata.Table1()
	f := newDFleet(t, 3, nil)
	f.mustBoot(fault.OS{})
	oh, _ := paperdata.Fig1()
	osrv, err := server.New(oh, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	ots := httptest.NewServer(osrv)
	t.Cleanup(ots.Close)

	for i, o := range objs {
		_, wantID, wantPairs := addAt(t, ots.URL, o)
		_, gotID, gotPairs := addAt(t, f.ts.URL, o)
		if gotID != wantID {
			t.Fatalf("add %d: cluster id %d, oracle id %d", i, gotID, wantID)
		}
		assertPairsBitIdentical(t, fmt.Sprintf("add %d", i), gotPairs, wantPairs)
	}

	f.kill()
	f.mustBoot(fault.OS{})
	f.verifyBitIdentical(ots.URL, objs)

	// The id sequence continues exactly where the dead coordinator left
	// it, with bit-identical pair reports.
	for i, o := range objs[:4] {
		_, wantID, wantPairs := addAt(t, ots.URL, o)
		_, gotID, gotPairs := addAt(t, f.ts.URL, o)
		if gotID != wantID || gotID != len(objs)+i {
			t.Fatalf("post-restart add %d: cluster id %d, oracle id %d", i, gotID, wantID)
		}
		assertPairsBitIdentical(t, fmt.Sprintf("post-restart add %d", i), gotPairs, wantPairs)
	}

	st := statsAt(t, f.ts.URL)
	if got := int(st["objects"].(float64)); got != len(objs)+4 {
		t.Fatalf("stats objects = %d, want %d", got, len(objs)+4)
	}
	if got := int(st["route_version"].(float64)); got != 1 {
		t.Fatalf("route_version = %d, want 1", got)
	}
	if seq := st["coordinator_wal_durable_seq"].(float64); seq <= 0 {
		t.Fatalf("coordinator_wal_durable_seq = %v, want > 0", seq)
	}
	if healthy := st["control_plane_healthy"].(bool); !healthy {
		t.Fatal("control_plane_healthy = false on a healthy coordinator")
	}
}

// TestCoordinatorCrashSweepEveryWalBoundary crashes the coordinator's
// filesystem after the Nth WAL write — and, in the second sweep, the
// Nth fsync — for every N the workload produces. After each crash the
// rebooted coordinator must hold every acknowledged add (plus at most
// the one in-flight add, adopted from the shard's own count), continue
// the workload at the recovered id, and end bit-identical to a single
// node that saw the full corpus.
func TestCoordinatorCrashSweepEveryWalBoundary(t *testing.T) {
	objs := paperdata.Table1()
	sweeps := []struct {
		name string
		op   fault.Op
	}{
		{"write", fault.OpWrite},
		{"sync", fault.OpSync},
	}
	for _, sweep := range sweeps {
		t.Run(sweep.name, func(t *testing.T) {
			for n := 1; ; n++ {
				fired := false
				t.Run(fmt.Sprintf("crash-after-%d", n), func(t *testing.T) {
					watchGoroutines(t)
					f := newDFleet(t, 3, nil)
					inj := fault.NewInjector(fault.OS{},
						fault.Fault{Op: sweep.op, Path: "wal.", N: n, Mode: fault.CrashAfter})
					f.mustBoot(inj)
					acked := 0
					for _, o := range objs {
						resp, b := doJSON(t, http.MethodPost, f.ts.URL+"/objects", map[string]any{"tokens": o}, nil)
						if resp.StatusCode != http.StatusOK {
							continue // the crash refused the ack; the log decides its fate
						}
						var out struct {
							ID int `json:"id"`
						}
						if err := json.Unmarshal(b, &out); err != nil {
							t.Fatalf("add response: %v: %s", err, b)
						}
						if out.ID != acked {
							t.Fatalf("acked ids are not contiguous: add %d got id %d", acked, out.ID)
						}
						acked++
					}
					fired = inj.Fired() > 0
					f.kill()

					f.mustBoot(fault.OS{})
					got := int(statsAt(t, f.ts.URL)["objects"].(float64))
					// The one legal divergence: the add whose intent was durable
					// and whose shard write landed before the crash is adopted at
					// recovery even though its ack never went out.
					if got != acked && got != acked+1 {
						t.Fatalf("recovered %d objects, acknowledged %d (at most one adoption allowed)", got, acked)
					}
					// Continue the workload where recovery left it; the corpus
					// must become exactly objs, with contiguous ids.
					for i := got; i < len(objs); i++ {
						_, id, _ := addAt(t, f.ts.URL, objs[i])
						if id != i {
							t.Fatalf("continuation add %d got id %d", i, id)
						}
					}
					f.verifyBitIdentical(singleNode(t, objs).URL, objs)
				})
				if !fired {
					break // past the last WAL operation the workload performs
				}
				if n > 200 {
					t.Fatal("crash sweep did not terminate")
				}
			}
		})
	}
}

// TestCoordinatorSnapshotCompactionRoundTrip: snapshot generations
// quiesce the control plane, compact the log behind the oldest retained
// generation, skip when nothing advanced, and recovery over snapshot +
// log tail stays bit-identical.
func TestCoordinatorSnapshotCompactionRoundTrip(t *testing.T) {
	watchGoroutines(t)
	objs := paperdata.Table1()
	f := newDFleet(t, 3, nil)
	f.mustBoot(fault.OS{})
	for i, o := range objs {
		_, id, _ := addAt(t, f.ts.URL, o)
		if id != i {
			t.Fatalf("add %d got id %d", i, id)
		}
		if i == 3 || i == 7 {
			if err := f.coord.SnapshotGeneration(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.coord.SnapshotGeneration(); err != nil {
		t.Fatal(err)
	}
	// Idle snapshots must not churn generations: nothing advanced since
	// the last one.
	if err := f.coord.SnapshotGeneration(); err != nil {
		t.Fatal(err)
	}
	gens, _ := filepath.Glob(filepath.Join(f.snapDir, "snap.0*"))
	if len(gens) != f.keep {
		t.Fatalf("have %d generations, want keep=%d", len(gens), f.keep)
	}
	st := statsAt(t, f.ts.URL)
	if snapSeq, lastSeq := st["coordinator_snapshot_seq"].(float64), st["coordinator_wal_last_seq"].(float64); snapSeq != lastSeq || snapSeq == 0 {
		t.Fatalf("snapshot covers seq %v, wal at seq %v; want equal and nonzero", snapSeq, lastSeq)
	}

	f.kill()
	f.mustBoot(fault.OS{})
	f.verifyBitIdentical(singleNode(t, objs).URL, objs)
	if _, id, _ := addAt(t, f.ts.URL, objs[0]); id != len(objs) {
		t.Fatalf("post-recovery add got id %d, want %d", id, len(objs))
	}
}

// TestCoordinatorRecoveryRefusals: the loud-failure paths. A WAL
// deleted out-of-band, or compacted past what the only readable
// snapshot covers, must refuse recovery — serving the shorter id map as
// if nothing happened would silently break the global id space.
func TestCoordinatorRecoveryRefusals(t *testing.T) {
	objs := paperdata.Table1()

	t.Run("deleted wal", func(t *testing.T) {
		f := newDFleet(t, 3, nil)
		f.mustBoot(fault.OS{})
		f.load(objs[:4])
		if err := f.coord.SnapshotGeneration(); err != nil {
			t.Fatal(err)
		}
		f.kill()
		if err := os.RemoveAll(f.walDir); err != nil {
			t.Fatal(err)
		}
		_, err := f.boot(fault.OS{})
		if err == nil {
			t.Fatal("recovery with a deleted coordinator wal succeeded")
		}
		if !strings.Contains(err.Error(), "truncated or deleted") {
			t.Fatalf("wrong failure shape: %v", err)
		}
	})

	t.Run("over-compacted wal", func(t *testing.T) {
		f := newDFleet(t, 3, nil)
		f.mustBoot(fault.OS{})
		f.load(objs[:2])
		if err := f.coord.SnapshotGeneration(); err != nil { // generation 1
			t.Fatal(err)
		}
		for _, o := range objs[2:4] {
			addAt(t, f.ts.URL, o)
		}
		if err := f.coord.SnapshotGeneration(); err != nil { // generation 2
			t.Fatal(err)
		}
		lastSeq := uint64(statsAt(t, f.ts.URL)["coordinator_wal_last_seq"].(float64))
		f.kill()
		// Simulate an over-compacted log: every record gone, numbering
		// surviving only in a fresh segment's name.
		if err := os.RemoveAll(f.walDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(f.walDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(f.walDir, fmt.Sprintf("wal.%020d", lastSeq+1)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		// Rot the newest generation: the fallback covers less of the log,
		// and the records between now exist nowhere.
		gens, err := filepath.Glob(filepath.Join(f.snapDir, "snap.0*"))
		if err != nil || len(gens) != 2 {
			t.Fatalf("want 2 generations, have %v (%v)", gens, err)
		}
		if err := os.WriteFile(gens[len(gens)-1], []byte("rotten"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = f.boot(fault.OS{})
		if err == nil {
			t.Fatal("recovery over an over-compacted coordinator wal succeeded silently")
		}
		if !strings.Contains(err.Error(), "compacted") {
			t.Fatalf("wrong failure shape: %v", err)
		}
	})
}

// TestStaleRouteVersion: a client asserting the route-table version it
// computed against gets a typed 409 stale_route (carrying the current
// version) when the table has moved — on the query, join and add paths
// alike — and a 400 on a nonsense assertion.
func TestStaleRouteVersion(t *testing.T) {
	watchGoroutines(t)
	objs := paperdata.Table1()
	f := newFleet(t, 2, nil)
	f.load(objs[:4])

	current := map[string]string{HeaderRouteVersion: "1"}
	stale := map[string]string{HeaderRouteVersion: "2"}
	garbage := map[string]string{HeaderRouteVersion: "zork"}

	// The current version passes every gate.
	if resp, _ := queryAt(t, f.ts.URL, objs[0], current); resp.StatusCode != http.StatusOK {
		t.Fatalf("current-version query refused: %d", resp.StatusCode)
	}
	for _, ep := range []struct {
		name string
		path string
		body any
	}{
		{"query", "/query", map[string]any{"tokens": objs[0]}},
		{"join", "/join", map[string]any{"objects": objs[:2]}},
		{"add", "/objects", map[string]any{"tokens": objs[0]}},
	} {
		resp, b := doJSON(t, http.MethodPost, f.ts.URL+ep.path, ep.body, stale)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s with stale route version: status %d: %s", ep.name, resp.StatusCode, b)
		}
		if !strings.Contains(string(b), "stale_route") {
			t.Fatalf("%s stale-route body lacks the typed code: %s", ep.name, b)
		}
		if v := resp.Header.Get(HeaderRouteVersion); v != "1" {
			t.Fatalf("%s stale-route response carries version %q, want the current 1", ep.name, v)
		}
		resp, b = doJSON(t, http.MethodPost, f.ts.URL+ep.path, ep.body, garbage)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "bad_route_version") {
			t.Fatalf("%s with garbage route version: status %d: %s", ep.name, resp.StatusCode, b)
		}
	}
	// The refused add never reached a shard: the corpus is unchanged.
	if got := int(statsAt(t, f.ts.URL)["objects"].(float64)); got != 4 {
		t.Fatalf("stale-route add changed the corpus: %d objects, want 4", got)
	}
}

// TestAddChargesRetryBudgetOnce is the regression test for the add-path
// breaker double-count: the home shard's answer arrives with the add
// itself, so the discovery scatter must not send it a no-op query —
// that phantom call earned a second retry-budget token (and a phantom
// breaker Success that could close a half-open breaker off a probe
// that proved nothing). One add therefore earns exactly one token.
func TestAddChargesRetryBudgetOnce(t *testing.T) {
	watchGoroutines(t)
	f := newFleet(t, 1, func(cfg *Config) { cfg.RetryBudgetEarn = 1.0 })
	// Drain the bucket so earning becomes observable.
	for f.coord.budget.spend() {
	}
	if _, id, _ := addAt(t, f.ts.URL, paperdata.Table1()[0]); id != 0 {
		t.Fatalf("add got id %d, want 0", id)
	}
	earned := 0
	for f.coord.budget.spend() {
		if earned++; earned > 10 {
			break
		}
	}
	if earned != 1 {
		t.Fatalf("one add earned %d retry tokens, want exactly 1 (the home-shard no-op was double-charged)", earned)
	}
	if n := int(statsAt(t, f.ts.URL)["retries_total"].(float64)); n != 0 {
		t.Fatalf("retries_total = %d after one clean add", n)
	}
}

// TestCoordinatorCompactionFloorSurvivesRestart: the coordinator twin
// of the server's TestCompactionFloorSurvivesRestart, through the same
// durable-log kernel. The floor must be re-seeded from every generation
// still on disk, not just the one that loaded; otherwise the first
// post-restart compaction deletes records the older generations need,
// and a later fallback past a corrupt newest generation finds its log
// gone.
func TestCoordinatorCompactionFloorSurvivesRestart(t *testing.T) {
	watchGoroutines(t)
	objs := paperdata.Table1()[:6]
	f := newDFleet(t, 3, nil)
	f.keep = 3
	f.mustBoot(fault.OS{})
	for i, o := range objs[:5] {
		if _, id, _ := addAt(t, f.ts.URL, o); id != i {
			t.Fatalf("add %d got id %d", i, id)
		}
		if i == 1 || i == 3 {
			if err := f.coord.SnapshotGeneration(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Restart (two generations on disk, one unsnapshotted add), then add
	// and snapshot so compaction runs with the re-seeded floor.
	f.kill()
	f.mustBoot(fault.OS{})
	if _, id, _ := addAt(t, f.ts.URL, objs[5]); id != 5 {
		t.Fatalf("post-restart add got id %d, want 5", id)
	}
	if err := f.coord.SnapshotGeneration(); err != nil {
		t.Fatal(err)
	}
	f.kill()

	// Rot every generation but the oldest: recovery must fall back to it
	// and find all the WAL records it needs still in the log.
	gens, err := filepath.Glob(filepath.Join(f.snapDir, "snap.0*"))
	if err != nil || len(gens) != 3 {
		t.Fatalf("want 3 generations, have %v (%v)", gens, err)
	}
	for _, g := range gens[1:] {
		if err := os.WriteFile(g, []byte("rotten"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f.mustBoot(fault.OS{})
	f.verifyBitIdentical(singleNode(t, objs).URL, objs)
}
