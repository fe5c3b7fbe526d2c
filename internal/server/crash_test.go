package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"kjoin/internal/core"
	"kjoin/internal/fault"
	"kjoin/internal/paperdata"
	"kjoin/internal/wal"
)

// The crash-recovery matrix: drive a durable server through scripted
// fault-injection schedules, "reboot" it over whatever the crash left on
// disk, and assert the durability contract —
//
//  1. every acknowledged add survives recovery,
//  2. every unacknowledged add is absent,
//  3. the recovered index answers queries bit-identically to an index
//     built directly from exactly the acknowledged adds.

// crashHarness owns one on-disk state (WAL + snapshot generations) and
// tracks which adds were acknowledged across server lifetimes.
type crashHarness struct {
	t               *testing.T
	opt             core.Options
	walDir, snapDir string
	keep            int
	acked           [][]string
}

func newCrashHarness(t *testing.T) *crashHarness {
	t.Helper()
	dir := t.TempDir()
	return &crashHarness{
		t:       t,
		opt:     core.Defaults(0.7, 0.6),
		walDir:  filepath.Join(dir, "wal"),
		snapDir: filepath.Join(dir, "snap"),
		keep:    2,
	}
}

// boot recovers a server from the harness's directories over fsys (the
// reboot: a fresh filesystem handle over the surviving bytes).
func (c *crashHarness) boot(fsys fault.FS) (*Server, error) {
	c.t.Helper()
	h, _ := paperdata.Fig1()
	s, err := NewRecovering(h, c.opt, Config{Logf: c.t.Logf})
	if err != nil {
		c.t.Fatal(err)
	}
	err = s.Recover(Durability{
		FS:          fsys,
		WALDir:      c.walDir,
		SnapshotDir: c.snapDir,
		Keep:        c.keep,
		Policy:      wal.SyncAlways,
		Logf:        c.t.Logf,
	})
	return s, err
}

func (c *crashHarness) mustBoot(fsys fault.FS) *Server {
	c.t.Helper()
	s, err := c.boot(fsys)
	if err != nil {
		c.t.Fatalf("recovery failed: %v", err)
	}
	return s
}

// add posts one object and records whether it was acknowledged (HTTP
// 200). The acknowledgment set — not what the process had in memory —
// is the durability contract.
func (c *crashHarness) add(s *Server, tokens []string) bool {
	c.t.Helper()
	body, _ := json.Marshal(map[string]any{"tokens": tokens})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/objects", strings.NewReader(string(body))))
	if rec.Code == http.StatusOK {
		c.acked = append(c.acked, tokens)
		return true
	}
	return false
}

// verify checks the recovered server against an oracle index built
// directly from exactly the acknowledged adds: same object count, and
// bit-identical answers (index and similarity) for every query.
func (c *crashHarness) verify(s *Server) {
	c.t.Helper()
	h, _ := paperdata.Fig1()
	oracle, err := core.NewIndexer(h, c.opt)
	if err != nil {
		c.t.Fatal(err)
	}
	for _, tokens := range c.acked {
		if _, err := oracle.Add(tokens); err != nil {
			c.t.Fatal(err)
		}
	}
	ix := s.ix.Load()
	if got, want := ix.Len(), oracle.Len(); got != want {
		c.t.Fatalf("recovered index has %d objects, acknowledged %d", got, want)
	}
	for qi, q := range append(paperdata.Table1(), []string{"kfc", "jfk"}) {
		want, err := oracle.Query(q)
		if err != nil {
			c.t.Fatal(err)
		}
		got, err := ix.Query(q)
		if err != nil {
			c.t.Fatal(err)
		}
		if len(got) != len(want) {
			c.t.Fatalf("query %d: %d matches, oracle has %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				c.t.Fatalf("query %d match %d: got %+v, oracle %+v (similarity must be bit-identical)", qi, i, got[i], want[i])
			}
		}
	}
}

// snapshot forces a snapshot generation and reports its error.
func (c *crashHarness) snapshot(s *Server) error {
	c.t.Helper()
	return s.SnapshotGeneration()
}

// TestCrashMatrix is the scripted fault-injection sweep: each case
// scripts one failure mode at one injection point, drives a fixed add
// workload against it, optionally crashes, reboots, and asserts the
// contract. The workload is the paper's Table 1 objects — enough
// overlap that queries exercise real candidate verification.
func TestCrashMatrix(t *testing.T) {
	objects := paperdata.Table1()
	cases := []struct {
		name  string
		fault fault.Fault
		// crashAfterAdds, when ≥ 0, hard-kills the filesystem after that
		// many add attempts (on top of any scripted fault).
		crashAfterAdds int
		// snapshotEvery forces a snapshot generation after every Nth add
		// attempt (0 = no snapshots).
		snapshotEvery int
	}{
		{name: "fail-3rd-wal-write", crashAfterAdds: -1,
			fault: fault.Fault{Op: fault.OpWrite, Path: "wal.", N: 3, Mode: fault.Fail}},
		{name: "short-write-wal", crashAfterAdds: -1,
			fault: fault.Fault{Op: fault.OpWrite, Path: "wal.", N: 2, Mode: fault.ShortWrite, Keep: 5}},
		{name: "fail-2nd-wal-fsync", crashAfterAdds: -1,
			fault: fault.Fault{Op: fault.OpSync, Path: "wal.", N: 2, Mode: fault.Fail}},
		{name: "crash-before-wal-write", crashAfterAdds: -1,
			fault: fault.Fault{Op: fault.OpWrite, Path: "wal.", N: 4, Mode: fault.CrashBefore}},
		{name: "crash-after-snapshot-rename", crashAfterAdds: -1, snapshotEvery: 2,
			fault: fault.Fault{Op: fault.OpRename, Path: "snap.0", N: 2, Mode: fault.CrashAfter}},
		{name: "fail-snapshot-write", crashAfterAdds: -1, snapshotEvery: 2,
			fault: fault.Fault{Op: fault.OpWrite, Path: "snap.0", N: 1, Mode: fault.Fail}},
		{name: "fail-snapshot-fsync", crashAfterAdds: -1, snapshotEvery: 3,
			fault: fault.Fault{Op: fault.OpSync, Path: "snap.0", N: 1, Mode: fault.Fail}},
		{name: "kill-mid-run", crashAfterAdds: 4},
		{name: "kill-after-snapshot", crashAfterAdds: 5, snapshotEvery: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCrashHarness(t)
			var script []fault.Fault
			if tc.fault != (fault.Fault{}) {
				script = append(script, tc.fault)
			}
			inj := fault.NewInjector(fault.OS{}, script...)
			s := c.mustBoot(inj)
			for i, tokens := range objects {
				c.add(s, tokens)
				if tc.snapshotEvery > 0 && (i+1)%tc.snapshotEvery == 0 {
					// Snapshot failures are survivable by design; the WAL
					// still covers everything acknowledged.
					if err := c.snapshot(s); err != nil {
						t.Logf("snapshot after add %d: %v", i+1, err)
					}
				}
				if tc.crashAfterAdds >= 0 && i+1 == tc.crashAfterAdds {
					inj.Crash()
				}
			}
			if len(c.acked) == 0 {
				t.Fatal("workload acknowledged nothing; matrix case is vacuous")
			}
			if len(c.acked) == len(objects) && tc.crashAfterAdds < 0 && tc.fault.Path == "wal." {
				t.Fatal("scripted wal fault did not reject any add")
			}
			inj.Crash() // whatever survives now is what a power cut leaves
			c.verify(c.mustBoot(fault.OS{}))
		})
	}
}

// TestCrashSweepEveryWalWrite crashes after the Nth WAL write for every
// N the workload produces: the exhaustive version of the kill tests,
// proving the contract holds at every single write boundary.
func TestCrashSweepEveryWalWrite(t *testing.T) {
	objects := paperdata.Table1()
	for n := 1; n <= len(objects); n++ {
		t.Run(fmt.Sprintf("crash-after-write-%d", n), func(t *testing.T) {
			c := newCrashHarness(t)
			inj := fault.NewInjector(fault.OS{},
				fault.Fault{Op: fault.OpWrite, Path: "wal.", N: n, Mode: fault.CrashAfter})
			s := c.mustBoot(inj)
			for _, tokens := range objects {
				c.add(s, tokens)
			}
			if got := len(c.acked); got != n-1 {
				t.Fatalf("crash after write %d acknowledged %d adds, want %d", n, got, n-1)
			}
			c.verify(c.mustBoot(fault.OS{}))
		})
	}
}

// TestRecoveryTornTailAndCorruptSnapshot: the double-failure drill. The
// newest snapshot generation is bit-flipped at rest AND the WAL tail is
// torn mid-record. Recovery must fall back to the older generation,
// replay the log across the gap (compaction is floored at the oldest
// retained generation precisely for this), truncate the torn tail, and
// still answer bit-identically.
func TestRecoveryTornTailAndCorruptSnapshot(t *testing.T) {
	objects := paperdata.Table1()
	c := newCrashHarness(t)
	s := c.mustBoot(fault.OS{})
	for i, tokens := range objects {
		if !c.add(s, tokens) {
			t.Fatalf("add %d rejected on a healthy filesystem", i)
		}
		if i == 2 || i == 5 {
			if err := c.snapshot(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest generation at rest.
	gens, err := filepath.Glob(filepath.Join(c.snapDir, "snap.0*"))
	if err != nil || len(gens) != 2 {
		t.Fatalf("want 2 generations, have %v (%v)", gens, err)
	}
	newest := gens[len(gens)-1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Tear the WAL tail: append half a record's worth of garbage, as if
	// the final append's pages flushed partially before power was cut.
	segs, err := filepath.Glob(filepath.Join(c.walDir, "wal.*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v (%v)", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c.verify(c.mustBoot(fault.OS{}))
}

// TestRecoveryAllSnapshotsCorruptFailsLoudly: when every generation is
// unreadable, recovery must refuse to start (serving an empty index as
// if it were the data would be silent loss).
func TestRecoveryAllSnapshotsCorruptFailsLoudly(t *testing.T) {
	c := newCrashHarness(t)
	s := c.mustBoot(fault.OS{})
	for _, tokens := range paperdata.Table1()[:4] {
		c.add(s, tokens)
	}
	if err := c.snapshot(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gens, _ := filepath.Glob(filepath.Join(c.snapDir, "snap.0*"))
	for _, g := range gens {
		if err := os.WriteFile(g, []byte("rotten"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.boot(fault.OS{}); err == nil {
		t.Fatal("recovery over all-corrupt snapshots succeeded silently")
	}
}

// TestReadyzGatesOnRecovery: before Recover the server reports 503 and
// rejects expensive endpoints; after, it serves.
func TestReadyzGatesOnRecovery(t *testing.T) {
	h, _ := paperdata.Fig1()
	s, err := NewRecovering(h, core.Defaults(0.7, 0.6), Config{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before recovery = %d, want 503", rec.Code)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/objects", strings.NewReader(`{"tokens":["kfc"]}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST /objects before recovery = %d, want 503", rec.Code)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz before recovery = %d, want 200 (liveness is not readiness)", rec.Code)
	}
	dir := t.TempDir()
	if err := s.Recover(Durability{WALDir: filepath.Join(dir, "wal"), SnapshotDir: filepath.Join(dir, "snap")}); err != nil {
		t.Fatal(err)
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", rec.Code)
	}
	if rec := get("/stats"); !strings.Contains(rec.Body.String(), "wal_last_seq") {
		t.Fatalf("/stats lacks wal fields: %s", rec.Body.String())
	}
}

// TestRecoverEmptyKeepsPlaceholder: recovery from empty directories
// serves the index NewRecovering made instead of building a second one.
func TestRecoverEmptyKeepsPlaceholder(t *testing.T) {
	h, _ := paperdata.Fig1()
	s, err := NewRecovering(h, core.Defaults(0.7, 0.6), Config{})
	if err != nil {
		t.Fatal(err)
	}
	placeholder := s.ix.Load()
	dir := t.TempDir()
	if err := s.Recover(Durability{WALDir: filepath.Join(dir, "wal"), SnapshotDir: filepath.Join(dir, "snap")}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ix.Load() != placeholder {
		t.Fatal("an empty recovery replaced the placeholder index")
	}
}

// TestWalFailureDegradesNotCorrupts: after the log poisons itself the
// server keeps answering queries, refuses new adds fast, reports the
// state in /stats, and refuses to snapshot (a snapshot could persist
// index state the log never acknowledged).
func TestWalFailureDegradesNotCorrupts(t *testing.T) {
	c := newCrashHarness(t)
	inj := fault.NewInjector(fault.OS{},
		fault.Fault{Op: fault.OpSync, Path: "wal.", N: 2, Mode: fault.Fail})
	s := c.mustBoot(inj)
	objects := paperdata.Table1()
	for _, tokens := range objects[:4] {
		c.add(s, tokens)
	}
	if len(c.acked) != 1 {
		t.Fatalf("acked %d adds, want 1 (fsync 2 rejected, then poisoned)", len(c.acked))
	}
	// Queries still serve.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(`{"tokens":["kfc"]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("query on degraded server = %d, want 200", rec.Code)
	}
	// Stats say the log is unhealthy.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if !strings.Contains(rec.Body.String(), `"wal_healthy":false`) {
		t.Fatalf("/stats does not report the poisoned log: %s", rec.Body.String())
	}
	// Snapshots are refused.
	if err := s.SnapshotGeneration(); err == nil {
		t.Fatal("snapshot succeeded on a poisoned log")
	}
	inj.Crash()
	c.verify(c.mustBoot(fault.OS{}))
}

// TestWalAppendFailurePoisonsSnapshot: the write-failure flavor of
// poisoning. A failed Append leaves the rejected object in the index
// while the durable sequence never advanced, so a later Sync on that
// stale sequence succeeds — the snapshot must still be refused, or it
// would durably persist an add whose acknowledgment was refused. The
// rejected request must also surface as wal_failed, like every other
// WAL failure path.
func TestWalAppendFailurePoisonsSnapshot(t *testing.T) {
	c := newCrashHarness(t)
	inj := fault.NewInjector(fault.OS{},
		fault.Fault{Op: fault.OpWrite, Path: "wal.", N: 3, Mode: fault.Fail})
	s := c.mustBoot(inj)
	objects := paperdata.Table1()
	for _, tokens := range objects[:2] {
		if !c.add(s, tokens) {
			t.Fatal("healthy add rejected")
		}
	}
	// The third append fails and poisons the log; the object is in the
	// index but was never acknowledged.
	body, _ := json.Marshal(map[string]any{"tokens": objects[2]})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/objects", strings.NewReader(string(body))))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "wal_failed") {
		t.Fatalf("poisoning add = %d %s, want 500 with code wal_failed", rec.Code, rec.Body.String())
	}
	if err := s.SnapshotGeneration(); err == nil {
		t.Fatal("snapshot succeeded on a log poisoned by a failed append (would persist an unacknowledged add)")
	}
	inj.Crash()
	c.verify(c.mustBoot(fault.OS{}))
}

// TestCompactionFloorSurvivesRestart: the compaction floor must be
// re-seeded from every generation still on disk, not just the one that
// loaded. Otherwise the first post-restart compaction deletes WAL
// records the older generations need, and a later fallback past a
// corrupt newest generation finds its log gone.
func TestCompactionFloorSurvivesRestart(t *testing.T) {
	objects := paperdata.Table1()
	c := newCrashHarness(t)
	c.keep = 3
	s := c.mustBoot(fault.OS{})
	for i, tokens := range objects[:5] {
		if !c.add(s, tokens) {
			t.Fatalf("add %d rejected on a healthy filesystem", i)
		}
		if i == 1 || i == 3 {
			if err := c.snapshot(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart (two generations on disk, one unsnapshotted WAL record),
	// then add and snapshot so compaction runs with the re-seeded floor.
	s = c.mustBoot(fault.OS{})
	if !c.add(s, objects[5]) {
		t.Fatal("post-restart add rejected")
	}
	if err := c.snapshot(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Rot every generation but the oldest: recovery must fall back to it
	// and find all the WAL records it needs still in the log.
	gens, err := filepath.Glob(filepath.Join(c.snapDir, "snap.0*"))
	if err != nil || len(gens) != 3 {
		t.Fatalf("want 3 generations, have %v (%v)", gens, err)
	}
	for _, g := range gens[1:] {
		if err := os.WriteFile(g, []byte("rotten"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c.verify(c.mustBoot(fault.OS{}))
}

// TestRecoveryRefusesOvercompactedWal: when the log's numbering proves
// records were compacted past what the loaded snapshot covers (a single
// empty segment whose name is ahead of the snapshot's sequence),
// recovery must fail loudly — replaying nothing and serving the shorter
// index would silently drop acknowledged adds.
func TestRecoveryRefusesOvercompactedWal(t *testing.T) {
	c := newCrashHarness(t)
	s := c.mustBoot(fault.OS{})
	objects := paperdata.Table1()
	for _, tokens := range objects[:2] {
		c.add(s, tokens)
	}
	if err := c.snapshot(s); err != nil { // generation 1 @ seq 2
		t.Fatal(err)
	}
	for _, tokens := range objects[2:4] {
		c.add(s, tokens)
	}
	if err := c.snapshot(s); err != nil { // generation 2 @ seq 4
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate an over-compacted log: every record gone, numbering
	// surviving only in the fresh segment's name (first seq 5).
	if err := os.RemoveAll(c.walDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(c.walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.walDir, fmt.Sprintf("wal.%020d", 5)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Rot the newest generation: the fallback covers only seq 2, and the
	// acknowledged adds at seqs 3 and 4 now exist nowhere.
	gens, err := filepath.Glob(filepath.Join(c.snapDir, "snap.0*"))
	if err != nil || len(gens) != 2 {
		t.Fatalf("want 2 generations, have %v (%v)", gens, err)
	}
	if err := os.WriteFile(gens[len(gens)-1], []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = c.boot(fault.OS{})
	if err == nil {
		t.Fatal("recovery over an over-compacted wal succeeded silently")
	}
	if !strings.Contains(err.Error(), "compacted") {
		t.Fatalf("wrong failure shape: %v", err)
	}
}

// TestRecoverRejectsDeletedWal: a WAL deleted out-of-band while
// snapshots claim coverage must fail recovery loudly, not serve the
// snapshot as if nothing happened.
func TestRecoverRejectsDeletedWal(t *testing.T) {
	c := newCrashHarness(t)
	s := c.mustBoot(fault.OS{})
	for _, tokens := range paperdata.Table1()[:4] {
		c.add(s, tokens)
	}
	if err := c.snapshot(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(c.walDir); err != nil {
		t.Fatal(err)
	}
	_, err := c.boot(fault.OS{})
	if err == nil {
		t.Fatal("recovery with a deleted wal succeeded")
	}
	if errors.Is(err, os.ErrNotExist) {
		t.Fatalf("wrong failure shape: %v", err)
	}
}

// TestConcurrentAddsCrashAtSyncBoundary: many goroutines add at once
// (group-committing onto shared fsyncs) and the filesystem dies at a
// sync boundary. Acknowledged adds are exactly the records of completed
// group commits — a clean prefix of the log — and recovery must produce
// exactly them, in id order, answering identically to an oracle built
// from them.
func TestConcurrentAddsCrashAtSyncBoundary(t *testing.T) {
	c := newCrashHarness(t)
	inj := fault.NewInjector(fault.OS{},
		fault.Fault{Op: fault.OpSync, Path: "wal.", N: 3, Mode: fault.CrashBefore})
	s := c.mustBoot(inj)

	objects := paperdata.Table1()
	type ackedAdd struct {
		id     int
		tokens []string
	}
	var (
		mu    sync.Mutex
		acked []ackedAdd
	)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				tokens := objects[(g*4+i)%len(objects)]
				body, _ := json.Marshal(map[string]any{"tokens": tokens})
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/objects", strings.NewReader(string(body))))
				if rec.Code != http.StatusOK {
					continue
				}
				var resp struct {
					ID int `json:"id"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked = append(acked, ackedAdd{id: resp.ID, tokens: tokens})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	// Ids are assigned in lockstep with WAL sequences, and only completed
	// group commits were acknowledged, so the acked set sorted by id is
	// the exact insertion order recovery must reproduce.
	sort.Slice(acked, func(i, j int) bool { return acked[i].id < acked[j].id })
	for i, a := range acked {
		if a.id != i {
			t.Fatalf("acked ids are not a contiguous prefix: position %d has id %d", i, a.id)
		}
		c.acked = append(c.acked, a.tokens)
	}
	c.verify(c.mustBoot(fault.OS{}))
}

// TestSnapshotGenerationSkipsWhenIdle: repeated snapshots with no new
// adds must not churn generations — one generation per state, not per
// tick.
func TestSnapshotGenerationSkipsWhenIdle(t *testing.T) {
	c := newCrashHarness(t)
	s := c.mustBoot(fault.OS{})
	for _, tokens := range paperdata.Table1()[:3] {
		c.add(s, tokens)
	}
	for i := 0; i < 4; i++ {
		if err := s.SnapshotGeneration(); err != nil {
			t.Fatal(err)
		}
	}
	gens, _ := filepath.Glob(filepath.Join(c.snapDir, "snap.0*"))
	if len(gens) != 1 {
		t.Fatalf("idle snapshotting produced %d generations, want 1", len(gens))
	}
	// New adds make the next snapshot real again.
	c.add(s, paperdata.Table1()[3])
	if err := s.SnapshotGeneration(); err != nil {
		t.Fatal(err)
	}
	gens, _ = filepath.Glob(filepath.Join(c.snapDir, "snap.0*"))
	if len(gens) != 2 {
		t.Fatalf("post-add snapshot produced %d generations, want 2", len(gens))
	}
	c.verify(c.mustBoot(fault.OS{}))
}

// TestRecoverySegmentLayoutFromSealRecords: the segmented-engine
// durability contract. A small memtable forces several seals (each
// logged as an OpSeal record) and background merges while the workload
// streams in; a mid-run snapshot captures one intermediate layout so
// recovery exercises both the v3 verbatim-layout load and seal-record
// replay on top of it. After a power cut, the rebooted engine — once
// its merger quiesces — must reproduce the exact pre-crash segment
// layout, not merely the same objects.
func TestRecoverySegmentLayoutFromSealRecords(t *testing.T) {
	c := newCrashHarness(t)
	c.opt.SealEvery = 3

	// 22 objects: Table 1 cycled with a distinguishing free token. With
	// SealEvery=3 the seal sequence reaches the multi-segment fixpoint
	// [12 6 3] with one object left in the memtable — a layout with
	// history, not a single collapsed segment.
	base := paperdata.Table1()
	var objects [][]string
	for i := 0; i < 22; i++ {
		o := append([]string(nil), base[i%len(base)]...)
		objects = append(objects, append(o, fmt.Sprintf("extra%d", i)))
	}

	inj := fault.NewInjector(fault.OS{})
	s := c.mustBoot(inj)
	for i, tokens := range objects {
		if !c.add(s, tokens) {
			t.Fatalf("add %d rejected on a healthy filesystem", i)
		}
		if i == 7 {
			// Snapshot while merges may be mid-flight: the pinned view's
			// layout is whatever the race left published.
			if err := c.snapshot(s); err != nil {
				t.Fatal(err)
			}
		}
	}

	ix := s.ix.Load()
	ix.WaitMerges()
	pre := ix.SegmentSizes()
	preStats := ix.SegmentStats()
	if len(pre) < 2 {
		t.Fatalf("workload produced layout %v; need a multi-segment fixpoint to make the test meaningful", pre)
	}
	if preStats.SealTotal == 0 || preStats.MergeTotal == 0 {
		t.Fatalf("workload never sealed or merged: %+v", preStats)
	}

	inj.Crash()
	s2 := c.mustBoot(fault.OS{})
	ix2 := s2.ix.Load()
	ix2.WaitMerges()
	if got := ix2.SegmentSizes(); !reflect.DeepEqual(got, pre) {
		t.Fatalf("recovered layout %v, pre-crash layout %v", got, pre)
	}
	if got := ix2.SegmentStats(); got.MemObjects != preStats.MemObjects {
		t.Fatalf("recovered memtable holds %d objects, pre-crash %d", got.MemObjects, preStats.MemObjects)
	}
	c.verify(s2)
}
