// Package replica implements WAL-shipping read replicas for the kjoin
// server: a Follower that bootstraps from a primary snapshot, tails the
// primary's /wal/stream long poll, and applies records through the same
// contiguity-checked path crash recovery replays through; and a
// fail-over Client that routes reads across primary + replicas with
// per-try deadlines, jittered backoff and hedged fallback. Call is the
// one outbound JSON request the Client and the cluster coordinator make
// to a kjoin tier, carrying the caller's remaining deadline budget.
//
// The replication contract is the durability contract stretched over a
// network: a follower only ever applies records the primary durably
// acknowledged (the stream never ships an unsynced byte), a torn or
// corrupt frame is dropped with the connection and re-fetched — never
// applied — and when primary compaction has deleted the records a
// follower needs, the stream says so loudly (410 + floor) and the
// follower resyncs from a fresh snapshot instead of silently skipping
// ahead.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"kjoin/internal/core"
	"kjoin/internal/fault"
	"kjoin/internal/hierarchy"
	"kjoin/internal/rng"
	"kjoin/internal/server"
	"kjoin/internal/serverutil"
	"kjoin/internal/wal"
)

// errResync signals the tail loop that stream replay cannot continue
// from the current position and a full snapshot resync is required.
var errResync = errors.New("replica: stream resync required")

// Follower tails one primary and feeds one replica server.
type Follower struct {
	// Primary is the primary's base URL (required).
	Primary string
	// Srv is the replica server queries are served from (required; built
	// with server.NewReplica).
	Srv *server.Server
	// H and Opt must match the primary's hierarchy and join options —
	// snapshots carry a config fingerprint and refuse to load elsewhere.
	H   *hierarchy.Hierarchy
	Opt core.Options
	// HTTP is the client used for streaming and snapshot fetches (nil →
	// http.DefaultClient; chaos tests inject faulty transports).
	HTTP *http.Client
	// Dir is the local snapshot-generation directory the follower
	// persists its progress into and restarts from (required).
	Dir string
	// FS is the filesystem for Dir (nil → the real one).
	FS fault.FS
	// Keep is how many local generations to retain (default 2).
	Keep int
	// SnapshotEvery persists a local generation after this many applied
	// records (default 256). Restart replays at most this much stream.
	SnapshotEvery int
	// PollWait is the long-poll wait advertised to the primary (default
	// 2s). Shorter waits refresh the staleness clock more often.
	PollWait time.Duration
	// RequestTimeout bounds one snapshot fetch and, added to PollWait,
	// one stream poll (default 10s).
	RequestTimeout time.Duration
	// BackoffMin/BackoffMax bound the jittered exponential backoff after
	// a failed poll (defaults 100ms / 5s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed makes the backoff jitter deterministic (default 1).
	Seed uint64
	// Logf, when set, receives replication progress and fault notices.
	Logf func(format string, args ...any)

	// applied is owned by Run; it mirrors Srv.ReplicaAppliedSeq but
	// avoids a dependency on Srv's atomics for control flow.
	applied uint64
	// sinceSnap counts records applied since the last local generation.
	sinceSnap int
	// lastSaved is the sequence the newest local generation covers.
	lastSaved uint64
	// resyncs counts snapshot resyncs, for tests: a follower that can
	// resume from its own state performs zero.
	resyncs atomic.Int64
	// bootSource records how Run bootstrapped: "local" or "empty".
	bootSource atomic.Value
	gens       *serverutil.GenStore
}

// Resyncs returns how many full snapshot resyncs the follower has
// performed (bootstrap from the primary counts as one).
func (f *Follower) Resyncs() int64 { return f.resyncs.Load() }

// BootSource reports how the last Run bootstrapped: "local" (a local
// generation was loaded) or "empty" (no local state; the stream or a
// resync filled the index).
func (f *Follower) BootSource() string {
	if v, ok := f.bootSource.Load().(string); ok {
		return v
	}
	return ""
}

func (f *Follower) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

func (f *Follower) http() *http.Client {
	if f.HTTP != nil {
		return f.HTTP
	}
	return http.DefaultClient
}

func (f *Follower) pollWait() time.Duration {
	if f.PollWait > 0 {
		return f.PollWait
	}
	return 2 * time.Second
}

func (f *Follower) requestTimeout() time.Duration {
	if f.RequestTimeout > 0 {
		return f.RequestTimeout
	}
	return 10 * time.Second
}

func (f *Follower) snapshotEvery() int {
	if f.SnapshotEvery > 0 {
		return f.SnapshotEvery
	}
	return 256
}

// Run bootstraps from the newest local generation (if any), then tails
// the primary's stream until ctx is cancelled, persisting a final local
// generation on the way out. It returns nil on cancellation; every
// transient failure is retried with jittered exponential backoff.
func (f *Follower) Run(ctx context.Context) error {
	if f.Primary == "" || f.Srv == nil || f.Dir == "" {
		return errors.New("replica: Primary, Srv and Dir are required")
	}
	keep := f.Keep
	if keep <= 0 {
		keep = 2
	}
	f.gens = &serverutil.GenStore{FS: f.FS, Dir: f.Dir, Keep: keep, Logf: f.Logf}
	if err := f.bootstrap(); err != nil {
		return err
	}
	bmin, bmax := f.BackoffMin, f.BackoffMax
	if bmin <= 0 {
		bmin = 100 * time.Millisecond
	}
	if bmax < bmin {
		bmax = 5 * time.Second
	}
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	r := rng.New(seed)
	cur := bmin
	for {
		if ctx.Err() != nil {
			break
		}
		err := f.pollOnce(ctx)
		switch {
		case err == nil:
			cur = bmin // healthy poll; backoff resets
			continue
		case ctx.Err() != nil:
			// Shutting down; the poll failure is cancellation fallout.
		case errors.Is(err, errResync):
			f.Srv.SetReplicaHealthy(false)
			if rerr := f.resync(ctx); rerr != nil {
				f.logf("replica: resync failed: %v", rerr)
				cur = sleepJittered(ctx, r, cur, bmin, bmax)
			} else {
				cur = bmin
			}
			continue
		default:
			f.Srv.SetReplicaHealthy(false)
			f.logf("replica: poll failed (retrying in ~%v): %v", cur, err)
			cur = sleepJittered(ctx, r, cur, bmin, bmax)
			continue
		}
		break
	}
	// Best-effort final generation so a restart resumes from here.
	if err := f.saveLocal(); err != nil {
		f.logf("replica: final local snapshot failed: %v", err)
	}
	return nil
}

// sleepJittered sleeps cur scaled by a jitter in [0.5, 1.5) (or until
// ctx is done) and returns the doubled, capped next backoff.
func sleepJittered(ctx context.Context, r *rng.RNG, cur, min, max time.Duration) time.Duration {
	d := time.Duration(float64(cur) * (0.5 + r.Float64()))
	if d < min {
		d = min
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
	next := cur * 2
	if next > max {
		next = max
	}
	return next
}

// bootstrap loads the newest readable local generation into the server.
// With no local state the follower starts empty at sequence zero: its
// very first poll asks the primary for seq 1, and if that predates the
// compaction floor the 410 path performs the snapshot bootstrap.
func (f *Follower) bootstrap() error {
	var ix *core.Indexer
	name, err := f.gens.Load(func(rd io.Reader) error {
		loaded, _, lerr := core.LoadIndexerMeta(f.H, f.Opt, rd)
		if lerr != nil {
			return lerr
		}
		ix = loaded
		return nil
	})
	switch {
	case errors.Is(err, serverutil.ErrNoSnapshot):
		f.bootSource.Store("empty")
		f.applied = 0
		f.logf("replica: no local snapshot; starting empty")
		return nil
	case err != nil:
		return fmt.Errorf("replica: load local snapshot: %w", err)
	}
	f.Srv.InstallIndex(ix)
	f.applied = ix.WALSeq()
	f.lastSaved = f.applied
	f.bootSource.Store("local")
	f.logf("replica: bootstrapped from local generation %s (%d objects, wal seq %d)", name, ix.Len(), f.applied)
	return nil
}

// pollOnce performs one long poll against the primary's stream and
// applies whatever it returns. A nil return means the poll round-tripped
// (even if it carried no records); errResync means stream replay cannot
// continue from f.applied.
func (f *Follower) pollOnce(ctx context.Context) error {
	wait := f.pollWait()
	rctx, cancel := context.WithTimeout(ctx, f.requestTimeout()+wait)
	defer cancel()
	url := fmt.Sprintf("%s/wal/stream?from=%d&wait=%s", f.Primary, f.applied+1, wait)
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	// t0 is taken before the request: if the batch proves us caught up,
	// we were caught up at least as of the instant the poll started.
	t0 := time.Now()
	resp, err := f.http().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		// Fall through to decode.
	case http.StatusGone:
		floor := resp.Header.Get(server.HeaderWALFloor)
		f.logf("replica: records from seq %d compacted away on the primary (floor %s); resyncing from snapshot", f.applied+1, floor)
		return errResync
	default:
		return fmt.Errorf("replica: stream poll: primary answered %d", resp.StatusCode)
	}
	durable, err := strconv.ParseUint(resp.Header.Get(server.HeaderDurableSeq), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: stream poll: bad %s header: %w", server.HeaderDurableSeq, err)
	}
	dec := wal.NewStreamDecoder(resp.Body)
	for {
		if cerr := rctx.Err(); cerr != nil {
			// Cancelled mid-batch: records already applied stay applied;
			// the next poll (if any) resumes from f.applied.
			return cerr
		}
		seq, op, tokens, derr := dec.Next()
		if errors.Is(derr, io.EOF) {
			break
		}
		if derr != nil {
			// Torn or corrupt frame: never applied. Drop the batch and
			// re-poll from the last record that did apply.
			return fmt.Errorf("replica: stream frame after seq %d: %w", f.applied, derr)
		}
		if seq <= f.applied {
			continue // duplicate delivery is harmless; replay is idempotent here
		}
		if aerr := f.Srv.ApplyReplicated(seq, op, tokens); aerr != nil {
			// A contiguity refusal means this follower's state and the
			// stream disagree; only a snapshot can re-ground it.
			f.logf("replica: apply seq %d failed: %v", seq, aerr)
			return errResync
		}
		f.applied = seq
		f.sinceSnap++
	}
	if f.applied >= durable {
		f.Srv.MarkReplicaCaughtUp(t0)
	}
	f.Srv.SetReplicaHealthy(true)
	if f.sinceSnap >= f.snapshotEvery() {
		if serr := f.saveLocal(); serr != nil {
			f.logf("replica: local snapshot failed: %v", serr)
		}
	}
	return nil
}

// resync re-grounds the follower from a fresh primary snapshot: the
// catch-up path when the stream cannot serve from f.applied+1.
func (f *Follower) resync(ctx context.Context) error {
	rctx, cancel := context.WithTimeout(ctx, f.requestTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, f.Primary+"/replica/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.http().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: snapshot fetch: primary answered %d", resp.StatusCode)
	}
	ix, meta, err := core.LoadIndexerMeta(f.H, f.Opt, resp.Body)
	if err != nil {
		return fmt.Errorf("replica: snapshot fetch: %w", err)
	}
	f.Srv.InstallIndex(ix)
	f.applied = meta.WALSeq
	f.resyncs.Add(1)
	f.logf("replica: resynced from primary snapshot (%d objects, wal seq %d)", ix.Len(), f.applied)
	if serr := f.saveLocal(); serr != nil {
		f.logf("replica: local snapshot after resync failed: %v", serr)
	}
	return nil
}

// saveLocal persists the replica's current index as a local snapshot
// generation, so a restart resumes from here instead of re-shipping the
// whole log (or losing its place past the primary's compaction floor).
func (f *Follower) saveLocal() error {
	buf, seq, err := f.Srv.SnapshotBuffer()
	if err != nil {
		return err
	}
	if seq == f.lastSaved {
		return nil
	}
	name, err := f.gens.Save(func(w io.Writer) error {
		_, werr := w.Write(buf.Bytes())
		return werr
	})
	if err != nil {
		return err
	}
	f.lastSaved = seq
	f.sinceSnap = 0
	f.logf("replica: saved local generation %s (wal seq %d)", name, seq)
	return nil
}
