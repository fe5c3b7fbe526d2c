package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"kjoin/internal/core"
	"kjoin/internal/hierarchy"
	"kjoin/internal/rng"
	"kjoin/internal/serverutil"
	"kjoin/internal/wal"
)

// This file is the server side of WAL-shipping replication. A primary
// with durability configured exposes two extra endpoints:
//
//	GET /wal/stream?from=<seq>&wait=<dur>  one batch of durable, framed
//	                                       WAL records starting at seq
//	GET /replica/snapshot                  a durable snapshot to bootstrap
//	                                       or resync a follower from
//
// The stream is a long poll, not an infinite chunked body: each response
// is one self-delimiting batch (Content-Length set) carrying the
// primary's durable horizon in a header, and the follower immediately
// re-polls from its next unapplied sequence. That keeps resumption
// trivial — the request parameter is the only cursor — and means a
// half-delivered batch tears exactly like a crashed WAL tail, which the
// frame checksums already reject.
//
// A server started with NewReplica is the other side: read-only, fed
// through ApplyReplicated/InstallIndex by a replica.Follower, and
// gating /query on a bounded-staleness check.

// Replication protocol headers.
const (
	// HeaderDurableSeq carries the primary's durable WAL horizon on
	// /wal/stream and /replica/snapshot responses.
	HeaderDurableSeq = "X-Kjoin-Durable-Seq"
	// HeaderWALFloor carries the compaction floor on a 410 stream
	// response: the lowest sequence the primary can still serve.
	HeaderWALFloor = "X-Kjoin-Wal-Floor"
	// HeaderReplicaLag carries a replica's staleness (milliseconds since
	// it last confirmed catch-up; -1 = never) on /query responses.
	HeaderReplicaLag = "X-Kjoin-Replica-Lag-Ms"
)

const (
	// streamBatchBytes caps one /wal/stream response body (whole frames).
	streamBatchBytes = 256 << 10
	// streamPollInterval is the nominal pause between a waiting stream
	// handler's re-checks of the durable horizon; each pause is jittered
	// to [1/2, 3/2) of it (see streamPollJitter).
	streamPollInterval = 10 * time.Millisecond
	// maxStreamWait caps the wait parameter so a stream request can never
	// hold a connection longer than a load balancer tolerates.
	maxStreamWait = 30 * time.Second
)

// StalenessMode selects what a replica does with queries once its lag
// exceeds the configured bound.
type StalenessMode int

const (
	// StaleReject answers 503 (code "stale_replica") when the lag bound
	// is exceeded: clients fail over to another endpoint.
	StaleReject StalenessMode = iota
	// StaleMark serves the query anyway and reports the lag in the
	// X-Kjoin-Replica-Lag-Ms header: clients decide for themselves.
	StaleMark
)

// ReplicaConfig bounds how stale a replica may serve reads.
type ReplicaConfig struct {
	// Bound is the maximum tolerated staleness (default 5s): time since
	// the replica last confirmed it had applied everything the primary
	// had durably acknowledged.
	Bound time.Duration
	// Mode is what to do beyond the bound (default StaleReject).
	Mode StalenessMode
}

// replicaState is the follower-side replication telemetry, updated by
// the replica.Follower loop and read lock-free by handlers.
type replicaState struct {
	cfg ReplicaConfig
	// applied is the highest WAL sequence applied to the index.
	applied atomic.Uint64
	// lastCaughtUp is the unixnano instant the follower last confirmed
	// catch-up with the primary's durable horizon (0 = never).
	lastCaughtUp atomic.Int64
	// healthy is false while the stream is broken (backoff, resync).
	healthy atomic.Bool
}

// lag returns the current staleness; ok is false before first catch-up.
func (rs *replicaState) lag() (time.Duration, bool) {
	t := rs.lastCaughtUp.Load()
	if t == 0 {
		return 0, false
	}
	return time.Since(time.Unix(0, t)), true
}

// lagSeconds is lag for /stats: seconds, or -1 before first catch-up.
func (rs *replicaState) lagSeconds() float64 {
	d, ok := rs.lag()
	if !ok {
		return -1
	}
	return d.Seconds()
}

// NewReplica returns a read-only follower server: adds answer 403,
// /query passes the bounded-staleness gate, and /readyz reports 503
// until the first catch-up (MarkReplicaCaughtUp). The index is fed
// exclusively through InstallIndex and ApplyReplicated — normally by a
// replica.Follower tailing a primary's /wal/stream.
func NewReplica(h *hierarchy.Hierarchy, opt core.Options, cfg Config, rc ReplicaConfig) (*Server, error) {
	ix, err := core.NewIndexer(h, opt)
	if err != nil {
		return nil, err
	}
	if rc.Bound <= 0 {
		rc.Bound = 5 * time.Second
	}
	s := wrap(h, opt, cfg, ix)
	s.replica = &replicaState{cfg: rc}
	s.SetReady(false)
	return s, nil
}

// IsReplica reports whether this server is a read-only follower.
func (s *Server) IsReplica() bool { return s.replica != nil }

// ApplyReplicated applies one shipped WAL record to the index through
// the same contiguity-checked paths recovery replays through: seq must
// be exactly one past the last applied sequence. Seal records reproduce
// the primary's segment layout on the follower.
func (s *Server) ApplyReplicated(seq uint64, op wal.Op, tokens []string) error {
	s.mu.Lock()
	ix := s.ix.Load()
	var err error
	if op == wal.OpSeal {
		err = ix.ApplySealLogged(seq)
	} else {
		err = ix.ApplyLogged(seq, tokens)
	}
	s.mu.Unlock()
	if err == nil && s.replica != nil {
		s.replica.applied.Store(seq)
	}
	return err
}

// InstallIndex atomically replaces the served index — a follower
// bootstrapping or resyncing from a snapshot swaps the rebuilt index in
// whole, never exposing a half-applied state to queries.
func (s *Server) InstallIndex(ix *core.Indexer) {
	s.mu.Lock()
	s.ix.Store(ix)
	s.mu.Unlock()
	if s.replica != nil {
		s.replica.applied.Store(ix.WALSeq())
	}
}

// MarkReplicaCaughtUp records that at instant t the replica had applied
// every record the primary had durably acknowledged as of t. The first
// call flips the server ready: a replica serves no queries before it
// has caught up once.
func (s *Server) MarkReplicaCaughtUp(t time.Time) {
	rs := s.replica
	if rs == nil {
		return
	}
	rs.lastCaughtUp.Store(t.UnixNano())
	rs.healthy.Store(true)
	s.SetReady(true)
}

// SetReplicaHealthy flips the stream-health flag /stats reports (false
// while the follower is backing off or resyncing).
func (s *Server) SetReplicaHealthy(v bool) {
	if rs := s.replica; rs != nil {
		rs.healthy.Store(v)
	}
}

// ReplicaAppliedSeq returns the highest applied WAL sequence (0 on a
// non-replica).
func (s *Server) ReplicaAppliedSeq() uint64 {
	if rs := s.replica; rs != nil {
		return rs.applied.Load()
	}
	return 0
}

// readOnly rejects writes on a replica — outermost, ahead of even the
// ready gate: a follower's index is a replay of the primary's log, and
// a locally accepted add would fork it from the stream it is applying.
// On a primary it is a no-op.
func (s *Server) readOnly(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.replica != nil {
			serverutil.WriteError(w, http.StatusForbidden, "read_only_replica",
				"this server is a read replica; send writes to the primary")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// staleGate enforces the bounded-staleness contract on a replica's
// queries; on a primary it is a no-op. Reject mode answers 503 so a
// fail-over client moves on; mark mode serves the result and lets the
// lag header speak.
func (s *Server) staleGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs := s.replica
		if rs == nil {
			next.ServeHTTP(w, r)
			return
		}
		lag, ok := rs.lag()
		ms := int64(-1)
		if ok {
			ms = lag.Milliseconds()
		}
		w.Header().Set(HeaderReplicaLag, strconv.FormatInt(ms, 10))
		if rs.cfg.Mode == StaleMark {
			next.ServeHTTP(w, r)
			return
		}
		if !ok || lag > rs.cfg.Bound {
			serverutil.WriteError(w, http.StatusServiceUnavailable, "stale_replica",
				fmt.Sprintf("replica lag %dms exceeds the %s staleness bound", ms, rs.cfg.Bound))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// handleWALStream serves one batch of durable WAL frames from the
// sequence in ?from. With ?wait=<duration> the handler long-polls: an
// empty durable horizon is re-checked until a record arrives or the
// wait expires, and an empty 200 tells the follower "you are caught up
// as of this instant". A from below the compaction floor answers 410
// Gone with the floor in a header — the follower must resync from a
// snapshot, and silently skipping ahead would hide lost records.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	wlog := s.log.Load().WAL()
	if wlog == nil {
		serverutil.WriteError(w, http.StatusServiceUnavailable, "replication_unavailable",
			"this server has no write-ahead log to stream (durability not configured)")
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		serverutil.WriteError(w, http.StatusBadRequest, "bad_from",
			"from must be a positive WAL sequence number")
		return
	}
	var wait time.Duration
	if ws := q.Get("wait"); ws != "" {
		wait, err = time.ParseDuration(ws)
		if err != nil || wait < 0 {
			serverutil.WriteError(w, http.StatusBadRequest, "bad_wait",
				"wait must be a non-negative duration")
			return
		}
		if wait > maxStreamWait {
			wait = maxStreamWait
		}
	}
	deadline := time.Now().Add(wait)
	for {
		frames, _, durable, rerr := wlog.ReadDurable(from, streamBatchBytes)
		if rerr != nil {
			var ce *wal.CompactedError
			if errors.As(rerr, &ce) {
				w.Header().Set(HeaderWALFloor, strconv.FormatUint(ce.Floor, 10))
				serverutil.WriteError(w, http.StatusGone, "wal_compacted", ce.Error())
				return
			}
			serverutil.Fail(w, http.StatusInternalServerError, "wal_stream_failed", rerr)
			return
		}
		if len(frames) > 0 || !time.Now().Before(deadline) {
			w.Header().Set(HeaderDurableSeq, strconv.FormatUint(durable, 10))
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(frames)))
			_, _ = w.Write(frames)
			return
		}
		select {
		case <-r.Context().Done():
			// Client gone; there is no one to answer.
			return
		case <-time.After(s.streamPollJitter()):
		}
	}
}

// streamPollJitter returns the next long-poll pause: uniform in
// [interval/2, 3·interval/2), deterministically seeded. A fleet of
// followers all waiting on the same durable horizon would otherwise
// re-check in lockstep and hit the log together on every tick — the
// same thundering-herd shape serverutil.Admit jitters its Retry-After
// against.
func (s *Server) streamPollJitter() time.Duration {
	s.pollMu.Lock()
	defer s.pollMu.Unlock()
	if s.pollR == nil {
		s.pollR = rng.New(s.Edge.Seed)
	}
	return streamPollInterval/2 + time.Duration(s.pollR.Float64()*float64(streamPollInterval))
}

// handleReplicaSnapshot serves a durable snapshot for follower
// bootstrap/resync: the log is fsync'd through the snapshot's sequence
// before a byte is sent, so the snapshot can never contain a record the
// primary might yet refuse to acknowledge.
func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	buf, seq, err := s.SnapshotBuffer()
	if err != nil {
		serverutil.Fail(w, http.StatusInternalServerError, "snapshot_failed", err)
		return
	}
	w.Header().Set(HeaderDurableSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = io.Copy(w, buf)
}

// SnapshotBuffer serializes the index pinned the way SnapshotGeneration
// pins it (refusing while the log is poisoned) and — when a WAL is
// configured — syncs the log through the snapshot's sequence. It
// returns the buffer and the WAL sequence the snapshot covers.
// Followers also use it to persist their local catch-up snapshots
// (where no WAL is configured and the sync is a no-op).
//
// The barrier role is declared by contract rather than derived: the
// sync is conditional on a WAL being configured, and when there is
// none, a successful return still means "everything this snapshot
// covers is as durable as the log can make it".
//
//kjoinlint:ackorder barrier
func (s *Server) SnapshotBuffer() (*bytes.Buffer, uint64, error) {
	pv, wlog, err := s.pin()
	if err != nil {
		return nil, 0, fmt.Errorf("server: %w", err)
	}
	seq := pv.WALSeq()
	var buf bytes.Buffer
	if err := pv.WriteSnapshot(&buf); err != nil {
		return nil, 0, err
	}
	if wlog != nil {
		if serr := wlog.Sync(seq); serr != nil {
			return nil, 0, fmt.Errorf("server: wal sync before snapshot: %w", serr)
		}
	}
	return &buf, seq, nil
}
