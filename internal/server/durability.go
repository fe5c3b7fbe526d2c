package server

import (
	"errors"
	"fmt"
	"io"

	"kjoin/internal/core"
	"kjoin/internal/hierarchy"
	"kjoin/internal/serverutil"
	"kjoin/internal/wal"
)

// Durability configures the crash-safety machinery: a write-ahead log
// acknowledged adds are fsync'd into before the HTTP response, and a
// directory of checksummed snapshot generations recovery rebuilds from.
type Durability = serverutil.Durability

// NewRecovering returns a server that is up but not yet ready: /healthz
// answers, /readyz reports 503 ("recovering"), and every expensive
// endpoint is rejected the same way until Recover completes. It lets
// the listener come up first so load balancers see an honest readiness
// signal while the index is rebuilt from disk.
func NewRecovering(h *hierarchy.Hierarchy, opt core.Options, cfg Config) (*Server, error) {
	ix, err := core.NewIndexer(h, opt)
	if err != nil {
		return nil, err
	}
	s := wrap(h, opt, cfg, ix)
	s.SetReady(false)
	return s, nil
}

// Recover rebuilds the index from the newest readable snapshot
// generation plus the write-ahead log (serverutil.Open) and flips the
// server ready. Every record acknowledged before the crash is replayed;
// nothing that was never acknowledged can appear, because
// unacknowledged records are either absent (fsync refused → rolled
// back) or past the torn-tail truncation point. Consecutive add records
// replay as runs through the engine's bulk path (ApplyLoggedRun), cut
// at each seal record, which then applies alone. It runs once, on a
// server from NewRecovering: a start with no snapshot keeps that
// server's empty placeholder index.
func (s *Server) Recover(d Durability) error {
	var ix *core.Indexer
	var run [][]string
	var first uint64 // seq of run[0]
	flush := func() (err error) {
		if len(run) > 0 {
			err = ix.ApplyLoggedRun(first, run)
			run = run[:0]
		}
		return err
	}
	l, err := serverutil.Open(d,
		func(r io.Reader) (uint64, int, error) {
			var err error
			if r == nil {
				// Nothing is served before Recover completes, so the
				// placeholder NewRecovering made is still empty.
				ix = s.ix.Load()
				return 0, 0, nil
			}
			if ix, _, err = core.LoadIndexerMeta(s.h, s.opt, r); err != nil {
				return 0, 0, err
			}
			return ix.WALSeq(), ix.Len(), nil
		},
		func(r io.Reader) (uint64, error) {
			m, err := core.PeekSnapshotMeta(r)
			return m.WALSeq, err
		},
		func(seq uint64, op wal.Op, tokens []string) error {
			if op == wal.OpSeal {
				// A logged seal boundary: reproduce the pre-crash segment
				// layout by sealing at exactly the same point.
				if err := flush(); err != nil {
					return err
				}
				return ix.ApplySealLogged(seq)
			}
			if len(run) == 0 {
				first = seq
			}
			if run = append(run, tokens); len(run) < 1024 { // bounds what replay holds
				return nil
			}
			return flush()
		},
		flush)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if d.Logf != nil {
		d.Logf("recovery: index at %d objects, wal seq %d", ix.Len(), ix.WALSeq())
	}
	// The seal logger goes in only after replay: replayed seals are
	// already in the log, and re-logging them would duplicate boundaries.
	// From here on, every seal the engine performs writes its OpSeal
	// record before the engine mutates.
	ix.SetSealLogger(l.WAL().AppendSeal)
	s.mu.Lock()
	s.ix.Store(ix)
	s.log.Store(l)
	s.mu.Unlock()
	s.SetReady(true)
	return nil
}

// Recover builds a server and runs crash recovery before returning it:
// the convenience form for callers that do not need to serve a
// readiness probe during recovery.
func Recover(h *hierarchy.Hierarchy, opt core.Options, cfg Config, d Durability) (*Server, error) {
	s, err := NewRecovering(h, opt, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Recover(d); err != nil {
		return nil, err
	}
	return s, nil
}

// SnapshotGeneration persists the index as a new snapshot generation
// and compacts the WAL (serverutil.Log.Snapshot). The view is pinned
// under the read lock and serialized outside every lock, so writers
// keep flowing while the bytes are produced.
func (s *Server) SnapshotGeneration() error {
	l := s.log.Load()
	if l == nil {
		return errors.New("server: durability not configured")
	}
	err := l.Snapshot(func() (uint64, func(io.Writer) error, error) {
		pv, _, err := s.pin()
		if err != nil {
			return 0, nil, err
		}
		return pv.WALSeq(), pv.WriteSnapshot, nil
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// pin pins the index for a snapshot and returns it with the WAL (nil
// without durability). A poisoned log refuses outright, and the read
// lock is what makes that check sound: after a failed Append the
// rejected object sits in the index while the durable sequence never
// advanced, so a sync on that stale sequence succeeds — and the snapshot
// would durably persist an add whose acknowledgment was refused. Appends
// serialize under the write lock, so with the check made under the read
// lock the pinned view can never contain such an object while Err reads
// nil.
func (s *Server) pin() (*core.PinnedView, *wal.WAL, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w := s.log.Load().WAL()
	if w != nil {
		if err := w.Err(); err != nil {
			return nil, nil, fmt.Errorf("wal unhealthy; refusing snapshot: %w", err)
		}
	}
	return s.ix.Load().Pin(), w, nil
}

// Close syncs and closes the WAL (a no-op without durability). The
// server keeps serving reads afterwards; adds fail.
func (s *Server) Close() error {
	if w := s.log.Load().WAL(); w != nil {
		return w.Close()
	}
	return nil
}
