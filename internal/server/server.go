// Package server exposes a K-Join Indexer over HTTP as a small JSON
// service: streaming deduplication (POST /objects), knowledge-aware
// similarity search (POST /query), pairwise scoring (POST /similarity),
// statistics (GET /stats), snapshots (GET /snapshot) and health probes
// (GET /healthz, GET /readyz). It backs the kjoin-serve command and is
// the "Yelp classifies similar restaurants" deployment shape from the
// paper's introduction.
//
// The server is production-hardened: queries and stats reads take no
// server lock at all — they pin the indexer's atomically published
// engine epoch and run against immutable segments — while adds
// serialize under the write lock, expensive endpoints sit behind a
// bounded-concurrency admission gate (429 + Retry-After when
// saturated), request bodies are size-capped, every request carries a
// deadline (shrinkable by X-Kjoin-Deadline-Ms) that aborts an in-flight
// join within one verification batch, handler panics degrade to a 500
// (all of it the serverutil.Edge every tier shares), and snapshots pin
// a view under the read lock (excluding only adds) and serialize it
// outside every lock so a slow client never blocks writers.
package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kjoin/internal/core"
	"kjoin/internal/hierarchy"
	"kjoin/internal/rng"
	"kjoin/internal/serverutil"
)

// Config bounds the resources a single request (or a burst of them) can
// consume. The zero value selects the defaults documented per field;
// the edge limits take serverutil.Limits' defaults.
type Config struct {
	// MaxBodyBytes caps a request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxInflight bounds concurrently executing expensive requests
	// (objects/query/similarity/snapshot, default 64).
	MaxInflight int
	// RequestTimeout is the per-request deadline (default 30s), which an
	// X-Kjoin-Deadline-Ms header may shrink; an expired deadline aborts
	// the join mid-flight and returns 503.
	RequestTimeout time.Duration
	// MaxTokens caps tokens per object (default 10000).
	MaxTokens int
	// MaxTokenLen caps the byte length of one token (default 1024).
	MaxTokenLen int
	// Seed seeds the deterministic jitter (default 1).
	Seed uint64
	// Logf, when set, receives recovered panics and snapshot errors.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxTokens == 0 {
		c.MaxTokens = 10000
	}
	if c.MaxTokenLen == 0 {
		c.MaxTokenLen = 1024
	}
	return c
}

// Server is an http.Handler serving one Indexer. The Indexer's
// segmented engine publishes an immutable view on every mutation, so
// queries and stats read it with no server lock at all. The server's mu
// has a narrower job: adds hold it exclusively so the index mutation
// and its WAL append commit as one unit (log order = insertion order),
// and snapshot pins take the read side so a pinned view can never land
// between an AddCtx and the SetWALSeq that records its log position.
type Server struct {
	// Edge is the shared HTTP edge: probes, the ready gate (down from
	// NewRecovering until Recover completes, and on a replica until its
	// first catch-up), admission, deadlines and body caps.
	*serverutil.Edge
	//kjoinlint:lockorder rank=20
	mu  sync.RWMutex
	h   *hierarchy.Hierarchy
	opt core.Options
	cfg Config
	// ix is the shared Indexer, swapped whole by Recover and
	// InstallIndex. Handlers Load it once and use that epoch: queries,
	// stats and snapshot pins are lock-free against the engine; only the
	// add path still serializes (under mu, see above).
	ix atomic.Pointer[core.Indexer]
	// log, when durability is configured, is the write-ahead log every
	// acknowledged add is fsync'd into, bound to the snapshot generations
	// recovery rebuilds from (installed by Recover, nil before).
	log     atomic.Pointer[serverutil.Log]
	sem     *serverutil.Semaphore // the edge's admission gate
	handler http.Handler

	// replica is non-nil on a follower: the server is read-only (adds are
	// rejected), /query passes a bounded-staleness gate, and /stats
	// reports replication lag. Installed by NewReplica before serving.
	replica *replicaState

	// pollMu guards pollR, the deterministic jitter source for the
	// /wal/stream long-poll interval. Leaf lock: nothing else is ever
	// acquired while it is held.
	//kjoinlint:lockorder rank=60
	pollMu sync.Mutex
	pollR  *rng.RNG // guarded by pollMu
}

// New returns a server over the hierarchy with the join options and
// default limits.
func New(h *hierarchy.Hierarchy, opt core.Options) (*Server, error) {
	return NewWithConfig(h, opt, Config{})
}

// NewWithConfig returns a server with explicit resource limits.
func NewWithConfig(h *hierarchy.Hierarchy, opt core.Options, cfg Config) (*Server, error) {
	ix, err := core.NewIndexer(h, opt)
	if err != nil {
		return nil, err
	}
	return wrap(h, opt, cfg, ix), nil
}

// NewFromSnapshot returns a server whose Indexer is rebuilt from a
// snapshot (see Indexer.WriteSnapshot) with default limits.
func NewFromSnapshot(h *hierarchy.Hierarchy, opt core.Options, r io.Reader) (*Server, error) {
	return NewFromSnapshotWithConfig(h, opt, Config{}, r)
}

// NewFromSnapshotWithConfig is NewFromSnapshot with explicit limits.
func NewFromSnapshotWithConfig(h *hierarchy.Hierarchy, opt core.Options, cfg Config, r io.Reader) (*Server, error) {
	ix, err := core.LoadIndexer(h, opt, r)
	if err != nil {
		return nil, err
	}
	return wrap(h, opt, cfg, ix), nil
}

func wrap(h *hierarchy.Hierarchy, opt core.Options, cfg Config, ix *core.Indexer) *Server {
	cfg = cfg.withDefaults()
	e := serverutil.NewEdge(serverutil.Limits{MaxBodyBytes: cfg.MaxBodyBytes, MaxInflight: cfg.MaxInflight,
		RequestTimeout: cfg.RequestTimeout, Seed: cfg.Seed, Logf: cfg.Logf})
	s := &Server{Edge: e, h: h, opt: opt, cfg: cfg, sem: e.Sem}
	s.ix.Store(ix)
	mux := http.NewServeMux()
	mux.Handle("POST /objects", s.readOnly(s.Limited(http.HandlerFunc(s.handleAdd))))
	mux.Handle("POST /query", s.Limited(s.staleGate(http.HandlerFunc(s.handleQuery))))
	mux.Handle("POST /similarity", s.Limited(http.HandlerFunc(s.handleSimilarity)))
	mux.Handle("GET /objects/{id}", s.Gate(http.HandlerFunc(s.handleGetObject)))
	mux.Handle("GET /snapshot", s.Limited(http.HandlerFunc(s.handleSnapshot)))
	mux.Handle("GET /wal/stream", s.Gate(http.HandlerFunc(s.handleWALStream)))
	mux.Handle("GET /replica/snapshot", s.Limited(http.HandlerFunc(s.handleReplicaSnapshot)))
	mux.HandleFunc("GET /stats", s.handleStats)
	s.handler = e.Handler(mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// SnapshotTo atomically writes the current index to path: the view is
// pinned under the read lock (a cheap pointer copy — writers wait only
// for that instant), serialized outside it, and written
// temp+fsync+rename so a crash mid-write never leaves a corrupt or
// truncated snapshot behind.
func (s *Server) SnapshotTo(path string) error {
	s.mu.RLock()
	pv := s.ix.Load().Pin()
	s.mu.RUnlock()
	return serverutil.WriteFileAtomic(path, func(w io.Writer) error {
		return pv.WriteSnapshot(w)
	})
}

// handleSnapshot streams the current index contents as a snapshot the
// server (or any Indexer) can be rebuilt from. The view is pinned under
// the read lock and serialized after the lock is released — neither a
// slow client nor the serialization itself can block writers.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	pv := s.ix.Load().Pin()
	s.mu.RUnlock()
	var buf bytes.Buffer
	if err := pv.WriteSnapshot(&buf); err != nil {
		serverutil.Fail(w, http.StatusInternalServerError, "snapshot_failed", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = io.Copy(w, &buf)
}

// objectRequest is the body of POST /objects and POST /query.
type objectRequest struct {
	Tokens []string `json:"tokens"`
}

// pairJSON is one reported similar pair.
type pairJSON struct {
	X   int     `json:"x"`
	Y   int     `json:"y"`
	Sim float64 `json:"sim"`
}

// addResponse is the body of a successful POST /objects.
type addResponse struct {
	ID    int        `json:"id"`
	Pairs []pairJSON `json:"pairs"`
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req objectRequest
	if !serverutil.DecodeJSON(w, r, &req) || !s.checkTokens(w, req.Tokens) {
		return
	}
	s.mu.Lock()
	ix := s.ix.Load()
	wlog := s.log.Load().WAL()
	// Fail fast once the log is poisoned: taking more adds into an index
	// the log cannot vouch for only widens the gap recovery will erase.
	if wlog != nil {
		if werr := wlog.Err(); werr != nil {
			s.mu.Unlock()
			serverutil.Fail(w, http.StatusInternalServerError, "wal_failed", werr)
			return
		}
	}
	// The id is Add's return value, not a separate Len() read — the two
	// can never desynchronize, whatever the locking around them does.
	// The WAL append happens under the same critical section, after a
	// successful AddCtx (which is atomic on failure): log order therefore
	// matches insertion order exactly, and a record can never exist for
	// an object the index rejected. (A seal the add triggers logs its own
	// OpSeal record from inside AddCtx, immediately before this add's
	// record — same critical section, so the pair stays adjacent.)
	id, pairs, err := ix.AddCtx(r.Context(), req.Tokens)
	var seq uint64
	walFailed := false
	if err == nil && wlog != nil {
		if seq, err = wlog.Append(req.Tokens); err != nil {
			walFailed = true
		} else {
			ix.SetWALSeq(seq)
		}
	}
	s.mu.Unlock()
	if err != nil {
		// The poisoning Append failure is a WAL failure like the fast-fail
		// and fsync paths — operators watching wal_failed must see it too.
		if walFailed {
			serverutil.Fail(w, http.StatusInternalServerError, "wal_failed", err)
		} else {
			serverutil.Fail(w, http.StatusInternalServerError, "internal", err)
		}
		return
	}
	if wlog != nil {
		// Group-committed fsync outside the lock: concurrent adds keep
		// flowing and ride the same flush. The acknowledgment below is
		// written only after this returns — an acked add survives any
		// crash, and a refused fsync rolls the record back so the add it
		// would have acknowledged cannot resurface.
		if werr := wlog.Sync(seq); werr != nil {
			serverutil.Fail(w, http.StatusInternalServerError, "wal_failed", werr)
			return
		}
	}
	resp := addResponse{ID: id, Pairs: make([]pairJSON, 0, len(pairs))}
	for _, p := range pairs {
		resp.Pairs = append(resp.Pairs, pairJSON{X: p.X, Y: p.Y, Sim: p.Sim})
	}
	serverutil.WriteJSON(w, resp)
}

// handleGetObject serves one indexed object's normalized tokens by
// local id — the cluster reshard mover streams moving objects off their
// old home through it. Reads are lock-free against the engine's pinned
// view, and the tokens round-trip bit-identically (they are exactly
// what a snapshot would carry).
func (s *Server) handleGetObject(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		serverutil.WriteError(w, http.StatusBadRequest, "bad_id",
			fmt.Sprintf("object id must be a non-negative integer, got %q", r.PathValue("id")))
		return
	}
	pv := s.ix.Load().Pin()
	tokens, ok := pv.ObjectTokens(id)
	if !ok {
		serverutil.WriteError(w, http.StatusNotFound, "unknown_object",
			fmt.Sprintf("object %d is not indexed here (have %d)", id, pv.Objects()))
		return
	}
	serverutil.WriteJSON(w, map[string]any{"id": id, "tokens": tokens})
}

// matchJSON is one POST /query result.
type matchJSON struct {
	Index int     `json:"index"`
	Sim   float64 `json:"sim"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req objectRequest
	if !serverutil.DecodeJSON(w, r, &req) || !s.checkTokens(w, req.Tokens) {
		return
	}
	// The whole query path is lock-free at the server layer: PrepareQuery
	// synchronizes the shared preprocessing caches internally, and
	// RunQuery probes the engine's atomically published view. Concurrent
	// adds never stall a query.
	ix := s.ix.Load()
	q, err := ix.PrepareQuery(req.Tokens)
	if err != nil {
		serverutil.Fail(w, http.StatusInternalServerError, "internal", err)
		return
	}
	matches, err := ix.RunQuery(r.Context(), q)
	if err != nil {
		serverutil.Fail(w, http.StatusInternalServerError, "internal", err)
		return
	}
	out := make([]matchJSON, 0, len(matches))
	for _, m := range matches {
		out = append(out, matchJSON{Index: m.Index, Sim: m.Sim})
	}
	serverutil.WriteJSON(w, map[string]any{"matches": out})
}

// similarityRequest is the body of POST /similarity.
type similarityRequest struct {
	X []string `json:"x"`
	Y []string `json:"y"`
}

func (s *Server) handleSimilarity(w http.ResponseWriter, r *http.Request) {
	var req similarityRequest
	if !serverutil.DecodeJSON(w, r, &req) || !s.checkTokens(w, req.X) || !s.checkTokens(w, req.Y) {
		return
	}
	// Similarity builds its own transient state over the shared
	// (read-only) hierarchy; no server lock is needed.
	sim, err := core.SimilarityCtx(r.Context(), s.h, req.X, req.Y, s.opt)
	if err != nil {
		serverutil.Fail(w, http.StatusInternalServerError, "internal", err)
		return
	}
	serverutil.WriteJSON(w, map[string]float64{"sim": sim})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ix := s.ix.Load()
	st := ix.Stats()
	n := ix.Len()
	seg := ix.SegmentStats()
	out := map[string]any{
		"objects":          n,
		"candidates":       st.Candidates,
		"size_pruned":      st.SizePruned,
		"results":          st.Verify.Results,
		"count_pruned":     st.Verify.CountPruned,
		"weighted_pruned":  st.Verify.WeightedPruned,
		"lb_accepted":      st.Verify.LBAccepted,
		"ub_rejected":      st.Verify.UBRejected,
		"inflight":         s.sem.InFlight(),
		"segment_count":    seg.Segments,
		"memtable_objects": seg.MemObjects,
		"seal_total":       seg.SealTotal,
		"merge_total":      seg.MergeTotal,
		"merge_backlog":    seg.MergeBacklog,
	}
	if l := s.log.Load(); l != nil {
		wlog := l.WAL()
		last, durable, snap := wlog.LastSeq(), wlog.DurableSeq(), l.SnapshotSeq()
		out["wal_last_seq"] = last
		out["wal_durable_seq"] = durable
		out["snapshot_seq"] = snap
		// wal_lag is how many logged operations the newest snapshot does
		// not yet cover — what recovery would have to replay.
		out["wal_lag"] = last - snap
		out["wal_healthy"] = wlog.Err() == nil
	}
	if rs := s.replica; rs != nil {
		out["replica_applied_seq"] = rs.applied.Load()
		out["replica_healthy"] = rs.healthy.Load()
		// replica_lag is seconds since this follower last confirmed it was
		// caught up with the primary's durable horizon; -1 until the first
		// catch-up.
		out["replica_lag"] = rs.lagSeconds()
	}
	serverutil.WriteJSON(w, out)
}

// checkTokens enforces the configured token-count and token-length caps
// (the structural empty/blank validation lives in core and surfaces as
// *core.InputError through serverutil.Fail).
func (s *Server) checkTokens(w http.ResponseWriter, tokens []string) bool {
	if len(tokens) > s.cfg.MaxTokens {
		serverutil.WriteError(w, http.StatusBadRequest, "too_many_tokens",
			fmt.Sprintf("object has %d tokens, limit %d", len(tokens), s.cfg.MaxTokens))
		return false
	}
	for i, t := range tokens {
		if len(t) > s.cfg.MaxTokenLen {
			serverutil.WriteError(w, http.StatusBadRequest, "token_too_long",
				fmt.Sprintf("token %d is %d bytes, limit %d", i, len(t), s.cfg.MaxTokenLen))
			return false
		}
	}
	return true
}
