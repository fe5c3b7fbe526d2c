package cluster

// Live resharding. POST /cluster/reshard bumps the route version and
// installs a migration: new adds route by the new table immediately,
// while a background mover streams each moving object from its old home
// to its new one with idempotent, resumable progress records in the
// coordinator WAL (move-intent before the copy, move-done after). While
// the migration runs, gathers scatter to the union of the old and new
// homes and dedup by global id — the dual-read window — so answers stay
// bit-identical to a single node throughout. When every item has moved,
// the mover finalizes (retiring the source copies); POST
// /cluster/reshard/abort retires the destination copies and restores the
// old table instead. A crash at any point resumes from the WAL without
// losing or duplicating any acked object.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"kjoin/internal/replica"
	"kjoin/internal/serverutil"
)

// errMoverHalt marks a control-plane invariant violation the mover must
// not retry past (and recovery must not start over): the coordinator
// latches the failure (failControl) and refuses further control-plane
// writes until an operator intervenes.
var errMoverHalt = errors.New("cluster: control plane halted")

// errClosedMidIntent is the mover or an add resolving an intent when the
// coordinator shuts down: the intent stays unresolved in the log (the
// crash-equivalent state recovery is built for), and the control plane
// is latched so no later record can follow it.
var errClosedMidIntent = errors.New("cluster: closed with an unresolved intent; restart to resolve")

// logf forwards to the configured logger, if any.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// controlErr reports the latched control-plane failure, nil when
// healthy.
func (c *Coordinator) controlErr() error {
	if f := c.ctrlFailed.Load(); f != nil {
		return f.err
	}
	return nil
}

// failControl latches a control-plane failure: every later add and
// reshard fails fast instead of appending records after a state the
// log cannot vouch for.
func (c *Coordinator) failControl(err error) {
	if c.ctrlFailed.CompareAndSwap(nil, &ctrlFailure{err: err}) {
		c.logf("cluster: control plane failed: %v", err)
	}
}

// sleepClosed pauses for d, returning false when the coordinator closed
// instead.
func (c *Coordinator) sleepClosed(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.closed:
		return false
	case <-t.C:
		return true
	}
}

// provablyNotApplied reports whether a failed shard add provably never
// reached the shard's index: the breaker rejected it locally, or the
// shard itself refused it (4xx — including a 429 shed at the admission
// gate). Everything else is ambiguous and must be resolved by counting.
func provablyNotApplied(err error) bool {
	if errors.Is(err, errBreakerOpen) {
		return true
	}
	if se := statusErrOf(err); se != nil && se.Status >= 400 && se.Status < 500 {
		return true
	}
	return false
}

// resolveAmbiguous settles the unresolved intent for global id g
// targeting shard target after an add whose outcome is unknown, by the
// target's object count (settle — addMu, held by the caller, is what
// makes the count unambiguous). A dead target is retried with backoff
// until it answers or the coordinator closes — adds queue behind addMu
// meanwhile, which is the safe direction: an unresolved intent followed
// by more records would be unreplayable. Returns whether the add
// applied.
func (c *Coordinator) resolveAmbiguous(kind string, g, src, target int) (bool, error) {
	c.mu.RLock()
	primary := c.shards[target].cfg.Primary
	c.mu.RUnlock()
	backoff := 10 * time.Millisecond
	for {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ShardTimeout)
		count, cerr := c.shardObjects(ctx, primary)
		cancel()
		if cerr == nil {
			return c.settle(kind, g, src, target, count)
		}
		if !c.sleepClosed(backoff) {
			c.failControl(errClosedMidIntent)
			return false, errClosedMidIntent
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// getObjectTokens fetches one object's normalized tokens off a shard by
// local id (GET /objects/{id}) — the mover's read side.
func (c *Coordinator) getObjectTokens(primary string, local int) ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ShardTimeout)
	defer cancel()
	var out struct {
		ID     *int     `json:"id"`
		Tokens []string `json:"tokens"`
	}
	path := fmt.Sprintf("/objects/%d", local)
	if _, err := replica.Call(ctx, c.cfg.HTTP, http.MethodGet, primary, path, nil, &out); err != nil {
		return nil, err
	}
	if out.ID == nil || *out.ID != local {
		return nil, fmt.Errorf("cluster: %s%s: bad body", primary, path)
	}
	return out.Tokens, nil
}

// ---- the mover ----

// startMover spawns the background migration mover (joined by Close).
func (c *Coordinator) startMover() {
	c.moverWG.Add(1)
	go func() {
		defer c.moverWG.Done()
		c.runMover()
	}()
}

// runMover drives the migration to completion: one object per addMu
// hold, with backoff on transient failure, a configurable throttle
// between objects, and a finalize record once nothing is left to move.
// It exits when the migration finishes, aborts, halts on an invariant
// violation, or the coordinator closes (recovery respawns it).
func (c *Coordinator) runMover() {
	backoff := 10 * time.Millisecond
	for {
		select {
		case <-c.closed:
			return
		default:
		}
		done, err := c.moveNext()
		if errors.Is(err, errMoverHalt) || errors.Is(err, errClosedMidIntent) {
			c.logf("cluster: mover stopped: %v", err)
			return
		}
		if done {
			return
		}
		if err != nil {
			c.logf("cluster: mover retrying: %v", err)
			if !c.sleepClosed(backoff) {
				return
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 10 * time.Millisecond
		if c.cfg.MoveThrottle > 0 && !c.sleepClosed(c.cfg.MoveThrottle) {
			return
		}
	}
}

// moveNext moves one object (or finalizes when none remain). done=true
// means the migration is over — finished, aborted, or halted.
func (c *Coordinator) moveNext() (done bool, err error) {
	c.addMu.Lock()
	defer c.addMu.Unlock()
	if cerr := c.controlErr(); cerr != nil {
		return true, fmt.Errorf("%w: %v", errMoverHalt, cerr)
	}
	c.mu.RLock()
	mig := c.mig
	var it *moveItem
	if mig != nil {
		for i := range mig.items {
			if !mig.items[i].moved {
				it = &mig.items[i]
				break
			}
		}
	}
	vNext := c.router.Version() + 1
	c.mu.RUnlock()
	if mig == nil {
		return true, nil // aborted out from under us
	}
	if it == nil {
		// Everything moved: finalize. Record first, then apply — exactly
		// the order replay reproduces.
		if _, err := c.appendSync([]string{recReshardFinal, fmt.Sprint(vNext)}); err != nil {
			return false, fmt.Errorf("cluster: logging finalize: %w", err)
		}
		if err := c.applyReshardFinalize(vNext); err != nil {
			c.failControl(err)
			return true, fmt.Errorf("%w: %v", errMoverHalt, err)
		}
		c.logf("cluster: reshard finalized at route v%d (%d objects moved)", vNext, len(mig.items))
		return true, nil
	}
	return false, c.moveOne(it)
}

// moveOne streams one object to its new home under the caller's addMu:
// read the tokens off the source, log move-intent durable, add to the
// destination, then log move-done (or resolve an ambiguous outcome by
// counting). The intent/outcome pair is what makes a crash anywhere in
// between resumable without duplicating the object.
func (c *Coordinator) moveOne(it *moveItem) error {
	c.mu.RLock()
	src := c.shards[it.src]
	dst := c.shards[it.dst]
	expected := len(c.toGlobal[it.dst])
	c.mu.RUnlock()
	tokens, err := c.getObjectTokens(src.cfg.Primary, it.srcLocal)
	if err != nil {
		return fmt.Errorf("cluster: reading object %d off shard %d: %w", it.g, it.src, err)
	}
	if _, err := c.appendSync(encMoveIntent(it.g, it.src, it.dst)); err != nil {
		return fmt.Errorf("cluster: logging move-intent: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ShardTimeout)
	res, aerr := c.postAdd(ctx, dst.cfg.Primary, tokens)
	cancel()
	if aerr != nil {
		if provablyNotApplied(aerr) {
			if _, lerr := c.appendSync(encMoveAbort(it.g)); lerr != nil {
				return fmt.Errorf("cluster: logging move-abort: %w", lerr)
			}
			return fmt.Errorf("cluster: moving object %d to shard %d: %w", it.g, it.dst, aerr)
		}
		applied, rerr := c.resolveAmbiguous(recMoveIntent, it.g, it.src, it.dst)
		if rerr != nil {
			return rerr
		}
		if !applied {
			return fmt.Errorf("cluster: moving object %d to shard %d: %w", it.g, it.dst, aerr)
		}
		return nil // adopted: the copy landed before the failure surfaced
	}
	if res.ID != expected {
		err := fmt.Errorf("%w: shard %d assigned local id %d, coordinator expected %d: writes bypassed the coordinator",
			errMoverHalt, it.dst, res.ID, expected)
		c.failControl(err)
		return err
	}
	if err := c.applyMove(it.g, it.dst, res.ID); err != nil {
		c.failControl(err)
		return fmt.Errorf("%w: %v", errMoverHalt, err)
	}
	if _, err := c.appendSync(encMoveDone(it.g, it.src, it.dst, res.ID)); err != nil {
		return fmt.Errorf("cluster: logging move-done: %w", err)
	}
	return nil
}

// ---- HTTP surface ----

// reshardRequest is the body of POST /cluster/reshard. Add grows the
// fleet; Assign is the new bucket→shard table over the grown fleet
// (stable indices; omitted means the identity table, one bucket per
// shard). A shrink is an Assign that stops naming a shard.
type reshardRequest struct {
	Add    []ShardConfig `json:"add,omitempty"`
	Assign []int         `json:"assign,omitempty"`
}

// handleReshard begins a live migration: it scans the corpus for
// objects whose home changes under the requested table, logs one
// reshard-begin record carrying the new table, any new shards and the
// full moving set, installs the new route table (bumped version), and
// starts the mover. The scan and begin hold addMu, so the moving set is
// exact — no add can slip between the scan and the new table.
func (c *Coordinator) handleReshard(w http.ResponseWriter, r *http.Request) {
	if c.log == nil {
		serverutil.WriteError(w, http.StatusBadRequest, "not_durable",
			"resharding requires a durable coordinator (start with a coordinator WAL)")
		return
	}
	if err := c.controlErr(); err != nil {
		serverutil.Fail(w, http.StatusInternalServerError, "control_plane_failed", err)
		return
	}
	var req reshardRequest
	if !serverutil.DecodeJSON(w, r, &req) {
		return
	}
	for i, sc := range req.Add {
		if sc.Primary == "" {
			serverutil.WriteError(w, http.StatusBadRequest, "bad_shard",
				fmt.Sprintf("added shard %d has no primary", i))
			return
		}
		for _, ep := range append([]string{sc.Primary}, sc.Replicas...) {
			if strings.Contains(ep, "|") {
				serverutil.WriteError(w, http.StatusBadRequest, "bad_shard",
					fmt.Sprintf("endpoint %q contains '|', which the record encoding reserves", ep))
				return
			}
		}
	}
	c.addMu.Lock()
	defer c.addMu.Unlock()
	c.mu.RLock()
	inFlight := c.mig != nil
	nOld := len(c.shards)
	vNew := c.router.Version() + 1
	oldAssign := c.router.Assign()
	objects := c.objects
	homes := append([]objLoc(nil), c.homeOf...)
	primaries := make([]string, nOld)
	for i, sh := range c.shards {
		primaries[i] = sh.cfg.Primary
	}
	c.mu.RUnlock()
	if inFlight {
		serverutil.WriteError(w, http.StatusConflict, "reshard_in_progress",
			"a migration is already running; finish or abort it first")
		return
	}
	nNew := nOld + len(req.Add)
	assign := req.Assign
	if len(assign) == 0 {
		assign = make([]int, nNew)
		for i := range assign {
			assign[i] = i
		}
	}
	for _, s := range assign {
		if s < 0 || s >= nNew {
			serverutil.WriteError(w, http.StatusBadRequest, "bad_assign",
				fmt.Sprintf("assignment names shard %d; the fleet has %d", s, nNew))
			return
		}
	}
	if len(req.Add) == 0 && equalAssign(assign, oldAssign) {
		serverutil.WriteError(w, http.StatusBadRequest, "no_change",
			"the requested table is the current one; nothing to reshard")
		return
	}
	// Scan: every object whose home changes under the new table joins the
	// moving set. Tokens come off each object's current home (addMu keeps
	// homes frozen while we look).
	newRouter := NewRouterAssign(vNew, assign)
	var items []moveItem
	for g := 0; g < objects; g++ {
		loc := homes[g]
		tokens, err := c.getObjectTokens(primaries[loc.shard], loc.local)
		if err != nil {
			// Nothing logged yet: the reshard simply did not start.
			serverutil.WriteError(w, http.StatusServiceUnavailable, "reshard_scan_failed",
				fmt.Sprintf("cannot read object %d off shard %d: %v", g, loc.shard, err))
			return
		}
		if dst := newRouter.Home(tokens); dst != loc.shard {
			items = append(items, moveItem{g: g, src: loc.shard, srcLocal: loc.local, dst: dst})
		}
	}
	if _, err := c.appendSync(encReshardBegin(vNew, assign, req.Add, items)); err != nil {
		serverutil.Fail(w, http.StatusInternalServerError, "wal_failed", err)
		return
	}
	if err := c.applyReshardBegin(vNew, assign, req.Add, items); err != nil {
		c.failControl(err)
		serverutil.Fail(w, http.StatusInternalServerError, "control_plane_failed", err)
		return
	}
	c.startMover()
	c.logf("cluster: reshard begun at route v%d: %d shard(s), %d object(s) moving", vNew, nNew, len(items))
	serverutil.WriteJSON(w, map[string]any{"version": vNew, "shards": nNew, "moving": len(items)})
}

// equalAssign reports whether two bucket→shard tables are identical.
func equalAssign(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// handleReshardAbort safely unwinds the in-flight migration: the abort
// record is logged durable, every destination copy is tombstoned, and
// the pre-begin route table comes back under a bumped version. Objects
// added under the new table keep serving from where they landed.
func (c *Coordinator) handleReshardAbort(w http.ResponseWriter, r *http.Request) {
	if c.log == nil {
		serverutil.WriteError(w, http.StatusBadRequest, "not_durable", "this coordinator has no durable state")
		return
	}
	if err := c.controlErr(); err != nil {
		serverutil.Fail(w, http.StatusInternalServerError, "control_plane_failed", err)
		return
	}
	c.addMu.Lock()
	defer c.addMu.Unlock()
	c.mu.RLock()
	inFlight := c.mig != nil
	vAbort := c.router.Version() + 1
	c.mu.RUnlock()
	if !inFlight {
		serverutil.WriteError(w, http.StatusConflict, "no_reshard", "no migration is running")
		return
	}
	if _, err := c.appendSync([]string{recReshardAbort, fmt.Sprint(vAbort)}); err != nil {
		serverutil.Fail(w, http.StatusInternalServerError, "wal_failed", err)
		return
	}
	if err := c.applyReshardAbort(vAbort); err != nil {
		c.failControl(err)
		serverutil.Fail(w, http.StatusInternalServerError, "control_plane_failed", err)
		return
	}
	c.logf("cluster: reshard aborted; route table restored at v%d", vAbort)
	serverutil.WriteJSON(w, map[string]any{"version": vAbort, "state": "aborted"})
}

// handleReshardStatus reports the migration's progress.
func (c *Coordinator) handleReshardStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.RLock()
	state := "idle"
	moved, total := 0, 0
	if c.mig != nil {
		state = "migrating"
		moved, total = c.mig.moved, len(c.mig.items)
	}
	version := c.router.Version()
	c.mu.RUnlock()
	serverutil.WriteJSON(w, map[string]any{
		"state":         state,
		"route_version": version,
		"moved":         moved,
		"total":         total,
	})
}
