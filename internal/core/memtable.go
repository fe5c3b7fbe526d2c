package core

import "time"

// defaultSealEvery is the memtable capacity when Options.SealEvery is 0.
const defaultSealEvery = 256

// memtable is the mutable tail of the segmented engine: the objects
// added since the last seal, absorbing inserts under ix.mu until the
// seal threshold freezes them into an immutable segment. It keeps no
// inverted index: every probe scans its published prefix (sharesSig),
// and a seal builds the segment's index in one pass.
type memtable struct {
	base int       // global id of objs[0]
	objs []prepped // appended under the Indexer's mu; published prefixes are immutable
}

// sealCap returns the memtable capacity in objects.
func (ix *Indexer) sealCap() int {
	if n := ix.j.opt.SealEvery; n > 0 {
		return n
	}
	return defaultSealEvery
}

// sealDueLocked reports whether the next insert must first seal the
// memtable: it is at capacity, or SealAge is set and it has been open
// too long. Caller holds mu.
func (ix *Indexer) sealDueLocked() bool {
	n := len(ix.mem.objs)
	if n == 0 {
		return false
	}
	if n >= ix.sealCap() {
		return true
	}
	return ix.j.opt.SealAge > 0 && time.Since(ix.memBirth) >= ix.j.opt.SealAge
}

// sealLocked freezes the memtable into an immutable segment and starts
// a fresh one. No-op on an empty memtable — replayed seal records stay
// idempotent against the defensive count-based seals of pre-seal-record
// logs. Caller holds mu.
func (ix *Indexer) sealLocked() {
	if len(ix.mem.objs) == 0 {
		return
	}
	seg := newSegment(ix.mem.base, ix.mem.objs[:len(ix.mem.objs):len(ix.mem.objs)])
	ix.segs = append(ix.segs, seg)
	ix.mem = &memtable{base: seg.base + len(seg.objs)}
	ix.sealTotal++
}

// insertLocked appends a prepped object to the memtable. Caller holds mu
// and has already handled sealing.
func (ix *Indexer) insertLocked(p prepped) {
	if len(ix.mem.objs) == 0 {
		ix.memBirth = time.Now()
	}
	ix.mem.objs = append(ix.mem.objs, p)
	ix.j.st.Objects = ix.mem.base + len(ix.mem.objs)
}

// sealLiveLocked is a live seal, of an add or of Seal: it appends a seal
// record through the installed seal logger (if any) and advances the
// engine's WAL position to it, then seals and registers a background
// merger if the new layout has work, returning the channel the caller
// hands to a new mergeLoop goroutine (maybeMergeLocked), or nil. The
// record goes first: if the append fails the add that triggered the seal
// is aborted and the engine is unchanged. Caller holds mu and publishes
// after.
func (ix *Indexer) sealLiveLocked() (chan struct{}, error) {
	if ix.sealLog != nil {
		seq, err := ix.sealLog()
		if err != nil {
			return nil, err
		}
		ix.walSeq = seq
	}
	ix.sealLocked()
	return ix.maybeMergeLocked(), nil
}

// SetSealLogger installs the hook the engine calls immediately before
// sealing the memtable on a live add: it must append a seal record to
// the write-ahead log and return its sequence, so recovery can replay
// the exact segment layout. The server installs it once at recovery,
// after replay (replayed seals must not be re-logged).
func (ix *Indexer) SetSealLogger(fn func() (uint64, error)) {
	ix.mu.Lock()
	ix.sealLog = fn
	ix.mu.Unlock()
}

// Seal forces the current memtable into a segment regardless of the
// thresholds — a no-op (and nothing is logged) when it is empty. Used
// by tests and benchmarks to pin a segment layout.
func (ix *Indexer) Seal() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.mem.objs) == 0 {
		return nil
	}
	ch, err := ix.sealLiveLocked()
	if err != nil {
		return err
	}
	if ch != nil {
		go ix.mergeLoop(ch)
	}
	ix.publishLocked()
	return nil
}

// SegmentSizes returns the object count of each sealed segment in
// order — the engine's layout, as pinned by the current view. Safe to
// call concurrently with anything.
func (ix *Indexer) SegmentSizes() []int { return segSizes(ix.view.Load().segs) }
