package core

import (
	"time"

	"kjoin/internal/index"
)

// defaultSealEvery is the memtable capacity when Options.SealEvery is 0.
const defaultSealEvery = 256

// memtable is the mutable tail of the segmented engine: the objects
// added since the last seal, absorbing inserts under ix.mu until the
// seal threshold freezes them into an immutable segment. Its inverted
// index lives separately on the Indexer (memInv) because it is
// writer-private — lock-free readers probe the memtable by scanning
// the published object prefix instead.
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
// a fresh one. The memtable's writer-private inverted index already
// holds exactly the segment's postings (global ids, ascending), so the
// seal adopts it instead of rebuilding. No-op on an empty memtable —
// replayed seal records stay idempotent against the defensive
// count-based seals of pre-seal-record logs. Caller holds mu.
func (ix *Indexer) sealLocked() {
	if len(ix.mem.objs) == 0 {
		return
	}
	objs := ix.mem.objs[:len(ix.mem.objs):len(ix.mem.objs)]
	seg := &segment{base: ix.mem.base, objs: objs, inv: ix.memInv}
	ix.segs = append(ix.segs, seg)
	ix.mem = &memtable{base: seg.base + len(seg.objs)}
	ix.memInv = index.New()
	ix.sealTotal++
}

// insertLocked appends a prepped object to the memtable and returns its
// global id. Caller holds mu and has already handled sealing.
func (ix *Indexer) insertLocked(p prepped) int {
	id := ix.mem.base + len(ix.mem.objs)
	if len(ix.mem.objs) == 0 {
		ix.memBirth = time.Now()
	}
	ix.memInv.AddAll(p.prefix, int32(id))
	ix.mem.objs = append(ix.mem.objs, p)
	ix.wk.seen = append(ix.wk.seen, 0)
	ix.j.st.Objects = id + 1
	return id
}

// logSealLocked appends a seal record through the installed seal logger
// (if any) and advances the engine's WAL position to it. It must run
// before the seal mutates anything: if the append fails the add that
// triggered the seal is aborted and the engine is unchanged. Caller
// holds mu.
func (ix *Indexer) logSealLocked() error {
	if ix.sealLog == nil {
		return nil
	}
	seq, err := ix.sealLog()
	if err != nil {
		return err
	}
	ix.walSeq = seq
	return nil
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
	if err := ix.logSealLocked(); err != nil {
		return err
	}
	ix.sealLocked()
	if ch := ix.maybeMergeLocked(); ch != nil {
		go ix.mergeLoop(ch)
	}
	ix.publishLocked()
	return nil
}

// SegmentSizes returns the object count of each sealed segment in
// order — the engine's layout, as pinned by the current view. Safe to
// call concurrently with anything.
func (ix *Indexer) SegmentSizes() []int {
	v := ix.view.Load()
	out := make([]int, len(v.segs))
	for i, s := range v.segs {
		out[i] = len(s.objs)
	}
	return out
}
