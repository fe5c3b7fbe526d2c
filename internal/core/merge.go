package core

import "slices"

// The merge policy must be confluent: background merging is delayed
// arbitrarily relative to seals, yet a quiesced engine (WaitMerges) has
// to reach the same layout as replay, which merges to fixpoint at every
// seal record. Merging the *leftmost* adjacent pair that violates the
// strictly-decreasing-size invariant has that property: new segments
// only ever appear on the right (seals), and appending on the right
// cannot change which violation is leftmost, so the rewrite order of
// delayed steps commutes with appends and every schedule reaches the
// same fixpoint. (Merging an arbitrary violating pair does not —
// [256,256,300] merges to [512,300] or [256,556]→[812] depending on
// which pair goes first.)

// mergePlan returns the leftmost index i such that segs[i] should merge
// with segs[i+1] (mergeAt).
func mergePlan(segs []*segment) int { return mergeAt(segSizes(segs)) }

// mergeAt is the merge policy on a size layout: the leftmost index i
// whose size is not strictly greater than size i+1's, or -1 when the
// layout is at fixpoint (sizes strictly decreasing left to right).
func mergeAt(sizes []int) int {
	for i := 0; i+1 < len(sizes); i++ {
		if sizes[i] <= sizes[i+1] {
			return i
		}
	}
	return -1
}

// segSizes returns the object count of each segment.
func segSizes(segs []*segment) []int {
	sizes := make([]int, len(segs))
	for i, s := range segs {
		sizes[i] = len(s.objs)
	}
	return sizes
}

// spliceLocked replaces segments i and i+1 with merged. The list is
// freshly allocated: published views alias the old one. Caller holds mu.
func (ix *Indexer) spliceLocked(i int, merged *segment) {
	ix.segs = slices.Concat(ix.segs[:i], []*segment{merged}, ix.segs[i+2:])
	ix.mergeTotal++
}

// maybeMergeLocked registers a background merger if there is work and
// none is already running, returning the non-nil done channel the
// caller must hand to a new mergeLoop goroutine (the spawn itself is
// left to the caller: the goroutine's lock use is its own, not part of
// this function's acquire set). Caller holds mu.
func (ix *Indexer) maybeMergeLocked() chan struct{} {
	if ix.mergeCh != nil || mergePlan(ix.segs) < 0 {
		return nil
	}
	ch := make(chan struct{})
	ix.mergeCh = ch
	return ch
}

// mergeLoop is the background merger: it repeatedly takes the planned
// pair, builds the merged segment outside the lock (queries and adds
// proceed meanwhile), and splices it into a freshly allocated segment
// list under the lock. It exits — closing done, on which WaitMerges
// blocks — when the layout reaches fixpoint; the next seal that creates
// work starts a new one.
func (ix *Indexer) mergeLoop(done chan struct{}) {
	for {
		ix.mu.Lock()
		i := mergePlan(ix.segs)
		if i < 0 {
			ix.mergeCh = nil
			ix.mu.Unlock()
			close(done)
			return
		}
		a, b := ix.segs[i], ix.segs[i+1]
		ix.mu.Unlock()

		merged := mergeSegments(a, b)

		ix.mu.Lock()
		// Revalidate: a concurrent synchronous merge (replay paths) may
		// have rewritten the layout while we built. If the pair moved,
		// drop the work and re-plan.
		if i+1 < len(ix.segs) && ix.segs[i] == a && ix.segs[i+1] == b {
			ix.spliceLocked(i, merged)
			ix.publishLocked()
		}
		ix.mu.Unlock()
	}
}

// mergeToFixpointLocked merges synchronously until the layout is at
// fixpoint — the replay paths (WAL recovery, replicas, snapshot loads
// of pre-layout versions) use it so a rebuilt engine lands on the
// deterministic layout directly. Caller holds mu and publishes after.
func (ix *Indexer) mergeToFixpointLocked() {
	for i := mergePlan(ix.segs); i >= 0; i = mergePlan(ix.segs) {
		ix.spliceLocked(i, mergeSegments(ix.segs[i], ix.segs[i+1]))
	}
}

// WaitMerges blocks until no background merger is running and the
// segment layout is at fixpoint. Tests and layout-sensitive callers
// (pre-crash layout capture) use it to quiesce the engine.
func (ix *Indexer) WaitMerges() {
	for {
		ix.mu.Lock()
		ch := ix.mergeCh
		ix.mu.Unlock()
		if ch == nil {
			return
		}
		<-ch
	}
}

// mergeBacklog simulates the merge policy over a size layout and
// returns how many merge steps separate it from fixpoint — the
// /stats merge_backlog gauge.
func mergeBacklog(sizes []int) int {
	s := slices.Clone(sizes)
	steps := 0
	for i := mergeAt(s); i >= 0; i = mergeAt(s) {
		s[i] += s[i+1]
		s = slices.Delete(s, i+1, i+2)
		steps++
	}
	return steps
}

// SegmentStats is the engine observability snapshot exported through
// the server's /stats endpoint.
type SegmentStats struct {
	Segments     int    // sealed segments in the current view
	MemObjects   int    // objects in the mutable memtable
	SealTotal    uint64 // seals since the engine was created/loaded
	MergeTotal   uint64 // merges since the engine was created/loaded
	MergeBacklog int    // merge steps between the current layout and fixpoint
}

// SegmentStats reports the engine's segment observability counters from
// the current view. Safe to call concurrently with anything.
func (ix *Indexer) SegmentStats() SegmentStats {
	v := ix.view.Load()
	return SegmentStats{
		Segments:     len(v.segs),
		MemObjects:   len(v.memObjs),
		SealTotal:    v.sealTotal,
		MergeTotal:   v.mergeTotal,
		MergeBacklog: mergeBacklog(segSizes(v.segs)),
	}
}
