// Package orderdata exercises the lockorder analyzer: declared ranks,
// inversions, re-acquisition, acquisition through helpers, branch
// handling, and cycles among unranked locks.
package orderdata

import "sync"

type Store struct {
	//kjoinlint:lockorder rank=10
	mu sync.Mutex
	//kjoinlint:lockorder rank=20
	walMu sync.Mutex
}

// Good acquires in the declared order.
func (s *Store) Good() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.walMu.Lock()
	s.walMu.Unlock()
}

// Inverted acquires against the declared order.
func (s *Store) Inverted() {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	s.mu.Lock() // want `acquires orderdata\.Store\.mu \(rank 10\) while holding orderdata\.Store\.walMu \(rank 20\): violates declared lock order`
	s.mu.Unlock()
}

// Reacquire locks a mutex already held.
func (s *Store) Reacquire() {
	s.mu.Lock()
	s.mu.Lock() // want `acquires orderdata\.Store\.mu while already holding it`
	s.mu.Unlock()
	s.mu.Unlock()
}

func (s *Store) lockLow() {
	s.mu.Lock()
	s.mu.Unlock()
}

// ViaCall inverts the order through a helper: the callee's acquire set
// is propagated, so holding walMu while calling lockLow is flagged.
func (s *Store) ViaCall() {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	s.lockLow() // want `acquires orderdata\.Store\.mu \(rank 10\) while holding orderdata\.Store\.walMu \(rank 20\): violates declared lock order \(via call to lockLow\)`
}

// EarlyReturn releases only on the early path; the fall-through path
// still holds mu, and acquiring walMu there is the declared order.
func (s *Store) EarlyReturn(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	s.walMu.Lock()
	s.walMu.Unlock()
	s.mu.Unlock()
}

// Spawn starts a goroutine: its acquisitions are not nested under the
// spawner's locks and must not be flagged.
func (s *Store) Spawn() {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	go func() {
		s.mu.Lock()
		s.mu.Unlock()
	}()
}

// withWal calls fn while holding walMu: whatever fn acquires is nested
// under it.
func (s *Store) withWal(fn func()) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	fn()
}

// CallbackGood passes a callback that takes nothing ranked below walMu.
func (s *Store) CallbackGood() {
	s.withWal(func() {})
}

// CallbackInverted passes a literal that takes mu — inverted against
// walMu, which withWal holds while calling it.
func (s *Store) CallbackInverted() {
	s.withWal(func() {
		s.mu.Lock() // want `acquires orderdata\.Store\.mu \(rank 10\) while holding orderdata\.Store\.walMu \(rank 20\): violates declared lock order`
		s.mu.Unlock()
	})
}

// CallbackRef passes a method value whose acquisitions invert the same
// way.
func (s *Store) CallbackRef() {
	s.withWal(s.lockLow) // want `acquires orderdata\.Store\.mu \(rank 10\) while holding orderdata\.Store\.walMu \(rank 20\): violates declared lock order \(via call to lockLow\)`
}

// Pair has no declared ranks; opposite acquisition orders in two
// functions still form a cycle.
type Pair struct {
	a sync.Mutex
	b sync.Mutex
}

func (p *Pair) AB() {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func (p *Pair) BA() {
	p.b.Lock()
	p.a.Lock() // want `lock-order cycle among orderdata\.Pair\.a ↔ orderdata\.Pair\.b \(potential deadlock\)`
	p.a.Unlock()
	p.b.Unlock()
}
