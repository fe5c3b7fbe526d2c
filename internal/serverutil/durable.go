package serverutil

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kjoin/internal/fault"
	"kjoin/internal/wal"
)

// Durability configures the crash-safety machinery of one durable state
// machine (the shard server's index, the coordinator's control plane): a
// write-ahead log every acknowledged change is fsync'd into before it is
// acknowledged, and a directory of checksummed snapshot generations
// recovery rebuilds from.
type Durability struct {
	// FS is the filesystem (nil → the real one; tests inject faults).
	FS fault.FS
	// WALDir is the write-ahead-log directory (required).
	WALDir string
	// SnapshotDir is the snapshot generation directory (required; must
	// differ from WALDir so WAL repair never touches snapshots).
	SnapshotDir string
	// Keep is how many snapshot generations are retained (default 3).
	Keep int
	// Policy is the WAL fsync policy (default wal.SyncAlways).
	Policy wal.Policy
	// BatchWindow is the WAL group-commit window (0 = fsync immediately).
	BatchWindow time.Duration
	// Logf, when set, receives recovery and repair notices.
	Logf func(format string, args ...any)
}

// Log is a durable state machine's write-ahead log bound to its snapshot
// generations: Open recovers the state and Snapshot persists it, and
// between them they own the one rule both depend on — the WAL is never
// compacted past the oldest generation still retained, so falling back
// past a corrupt newest generation always finds the records it needs.
type Log struct {
	wal  *wal.WAL
	gens *GenStore

	// mu serializes snapshot generations against each other. It is taken
	// before the owner's own locks (Snapshot's capture takes them).
	//kjoinlint:lockorder rank=8
	mu sync.Mutex
	// floor holds the WAL sequence of each retained generation, oldest
	// first; the WAL may only be compacted up to floor[0].
	floor []uint64 // guarded by mu
	// onDisk records that a generation exists at all, so an idle owner
	// can skip rewriting identical snapshots.
	onDisk bool // guarded by mu
	// snapSeq is the sequence the newest generation covers.
	snapSeq atomic.Uint64
}

// Open recovers a durable state machine and returns its log, positioned
// to append:
//
//   - load restores the owner's state from the newest generation it
//     accepts and returns the WAL sequence that generation covers and
//     the objects it holds; generations it rejects are fallen back past.
//     With no generation on disk it is called once with a nil reader:
//     the owner starts empty.
//   - peek returns the sequence a generation covers from its header
//     alone. Every generation on disk seeds the compaction floor, not
//     just the one that loaded: the older ones remain fallback
//     candidates (the newest may corrupt at rest later), so the records
//     they need must outlive them.
//   - apply replays each WAL record past the loaded sequence, and
//     flush, when set, runs once after the last of them: an owner that
//     batches records applies what it still holds there.
//
// Both phases are logged with their wall time, so where a restart spent
// its time shows in the log. A log that ends before the loaded sequence
// (truncated or deleted out-of-band), or whose numbering proves records
// past it were compacted away, is refused: serving a shorter state than
// was acknowledged would silently drop acknowledged changes. Errors
// carry no owner prefix; callers wrap them.
func Open(d Durability, load func(r io.Reader) (seq uint64, objects int, err error), peek func(r io.Reader) (seq uint64, err error),
	apply func(seq uint64, op wal.Op, fields []string) error, flush func() error) (*Log, error) {
	logf := d.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	gens := &GenStore{FS: d.FS, Dir: d.SnapshotDir, Keep: d.Keep, Logf: d.Logf}
	var base uint64
	var objects int
	t0 := time.Now()
	name, err := gens.Load(func(r io.Reader) (err error) {
		base, objects, err = load(r)
		return err
	})
	switch {
	case errors.Is(err, ErrNoSnapshot):
		if _, _, err := load(nil); err != nil {
			return nil, err
		}
		logf("recovery: no snapshot; starting empty")
	case err != nil:
		return nil, fmt.Errorf("load snapshot: %w", err)
	default:
		logf("recovery: loaded snapshot %s (%d objects, wal seq %d) in %v", name, objects, base, time.Since(t0))
	}
	l := &Log{gens: gens, floor: seedFloor(gens, peek, base, logf), onDisk: name != ""}
	replayed := 0
	var maxRec uint64 // highest record actually present in the log
	t0 = time.Now()
	w, err := wal.Open(d.FS, d.WALDir, wal.Options{Policy: d.Policy, BatchWindow: d.BatchWindow, Logf: d.Logf},
		func(seq uint64, op wal.Op, fields []string) error {
			maxRec = max(maxRec, seq)
			if seq <= base {
				return nil // already inside the snapshot
			}
			replayed++
			return apply(seq, op, fields)
		})
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	if flush != nil {
		if err := flush(); err != nil {
			_ = w.Close() // recovery already failed; the replay error is the one to report
			return nil, fmt.Errorf("replay wal: %w", err)
		}
	}
	// The log's numbering can outrun its records: compaction leaves a
	// fresh segment whose name is the only on-disk trace of how far
	// acknowledged writes advanced. Records compacted away are only safe
	// to lose under a snapshot that covers them.
	switch tail := w.LastSeq(); {
	case tail < base:
		_ = w.Close() // recovery already failed; the gap error is the one to report
		return nil, fmt.Errorf("wal ends at seq %d but snapshot %s covers seq %d: log truncated or deleted out-of-band", tail, name, base)
	case tail > base && tail > maxRec:
		_ = w.Close() // recovery already failed; the gap error is the one to report
		return nil, fmt.Errorf("wal numbering reaches seq %d but its records end at seq %d and snapshot %s covers only seq %d: acknowledged records were compacted away", tail, maxRec, name, base)
	}
	logf("recovery: replayed %d wal record(s) past seq %d in %v", replayed, base, time.Since(t0))
	l.wal = w
	l.snapSeq.Store(base)
	return l, nil
}

// seedFloor peeks the sequence of every generation on disk, ascending.
// A generation whose header cannot be read can never be a fallback and
// contributes nothing; with none readable the floor is base.
func seedFloor(gens *GenStore, peek func(io.Reader) (uint64, error), base uint64, logf func(string, ...any)) []uint64 {
	var floor []uint64
	ns, _ := gens.scan() // Load just scanned the same directory
	for _, n := range ns {
		name := genName(n)
		f, err := gens.open(name)
		if err != nil {
			logf("recovery: generation %s unreadable (%v); ignored for the compaction floor", name, err)
			continue
		}
		seq, err := peek(f)
		_ = f.Close() // read-only; nothing written that a close could lose
		if err != nil {
			logf("recovery: generation %s header corrupt (%v); ignored for the compaction floor", name, err)
			continue
		}
		floor = append(floor, seq)
	}
	if len(floor) == 0 {
		return []uint64{base}
	}
	// Generation order should already be sequence order; sorting makes
	// floor[0] the minimum even if a header lies.
	slices.Sort(floor)
	return floor
}

// WAL returns the open log (nil on a nil Log, so owners without
// durability can test the result).
func (l *Log) WAL() *wal.WAL {
	if l == nil {
		return nil
	}
	return l.wal
}

// SnapshotSeq returns the WAL sequence the newest generation covers.
func (l *Log) SnapshotSeq() uint64 { return l.snapSeq.Load() }

// Snapshot persists the owner's state as a new generation and compacts
// the WAL. capture runs under the snapshot mutex: it takes the owner's
// lock that appends serialize on, refuses there if the log is poisoned
// (checked under that lock, no state it pins can hold a change whose
// append failed), and returns the sequence the pinned state covers with
// a function that serializes it. When the newest generation already
// covers that sequence nothing is written. Otherwise the order is what
// makes the generation crash-safe: the log is fsync'd through the
// sequence, so the generation can never contain a record the log might
// still refuse; the generation is written atomically and CURRENT
// repointed; and only then is the WAL compacted, no further than the
// oldest generation still retained.
func (l *Log) Snapshot(capture func() (seq uint64, write func(io.Writer) error, err error)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, write, err := capture()
	if err != nil {
		return err
	}
	if l.onDisk && seq == l.snapSeq.Load() {
		return nil // nothing advanced since the newest generation
	}
	// Sync-path poisoning can still race in after capture's check; it only
	// ever affects records past the durable point, and those make
	// seq > synced here, so this sync takes the slow path and refuses.
	if err := l.wal.Sync(seq); err != nil {
		return fmt.Errorf("wal sync before snapshot: %w", err)
	}
	name, err := l.gens.Save(write)
	if err != nil {
		return err
	}
	l.snapSeq.Store(seq)
	l.onDisk = true
	l.floor = append(l.floor, seq)
	if k := l.gens.keep(); len(l.floor) > k {
		l.floor = l.floor[len(l.floor)-k:]
	}
	if err := l.wal.Compact(l.floor[0]); err != nil {
		return fmt.Errorf("compact wal after %s: %w", name, err)
	}
	return nil
}
