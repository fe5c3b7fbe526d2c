package serverutil

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"kjoin/internal/fault"
)

// Generation file layout: a directory of immutable numbered snapshots
// (`snap.000017`) plus a CURRENT file naming the newest complete one.
// Save writes the next generation atomically, repoints CURRENT, then
// prunes old generations; Load starts at CURRENT and falls back
// generation-by-generation past corrupt files, so one bad snapshot (a
// torn write CURRENT was repointed to anyway, a bit flip at rest) costs
// recency, not availability.

// genPrefix heads every generation file name.
const genPrefix = "snap."

// currentName is the pointer file naming the active generation.
const currentName = "CURRENT"

// ErrNoSnapshot is returned by GenStore.Load when the directory holds
// no readable generation at all — the caller starts empty.
var ErrNoSnapshot = errors.New("serverutil: no snapshot generation")

func genName(n uint64) string { return fmt.Sprintf("%s%06d", genPrefix, n) }

func parseGenName(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, genPrefix)
	if !ok || len(s) < 6 {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// GenStore keeps N generations of a snapshot file in a directory.
// Methods are not safe for concurrent use with each other; the
// snapshotter serializes them.
type GenStore struct {
	// FS is the filesystem (nil → the real one).
	FS fault.FS
	// Dir is the generation directory, created on first use.
	Dir string
	// Keep is how many generations Save retains (default 3, min 1).
	Keep int
	// Logf, when set, receives fallback and sweep notices.
	Logf func(format string, args ...any)
}

func (g *GenStore) fs() fault.FS {
	if g.FS == nil {
		return fault.OS{}
	}
	return g.FS
}

func (g *GenStore) keep() int {
	if g.Keep < 1 {
		return 3
	}
	return g.Keep
}

func (g *GenStore) logf(format string, args ...any) {
	if g.Logf != nil {
		g.Logf(format, args...)
	}
}

// scan returns the generation numbers present, ascending.
func (g *GenStore) scan() ([]uint64, error) {
	ents, err := g.fs().ReadDir(g.Dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if n, ok := parseGenName(e.Name()); ok {
			gens = append(gens, n)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Save writes the next generation atomically, repoints CURRENT at it,
// and prunes generations beyond Keep. It returns the new generation's
// file name. The write order makes every crash window safe: the new
// generation is complete and fsync'd before CURRENT names it, and
// pruning only runs after CURRENT points away from the victims.
//
//kjoinlint:ackorder commit
func (g *GenStore) Save(write func(w io.Writer) error) (string, error) {
	fsys := g.fs()
	if err := fsys.MkdirAll(g.Dir, 0o755); err != nil {
		return "", fmt.Errorf("serverutil: mkdir %s: %w", g.Dir, err)
	}
	gens, err := g.scan()
	if err != nil {
		return "", fmt.Errorf("serverutil: scan %s: %w", g.Dir, err)
	}
	var next uint64 = 1
	if len(gens) > 0 {
		next = gens[len(gens)-1] + 1
	}
	name := genName(next)
	if err := WriteFileAtomicFS(fsys, g.Dir+"/"+name, write); err != nil {
		return "", err
	}
	if err := WriteFileAtomicFS(fsys, g.Dir+"/"+currentName, func(w io.Writer) error {
		_, werr := io.WriteString(w, name+"\n")
		return werr
	}); err != nil {
		return "", fmt.Errorf("serverutil: repoint CURRENT: %w", err)
	}
	// Prune: keep the newest Keep generations (the one just written
	// included). A failed removal is reported but the snapshot is saved.
	gens = append(gens, next)
	for len(gens) > g.keep() {
		victim := genName(gens[0])
		gens = gens[1:]
		if err := fsys.Remove(g.Dir + "/" + victim); err != nil {
			return name, fmt.Errorf("serverutil: prune %s: %w", victim, err)
		}
	}
	return name, nil
}

// Load opens the newest readable generation and passes it to load,
// starting with the one CURRENT names and falling back generation-by-
// generation past files that fail to open or that load rejects
// (corruption). As part of the scan it sweeps stale temp files left by
// a crash mid-Save. It returns the name of the generation that loaded,
// or ErrNoSnapshot when the directory holds none (first boot).
func (g *GenStore) Load(load func(r io.Reader) error) (string, error) {
	fsys := g.fs()
	if err := fsys.MkdirAll(g.Dir, 0o755); err != nil {
		return "", fmt.Errorf("serverutil: mkdir %s: %w", g.Dir, err)
	}
	if removed, err := SweepTemps(fsys, g.Dir); err != nil {
		return "", err
	} else if len(removed) > 0 {
		g.logf("snapshot: swept %d stale temp file(s): %s", len(removed), strings.Join(removed, ", "))
	}
	gens, err := g.scan()
	if err != nil {
		return "", fmt.Errorf("serverutil: scan %s: %w", g.Dir, err)
	}
	if len(gens) == 0 {
		return "", ErrNoSnapshot
	}
	// Candidate order: CURRENT's target first, then the rest newest-first.
	candidates := make([]string, 0, len(gens)+1)
	if cur, err := g.readCurrent(); err == nil && cur != "" {
		candidates = append(candidates, cur)
	} else if err != nil {
		g.logf("snapshot: unreadable CURRENT (%v); falling back to newest generation", err)
	}
	for i := len(gens) - 1; i >= 0; i-- {
		name := genName(gens[i])
		if len(candidates) > 0 && candidates[0] == name {
			continue
		}
		candidates = append(candidates, name)
	}
	var lastErr error
	for _, name := range candidates {
		f, err := g.open(name)
		if err != nil {
			g.logf("snapshot: cannot open generation %s (%v); falling back", name, err)
			lastErr = err
			continue
		}
		err = load(f)
		_ = f.Close() // read-only; nothing written that a close could lose
		if err != nil {
			g.logf("snapshot: generation %s corrupt (%v); falling back", name, err)
			lastErr = err
			continue
		}
		return name, nil
	}
	return "", fmt.Errorf("serverutil: every snapshot generation failed to load: %w", lastErr)
}

// open opens one file of the store for reading; the caller closes it.
func (g *GenStore) open(name string) (fault.File, error) {
	return g.fs().OpenFile(g.Dir+"/"+name, os.O_RDONLY, 0)
}

// readCurrent returns the generation name CURRENT points at.
func (g *GenStore) readCurrent() (string, error) {
	f, err := g.open(currentName)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return "", nil
		}
		return "", err
	}
	//kjoinlint:ignore syncerr read-only open; a close failure cannot lose data
	defer f.Close()
	b, err := io.ReadAll(io.LimitReader(f, 256))
	if err != nil {
		return "", err
	}
	name := strings.TrimSpace(string(b))
	if _, ok := parseGenName(name); !ok {
		return "", fmt.Errorf("serverutil: CURRENT names %q, not a generation", name)
	}
	return name, nil
}
