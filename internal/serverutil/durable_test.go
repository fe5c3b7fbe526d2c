package serverutil

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kjoin/internal/wal"
)

// toyMachine is the smallest durable state machine: a list of records,
// snapshotted as "seq N" followed by one record per line.
type toyMachine struct {
	recs    []string
	applied int // records replayed by the last Open
}

func (m *toyMachine) load(r io.Reader) (uint64, error) {
	m.recs = nil
	if r == nil {
		return 0, nil
	}
	seq, err := toyPeek(r)
	if err != nil {
		return 0, err
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	m.recs = strings.Fields(string(b))
	return seq, nil
}

func toyPeek(r io.Reader) (uint64, error) {
	var seq uint64
	_, err := fmt.Fscanf(r, "seq %d\n", &seq)
	return seq, err
}

func (m *toyMachine) open(t *testing.T, d Durability) (*Log, error) {
	t.Helper()
	m.applied = 0
	br := func(r io.Reader) io.Reader {
		if r == nil {
			return nil
		}
		return bufio.NewReader(r)
	}
	return Open(d, func(r io.Reader) (uint64, int, error) {
		seq, err := m.load(br(r))
		return seq, len(m.recs), err
	}, toyPeek,
		func(seq uint64, op wal.Op, fields []string) error {
			m.recs = append(m.recs, fields...)
			m.applied++
			return nil
		}, nil)
}

func (m *toyMachine) snapshot(l *Log) error {
	return l.Snapshot(func() (uint64, func(io.Writer) error, error) {
		seq := l.WAL().LastSeq()
		recs := append([]string(nil), m.recs...)
		return seq, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "seq %d\n%s\n", seq, strings.Join(recs, "\n"))
			return err
		}, nil
	})
}

func (m *toyMachine) add(t *testing.T, l *Log, rec string) {
	t.Helper()
	if _, err := l.WAL().AppendSync([]string{rec}); err != nil {
		t.Fatal(err)
	}
	m.recs = append(m.recs, rec)
}

func toyDurability(t *testing.T) Durability {
	dir := t.TempDir()
	return Durability{WALDir: filepath.Join(dir, "wal"), SnapshotDir: filepath.Join(dir, "snap"), Keep: 2, Logf: t.Logf}
}

func generations(t *testing.T, d Durability) []string {
	t.Helper()
	gens, err := filepath.Glob(filepath.Join(d.SnapshotDir, "snap.0*"))
	if err != nil {
		t.Fatal(err)
	}
	return gens
}

// TestLogRecoverSnapshotRoundTrip: a fresh log starts empty, a snapshot
// covers what was appended, an idle snapshot writes nothing, and a
// restart loads the generation and replays exactly the records past it.
func TestLogRecoverSnapshotRoundTrip(t *testing.T) {
	d := toyDurability(t)
	m := &toyMachine{}
	l, err := m.open(t, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"a", "b", "c"} {
		m.add(t, l, r)
	}
	if err := m.snapshot(l); err != nil {
		t.Fatal(err)
	}
	if err := m.snapshot(l); err != nil {
		t.Fatal(err)
	}
	if n := len(generations(t, d)); n != 1 {
		t.Fatalf("idle snapshot churned: %d generations, want 1", n)
	}
	if got := l.SnapshotSeq(); got != 3 {
		t.Fatalf("SnapshotSeq = %d, want 3", got)
	}
	m.add(t, l, "d")
	m.add(t, l, "e")
	if err := l.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	m2 := &toyMachine{}
	l2, err := m2.open(t, d)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.WAL().Close()
	if got := strings.Join(m2.recs, ""); got != "abcde" || m2.applied != 2 {
		t.Fatalf("recovered %q replaying %d records, want abcde replaying 2", got, m2.applied)
	}
	if got := l2.SnapshotSeq(); got != 3 {
		t.Fatalf("recovered SnapshotSeq = %d, want 3", got)
	}
}

// TestLogRecoveryRefusals: a log deleted out-of-band, or compacted past
// what the only readable generation covers, refuses recovery with the
// substrings both owners' tests check.
func TestLogRecoveryRefusals(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		damage     func(t *testing.T, d Durability, last uint64)
	}{
		{"deleted", "truncated or deleted", func(t *testing.T, d Durability, _ uint64) {
			if err := os.RemoveAll(d.WALDir); err != nil {
				t.Fatal(err)
			}
		}},
		{"over-compacted", "compacted", func(t *testing.T, d Durability, last uint64) {
			if err := os.RemoveAll(d.WALDir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(d.WALDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d.WALDir, fmt.Sprintf("wal.%020d", last+1)), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			gens := generations(t, d)
			if err := os.WriteFile(gens[len(gens)-1], []byte("rotten"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := toyDurability(t)
			m := &toyMachine{}
			l, err := m.open(t, d)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range []string{"a", "b", "c", "d"} {
				m.add(t, l, r)
				if i%2 == 1 {
					if err := m.snapshot(l); err != nil {
						t.Fatal(err)
					}
				}
			}
			last := l.WAL().LastSeq()
			if err := l.WAL().Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, d, last)
			_, err = (&toyMachine{}).open(t, d)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("recovery error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
