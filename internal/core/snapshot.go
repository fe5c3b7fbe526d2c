package core

import (
	"bufio"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
	"strings"

	"kjoin/internal/hierarchy"
)

// snapshotMagic heads every Indexer snapshot.
const snapshotMagic = "kjoin-indexer-snapshot"

// snapshotVersion is the current snapshot format version. Version 2
// added the walseq header field (the last write-ahead-log sequence the
// snapshot covers), a CRC32C trailer over everything before it, and a
// record count — so a truncated or bit-flipped snapshot is detected at
// load instead of silently serving a shorter index. Version 3 added the
// segments line recording the engine's sealed-segment layout, so a load
// reproduces the exact segment structure the snapshot pinned. Versions
// 1 and 2 still load (their layout is rebuilt by the deterministic
// count-based seal policy).
const snapshotVersion = 3

// snapshotTrailer heads the final line of a v2+ snapshot.
const snapshotTrailer = "kjoin-snapshot-trailer"

// snapshotSegments heads the v3 segment-layout line.
const snapshotSegments = "kjoin-snapshot-segments"

var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// SnapshotMeta is what a snapshot says about itself beyond the objects.
type SnapshotMeta struct {
	// Objects is the object count declared (and verified) by the snapshot.
	Objects int
	// WALSeq is the last write-ahead-log sequence applied to the
	// Indexer when the snapshot was taken: recovery replays only WAL
	// records with larger sequences over it. Zero for v1 snapshots and
	// indexes that never saw a WAL.
	WALSeq uint64
}

// crcLineWriter mirrors every byte into a CRC32C alongside the
// destination, so the trailer can vouch for exactly the bytes written.
type crcLineWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
}

func (cw *crcLineWriter) Write(p []byte) (int, error) {
	cw.crc.Write(p) // hash.Hash never errors
	return cw.w.Write(p)
}

func (cw *crcLineWriter) WriteString(s string) (int, error) {
	cw.crc.Write([]byte(s))
	return cw.w.WriteString(s)
}

func (cw *crcLineWriter) WriteByte(b byte) error {
	var one = [1]byte{b}
	cw.crc.Write(one[:])
	return cw.w.WriteByte(b)
}

// PinnedView is one immutable epoch of the Indexer, pinned by Pin: the
// segment layout, object count and WAL position it reports all belong
// to the same atomically published engine state, and WriteSnapshot
// serializes exactly that state no matter how many adds land after the
// pin. All methods are safe from any goroutine.
type PinnedView struct {
	ix *Indexer
	v  *view
}

// Pin captures the current engine epoch with one atomic load.
func (ix *Indexer) Pin() *PinnedView {
	return &PinnedView{ix: ix, v: ix.view.Load()}
}

// Objects returns the pinned object count.
func (pv *PinnedView) Objects() int { return pv.v.total }

// WALSeq returns the last write-ahead-log sequence the pinned state
// reflects.
func (pv *PinnedView) WALSeq() uint64 { return pv.v.walSeq }

// ObjectTokens returns the normalized token list of one indexed object,
// or ok=false when the id is outside the pinned view. The tokens are
// exactly what WriteSnapshot would emit for the object — re-adding them
// to a fresh index reproduces the object bit-identically — which is what
// lets a cluster reshard stream an object from one shard to another.
func (pv *PinnedView) ObjectTokens(id int) ([]string, bool) {
	if id < 0 || id >= pv.v.total {
		return nil, false
	}
	o := pv.v.objAt(id)
	out := make([]string, len(o.Elems))
	for i, e := range o.Elems {
		out[i] = pv.ix.j.res.Info(e).Token
	}
	return out, true
}

// SegmentSizes returns the pinned sealed-segment layout (object count
// per segment, in order).
func (pv *PinnedView) SegmentSizes() []int {
	out := make([]int, len(pv.v.segs))
	for i, s := range pv.v.segs {
		out[i] = len(s.objs)
	}
	return out
}

// WriteSnapshot persists the pinned state: a header recording the
// configuration fingerprint, object count and covered WAL sequence, the
// sealed-segment layout, the tokenized objects in insertion order (one
// per line, tab-separated tokens), and a trailer carrying the record
// count and a CRC32C of everything before it. The format is plain text
// — derived state (signatures, prefixes, inverted lists) is cheap to
// rebuild deterministically and would multiply the format surface.
func (pv *PinnedView) WriteSnapshot(w io.Writer) error {
	ix, v := pv.ix, pv.v
	bw := bufio.NewWriter(w)
	cw := &crcLineWriter{w: bw, crc: crc32.New(snapCastagnoli)}
	opt := ix.j.opt
	if _, err := fmt.Fprintf(cw, "%s %d\n", snapshotMagic, snapshotVersion); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(cw, "delta=%g tau=%g metric=%v set=%v scheme=%v weighted=%v verifier=%v plus=%v objects=%d walseq=%d\n",
		opt.Delta, opt.Tau, opt.Metric, opt.Set, opt.Scheme, opt.Weighted, opt.Verifier, opt.Plus, v.total, v.walSeq); err != nil {
		return err
	}
	if _, err := cw.WriteString(segmentsLine(pv.SegmentSizes())); err != nil {
		return err
	}
	if err := cw.WriteByte('\n'); err != nil {
		return err
	}
	writeObj := func(o *prepped) error {
		for i, e := range o.Elems {
			if i > 0 {
				if err := cw.WriteByte('\t'); err != nil {
					return err
				}
			}
			if _, err := cw.WriteString(ix.j.res.Info(e).Token); err != nil {
				return err
			}
		}
		return cw.WriteByte('\n')
	}
	for _, seg := range v.segs {
		for i := range seg.objs {
			if err := writeObj(&seg.objs[i]); err != nil {
				return err
			}
		}
	}
	for i := range v.memObjs {
		if err := writeObj(&v.memObjs[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "%s crc32c=%08x records=%d\n", snapshotTrailer, cw.crc.Sum32(), v.total); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSnapshot persists the Indexer's contents as of the current
// engine epoch — Pin().WriteSnapshot(w). Callers that need the pinned
// WAL sequence or layout alongside the bytes use Pin directly.
func (ix *Indexer) WriteSnapshot(w io.Writer) error {
	return ix.Pin().WriteSnapshot(w)
}

// segmentsLine renders the segment-layout line: comma-separated sizes,
// or "-" for an empty layout.
func segmentsLine(sizes []int) string {
	var sb strings.Builder
	sb.WriteString(snapshotSegments)
	sb.WriteByte(' ')
	if len(sizes) == 0 {
		sb.WriteByte('-')
		return sb.String()
	}
	for i, n := range sizes {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(n))
	}
	return sb.String()
}

// parseSegmentsLine decodes the v3 segment-layout line and validates it
// against the declared object count: sizes are positive and their sum
// cannot exceed the objects the snapshot holds (the remainder is the
// memtable).
func parseSegmentsLine(line string, declared int) ([]int, error) {
	rest, ok := strings.CutPrefix(line, snapshotSegments+" ")
	if !ok {
		return nil, fmt.Errorf("kjoin: snapshot: bad segments line %q", line)
	}
	if rest == "-" {
		return nil, nil
	}
	parts := strings.Split(rest, ",")
	sizes := make([]int, len(parts))
	sum := 0
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("kjoin: snapshot: bad segment size %q", p)
		}
		sizes[i] = n
		sum += n
	}
	if declared >= 0 && sum > declared {
		return nil, fmt.Errorf("kjoin: snapshot: segment sizes sum to %d but header declares %d objects", sum, declared)
	}
	return sizes, nil
}

// LoadIndexer rebuilds an Indexer from a snapshot written by
// WriteSnapshot; see LoadIndexerMeta for the full contract.
func LoadIndexer(h *hierarchy.Hierarchy, opt Options, r io.Reader) (*Indexer, error) {
	ix, _, err := LoadIndexerMeta(h, opt, r)
	return ix, err
}

// snapshotHeader is the parsed magic + config lines of a snapshot.
type snapshotHeader struct {
	version  int
	cfg      string // config line with the objects/walseq suffix stripped
	declared int    // declared object count; -1 when absent (legacy v1)
	meta     SnapshotMeta
}

// parseSnapshotHeader decodes the two header lines shared by every
// snapshot version.
func parseSnapshotHeader(magicLine, cfgLine string) (snapshotHeader, error) {
	hdr := snapshotHeader{declared: -1}
	if _, err := fmt.Sscanf(magicLine, snapshotMagic+" %d", &hdr.version); err != nil {
		return hdr, fmt.Errorf("kjoin: snapshot: bad magic line %q", magicLine)
	}
	if hdr.version < 1 || hdr.version > snapshotVersion {
		return hdr, fmt.Errorf("kjoin: snapshot: unsupported version %d", hdr.version)
	}
	hdr.cfg = cfgLine
	if idx := strings.Index(hdr.cfg, " objects="); idx >= 0 {
		suffix := hdr.cfg[idx+1:]
		hdr.cfg = hdr.cfg[:idx]
		switch hdr.version {
		case 1:
			if _, err := fmt.Sscanf(suffix, "objects=%d", &hdr.declared); err != nil || hdr.declared < 0 {
				return hdr, fmt.Errorf("kjoin: snapshot: bad object count %q", suffix)
			}
		default:
			if _, err := fmt.Sscanf(suffix, "objects=%d walseq=%d", &hdr.declared, &hdr.meta.WALSeq); err != nil || hdr.declared < 0 {
				return hdr, fmt.Errorf("kjoin: snapshot: bad objects/walseq header %q", suffix)
			}
		}
	} else if hdr.version != 1 {
		return hdr, fmt.Errorf("kjoin: snapshot: v%d header missing objects count", hdr.version)
	}
	hdr.meta.Objects = hdr.declared
	return hdr, nil
}

// PeekSnapshotMeta reads only a snapshot's header and reports what it
// claims to cover (object count, WAL sequence) without rebuilding the
// index or verifying the body checksum. Recovery uses it to learn the
// WAL position of every retained generation — including the ones it did
// not load — so compaction can be floored below all of them. A
// v1 header without a declared count reports Objects = -1.
func PeekSnapshotMeta(r io.Reader) (SnapshotMeta, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	if !sc.Scan() {
		return SnapshotMeta{}, fmt.Errorf("kjoin: snapshot: missing header: %w", sc.Err())
	}
	magicLine := sc.Text()
	if !sc.Scan() {
		return SnapshotMeta{}, fmt.Errorf("kjoin: snapshot: missing config line")
	}
	hdr, err := parseSnapshotHeader(magicLine, sc.Text())
	if err != nil {
		return SnapshotMeta{}, err
	}
	return hdr.meta, nil
}

// LoadIndexerMeta rebuilds an Indexer from a snapshot and reports the
// snapshot's metadata. The caller supplies the hierarchy and options
// (they are not serialized — the snapshot carries a fingerprint and
// loading fails on a mismatch, preventing silent semantic drift).
// Rebuilding skips the probe phase: objects are re-indexed without
// re-reporting pairs. A v3 snapshot's recorded segment layout is
// reproduced verbatim (seals at exactly the recorded boundaries, no
// merging); older snapshots rebuild their layout through the
// deterministic count-based seal policy.
//
// Loading is strict about integrity, and checks everything before it
// prepares a single object: the declared object count must match the
// lines actually read (a snapshot truncated on a line boundary fails
// instead of loading short), and a v2+ snapshot must end with a trailer
// whose CRC32C matches the bytes read and whose record count agrees with
// the header. The objects are then prepared in bulk (prepRun), a chunk
// at a time, and committed in order; the index is published once.
func LoadIndexerMeta(h *hierarchy.Hierarchy, opt Options, r io.Reader) (*Indexer, SnapshotMeta, error) {
	ix, err := NewIndexer(h, opt)
	if err != nil {
		return nil, SnapshotMeta{}, err
	}
	hdr, bounds, lines, err := readSnapshot(r, opt)
	if err != nil {
		return nil, SnapshotMeta{}, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for done := 0; done < len(lines); {
		end := len(lines)
		if len(bounds) > 0 {
			end = bounds[0]
		}
		if hdr.version >= 3 { // the memtable takes its whole segment at once
			ix.mem.objs = slices.Grow(ix.mem.objs, end-done)
		}
		end = min(end, done+bulkChunk)
		objs := make([][]string, end-done)
		for i, line := range lines[done:end] {
			if line != "" { // snapshots from before input validation may hold one
				objs[i] = strings.Split(line, "\t")
			}
		}
		if err := ix.insertRunLocked(objs, hdr.version < 3); err != nil {
			return nil, SnapshotMeta{}, err
		}
		if done = end; len(bounds) > 0 && done == bounds[0] {
			ix.sealLocked()
			bounds = bounds[1:]
		}
	}
	ix.walSeq = hdr.meta.WALSeq
	ix.publishLocked()
	return ix, hdr.meta, nil
}

// bulkChunk is the most objects a load prepares at once: enough to keep
// the workers busy, few enough to stay small beside the index.
const bulkChunk = 1024

// readSnapshot reads a whole snapshot and runs every integrity check,
// building no index state. It returns the header, with the object count
// read in its meta; the cumulative object counts a v3 snapshot seals at
// and nowhere else; and the object lines.
func readSnapshot(r io.Reader, opt Options) (hdr snapshotHeader, bounds []int, lines []string, err error) {
	crc := crc32.New(snapCastagnoli)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	if !sc.Scan() {
		return hdr, nil, nil, fmt.Errorf("kjoin: snapshot: missing header: %w", sc.Err())
	}
	magicLine := sc.Text()
	hashLine(crc, sc.Bytes())
	if !sc.Scan() {
		return hdr, nil, nil, fmt.Errorf("kjoin: snapshot: missing config line")
	}
	cfgLine := sc.Text()
	hashLine(crc, sc.Bytes())
	if hdr, err = parseSnapshotHeader(magicLine, cfgLine); err != nil {
		return hdr, nil, nil, err
	}
	wantCfg := fmt.Sprintf("delta=%g tau=%g metric=%v set=%v scheme=%v weighted=%v verifier=%v plus=%v",
		opt.Delta, opt.Tau, opt.Metric, opt.Set, opt.Scheme, opt.Weighted, opt.Verifier, opt.Plus)
	if hdr.cfg != wantCfg {
		return hdr, nil, nil, fmt.Errorf("kjoin: snapshot: configuration mismatch:\n snapshot: %s\n  options: %s", hdr.cfg, wantCfg)
	}
	if hdr.version >= 3 {
		if !sc.Scan() {
			return hdr, nil, nil, fmt.Errorf("kjoin: snapshot: missing segments line")
		}
		hashLine(crc, sc.Bytes())
		sizes, err := parseSegmentsLine(sc.Text(), hdr.declared)
		if err != nil {
			return hdr, nil, nil, err
		}
		cum := 0
		for _, n := range sizes {
			cum += n
			bounds = append(bounds, cum)
		}
	}
	sawTrailer := false
	for sc.Scan() {
		line := sc.Text()
		if hdr.version >= 2 && strings.HasPrefix(line, snapshotTrailer+" ") {
			var wantCRC uint32
			var wantRecords int
			if _, err := fmt.Sscanf(line, snapshotTrailer+" crc32c=%x records=%d", &wantCRC, &wantRecords); err != nil {
				return hdr, nil, nil, fmt.Errorf("kjoin: snapshot: bad trailer %q", line)
			}
			if got := crc.Sum32(); got != wantCRC {
				return hdr, nil, nil, fmt.Errorf("kjoin: snapshot: checksum mismatch: crc32c %08x, trailer says %08x", got, wantCRC)
			}
			if wantRecords != len(lines) {
				return hdr, nil, nil, fmt.Errorf("kjoin: snapshot: trailer records=%d but %d objects read", wantRecords, len(lines))
			}
			sawTrailer = true
			continue
		}
		if sawTrailer {
			return hdr, nil, nil, fmt.Errorf("kjoin: snapshot: data after trailer")
		}
		hashLine(crc, sc.Bytes())
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, nil, err
	}
	if hdr.version >= 2 && !sawTrailer {
		return hdr, nil, nil, fmt.Errorf("kjoin: snapshot: truncated: missing trailer")
	}
	if hdr.declared >= 0 && len(lines) != hdr.declared {
		return hdr, nil, nil, fmt.Errorf("kjoin: snapshot: header says objects=%d but %d object lines read (truncated?)", hdr.declared, len(lines))
	}
	hdr.meta.Objects = len(lines)
	return hdr, bounds, lines, nil
}

// hashLine feeds one scanned line (with the newline the scanner
// stripped) into the snapshot checksum.
func hashLine(crc hash.Hash32, line []byte) {
	crc.Write(line)
	crc.Write(newline)
}

var newline = []byte{'\n'}

// WALSeq returns the last write-ahead-log sequence applied to this
// Indexer (via ApplyLogged, SetWALSeq, or the snapshot it was loaded
// from). Zero when no WAL is involved. Safe to call concurrently with
// anything (it reads the published view).
func (ix *Indexer) WALSeq() uint64 { return ix.view.Load().walSeq }

// SetWALSeq records that every WAL record up to and including seq is
// reflected in the Indexer. The server calls it under the same lock
// that ordered the corresponding Add.
func (ix *Indexer) SetWALSeq(seq uint64) {
	ix.mu.Lock()
	ix.walSeq = seq
	ix.publishLocked()
	ix.mu.Unlock()
}

// ApplyLogged replays one write-ahead-log add record (ApplyLoggedRun).
func (ix *Indexer) ApplyLogged(seq uint64, tokens []string) error {
	return ix.ApplyLoggedRun(seq, [][]string{tokens})
}

// ApplyLoggedRun replays consecutive write-ahead-log add records, the
// first with sequence first: the objects are prepared in bulk and
// indexed without probing for pairs (they were already reported when
// the adds were acknowledged), and the WAL position advances past them.
// Records must arrive in contiguous sequence order — a gap means log
// segments were lost and the recovered index would silently diverge, so
// it is an error rather than a skip.
func (ix *Indexer) ApplyLoggedRun(first uint64, run [][]string) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if first != ix.walSeq+1 {
		return fmt.Errorf("kjoin: WAL gap: record seq %d after applied seq %d", first, ix.walSeq)
	}
	if err := ix.insertRunLocked(run, true); err != nil {
		return err
	}
	ix.walSeq = first + uint64(len(run)) - 1
	ix.publishLocked()
	return nil
}

// ApplySealLogged replays one write-ahead-log seal record: the memtable
// is sealed (a no-op when it is already empty — logs written before
// seal records existed replay through the count-based policy instead,
// and the two stay idempotent), merged to the layout fixpoint, and the
// WAL position advances. The same contiguity contract as ApplyLogged
// applies.
func (ix *Indexer) ApplySealLogged(seq uint64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if seq != ix.walSeq+1 {
		return fmt.Errorf("kjoin: WAL gap: seal record seq %d after applied seq %d", seq, ix.walSeq)
	}
	ix.sealLocked()
	ix.mergeToFixpointLocked()
	ix.walSeq = seq
	ix.publishLocked()
	return nil
}

// insertRunLocked indexes objs in order without probing for pairs — the
// shared path of snapshot loads and WAL replay — preparing them in bulk
// (prepRun) and committing them one by one. With countSeal a commit
// seals, and merges to the layout fixpoint, before an insert that would
// overflow the memtable: the count rule that rebuilds the layout of
// v1/v2 snapshots and of logs written before seal records existed.
// Replay never logs seals. Caller holds mu and publishes after.
func (ix *Indexer) insertRunLocked(objs [][]string, countSeal bool) error {
	if ix.mem.base+len(ix.mem.objs)+len(objs) > (1<<31)-1 {
		return fmt.Errorf("kjoin: indexer is full")
	}
	ps, entries := ix.prepRun(objs)
	for _, p := range ps {
		if countSeal && len(ix.mem.objs) >= ix.sealCap() {
			ix.sealLocked()
			ix.mergeToFixpointLocked()
		}
		ix.insertLocked(p)
	}
	ix.j.st.SigEntries += int64(entries)
	return nil
}
