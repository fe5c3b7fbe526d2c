package cluster

// Durable coordinator state. The control plane's entire truth — which
// global id every object got, where it lives, and what the route table
// says — is reconstructible from a coordinator WAL of typed records
// plus periodic snapshot generations, recovered and snapshotted by the
// same durable-log kernel (serverutil.Log) as the server's data path.
//
// Every state change follows a write-ahead intent/outcome protocol:
//
//	assign-intent g home tok…   (fsync'd)   → shard add → assign-done g home local
//	move-intent   g src dst     (fsync'd)   → shard add → move-done g src dst local
//
// addMu serializes assigns, moves and reshard transitions, so the log
// holds at most ONE unresolved intent at any moment. Recovery replays
// the log; a dangling tail intent is resolved by consulting the target
// shard's object count: count == len(toGlobal[target]) means the shard
// never applied the add (the intent is aborted), count == len+1 means
// it did (the record is completed exactly as the live path would have).
// Either way the resolution is itself logged, so a second crash replays
// a closed log. Shard adds are serialized by the same addMu, which is
// what makes the count test unambiguous. The live path settles an
// ambiguous shard add the same way (settle is shared).

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"strings"

	"kjoin/internal/replica"
	"kjoin/internal/serverutil"
	"kjoin/internal/wal"
)

// Coordinator WAL record types: fields[0] of every OpCoord record.
const (
	recAssignIntent = "assign-intent"    // g, home, tokens…
	recAssignDone   = "assign-done"      // g, home, local
	recAssignAbort  = "assign-abort"     // g
	recReshardBegin = "reshard-begin"    // vNew, assignCSV, nNew, spec…, moving…
	recMoveIntent   = "move-intent"      // g, src, dst
	recMoveDone     = "move-done"        // g, src, dst, dstLocal
	recMoveAbort    = "move-abort"       // g
	recReshardFinal = "reshard-finalize" // vFinal
	recReshardAbort = "reshard-abort"    // vAbort
)

// recordError is a malformed or out-of-sequence coordinator record:
// recovery refuses to start on one (the state is semantically unusable,
// not merely torn).
type recordError struct {
	field  string
	detail string
}

func (e *recordError) Error() string {
	return fmt.Sprintf("cluster: bad coordinator record (%s): %s", e.field, e.detail)
}

// Durability configures the coordinator's crash-safety machinery: a
// write-ahead log every id assignment and route change is fsync'd into
// before the add is acknowledged, and a directory of checksummed
// snapshot generations recovery rebuilds from.
type Durability = serverutil.Durability

// appendSync appends one typed record to the coordinator WAL and
// group-commits it durable.
func (c *Coordinator) appendSync(fields []string) (uint64, error) {
	w := c.log.WAL()
	seq, err := w.AppendCoord(fields)
	if err != nil {
		return 0, err
	}
	return seq, w.Sync(seq)
}

// migration is one in-flight reshard.
type migration struct {
	oldAssign []int // route table before begin: the dual-read union's other half, and what abort restores
	items     []moveItem
	moved     int // items with moved=true
}

// moveItem is one object the migration streams to a new home.
type moveItem struct {
	g, src, srcLocal, dst int
	moved                 bool
	dstLocal              int
}

// pendingIntent is the single unresolved intent record replay may end
// on.
type pendingIntent struct {
	kind   string // recAssignIntent or recMoveIntent
	g      int
	target int // home (assign) or dst (move)
	src    int // move only
}

// ---- record encoding ----

func encAssignIntent(g, home int, tokens []string) []string {
	return append([]string{recAssignIntent, strconv.Itoa(g), strconv.Itoa(home)}, tokens...)
}

func encAssignDone(g, home, local int) []string {
	return []string{recAssignDone, strconv.Itoa(g), strconv.Itoa(home), strconv.Itoa(local)}
}

func encAssignAbort(g int) []string { return []string{recAssignAbort, strconv.Itoa(g)} }

func encMoveIntent(g, src, dst int) []string {
	return []string{recMoveIntent, strconv.Itoa(g), strconv.Itoa(src), strconv.Itoa(dst)}
}

func encMoveDone(g, src, dst, dstLocal int) []string {
	return []string{recMoveDone, strconv.Itoa(g), strconv.Itoa(src), strconv.Itoa(dst), strconv.Itoa(dstLocal)}
}

func encMoveAbort(g int) []string { return []string{recMoveAbort, strconv.Itoa(g)} }

// shardSpec renders a shard's endpoints as "primary|replica|…".
// Endpoints containing '|' are rejected at the reshard API.
func shardSpec(sc ShardConfig) string {
	return strings.Join(append([]string{sc.Primary}, sc.Replicas...), "|")
}

func parseShardSpec(s string) (ShardConfig, error) {
	parts := strings.Split(s, "|")
	if parts[0] == "" {
		return ShardConfig{}, &recordError{field: "shard-spec", detail: "empty primary"}
	}
	sc := ShardConfig{Primary: parts[0]}
	if len(parts) > 1 {
		sc.Replicas = parts[1:]
	}
	return sc, nil
}

func encReshardBegin(vNew int, newAssign []int, added []ShardConfig, items []moveItem) []string {
	fields := []string{recReshardBegin, strconv.Itoa(vNew), assignCSV(newAssign), strconv.Itoa(len(added))}
	for _, sc := range added {
		fields = append(fields, shardSpec(sc))
	}
	for _, it := range items {
		fields = append(fields, fmt.Sprintf("%d:%d:%d:%d", it.g, it.src, it.srcLocal, it.dst))
	}
	return fields
}

func parseMoveEntry(s string) (moveItem, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return moveItem{}, &recordError{field: "moving", detail: "bad entry " + s}
	}
	nums := make([]int, 4)
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return moveItem{}, &recordError{field: "moving", detail: "bad entry " + s}
		}
		nums[i] = n
	}
	return moveItem{g: nums[0], src: nums[1], srcLocal: nums[2], dst: nums[3]}, nil
}

// atoiField parses one integer field of a typed record.
func atoiField(rec, name, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, &recordError{field: rec + "." + name, detail: "not a non-negative integer: " + v}
	}
	return n, nil
}

// ---- replay ----

// replayState carries the replay-only bookkeeping alongside the
// coordinator being rebuilt.
type replayState struct {
	c       *Coordinator
	pending *pendingIntent
}

// applyRecord applies one replayed (or snapshot-era) coordinator record
// to the state under construction. It performs the full contiguity
// validation — replay is the reference implementation of the record
// semantics, and the live mutation paths must land on exactly the state
// replay would build. The caller holds mu by construction: replay runs
// on an unpublished coordinator before any other goroutine can see it.
func (rs *replayState) applyRecord(fields []string) error {
	if len(fields) == 0 {
		return &recordError{field: "record", detail: "empty field list"}
	}
	c := rs.c
	switch fields[0] {
	case recAssignIntent:
		if rs.pending != nil {
			return &recordError{field: recAssignIntent, detail: "previous intent unresolved"}
		}
		if len(fields) < 3 {
			return &recordError{field: recAssignIntent, detail: "missing fields"}
		}
		g, err := atoiField(recAssignIntent, "g", fields[1])
		if err != nil {
			return err
		}
		home, err := atoiField(recAssignIntent, "home", fields[2])
		if err != nil {
			return err
		}
		if g != c.objects {
			return &recordError{field: recAssignIntent, detail: fmt.Sprintf("global id %d, expected %d", g, c.objects)}
		}
		if home >= len(c.shards) {
			return &recordError{field: recAssignIntent, detail: fmt.Sprintf("unknown shard index %d", home)}
		}
		rs.pending = &pendingIntent{kind: recAssignIntent, g: g, target: home}
	case recAssignDone:
		if len(fields) != 4 {
			return &recordError{field: recAssignDone, detail: "field count"}
		}
		g, err := atoiField(recAssignDone, "g", fields[1])
		if err != nil {
			return err
		}
		home, err := atoiField(recAssignDone, "home", fields[2])
		if err != nil {
			return err
		}
		local, err := atoiField(recAssignDone, "local", fields[3])
		if err != nil {
			return err
		}
		if rs.pending == nil || rs.pending.kind != recAssignIntent || rs.pending.g != g || rs.pending.target != home {
			return &recordError{field: recAssignDone, detail: fmt.Sprintf("no matching intent for global id %d", g)}
		}
		rs.pending = nil
		return c.applyAssign(g, home, local)
	case recAssignAbort:
		if len(fields) != 2 {
			return &recordError{field: recAssignAbort, detail: "field count"}
		}
		g, err := atoiField(recAssignAbort, "g", fields[1])
		if err != nil {
			return err
		}
		if rs.pending == nil || rs.pending.kind != recAssignIntent || rs.pending.g != g {
			return &recordError{field: recAssignAbort, detail: fmt.Sprintf("no matching intent for global id %d", g)}
		}
		rs.pending = nil
	case recMoveIntent:
		if rs.pending != nil {
			return &recordError{field: recMoveIntent, detail: "previous intent unresolved"}
		}
		if len(fields) != 4 {
			return &recordError{field: recMoveIntent, detail: "field count"}
		}
		g, err := atoiField(recMoveIntent, "g", fields[1])
		if err != nil {
			return err
		}
		src, err := atoiField(recMoveIntent, "src", fields[2])
		if err != nil {
			return err
		}
		dst, err := atoiField(recMoveIntent, "dst", fields[3])
		if err != nil {
			return err
		}
		if c.mig == nil {
			return &recordError{field: recMoveIntent, detail: "no migration in progress"}
		}
		if it := c.mig.find(g); it == nil || it.moved || it.src != src || it.dst != dst {
			return &recordError{field: recMoveIntent, detail: fmt.Sprintf("global id %d is not an unmoved migration item", g)}
		}
		rs.pending = &pendingIntent{kind: recMoveIntent, g: g, target: dst, src: src}
	case recMoveDone:
		if len(fields) != 5 {
			return &recordError{field: recMoveDone, detail: "field count"}
		}
		g, err := atoiField(recMoveDone, "g", fields[1])
		if err != nil {
			return err
		}
		src, err := atoiField(recMoveDone, "src", fields[2])
		if err != nil {
			return err
		}
		dst, err := atoiField(recMoveDone, "dst", fields[3])
		if err != nil {
			return err
		}
		dstLocal, err := atoiField(recMoveDone, "local", fields[4])
		if err != nil {
			return err
		}
		if rs.pending == nil || rs.pending.kind != recMoveIntent || rs.pending.g != g || rs.pending.target != dst || rs.pending.src != src {
			return &recordError{field: recMoveDone, detail: fmt.Sprintf("no matching intent for global id %d", g)}
		}
		rs.pending = nil
		return c.applyMove(g, dst, dstLocal)
	case recMoveAbort:
		if len(fields) != 2 {
			return &recordError{field: recMoveAbort, detail: "field count"}
		}
		g, err := atoiField(recMoveAbort, "g", fields[1])
		if err != nil {
			return err
		}
		if rs.pending == nil || rs.pending.kind != recMoveIntent || rs.pending.g != g {
			return &recordError{field: recMoveAbort, detail: fmt.Sprintf("no matching intent for global id %d", g)}
		}
		rs.pending = nil
	case recReshardBegin:
		if rs.pending != nil {
			return &recordError{field: recReshardBegin, detail: "previous intent unresolved"}
		}
		if c.mig != nil {
			return &recordError{field: recReshardBegin, detail: "migration already in progress"}
		}
		if len(fields) < 4 {
			return &recordError{field: recReshardBegin, detail: "missing fields"}
		}
		vNew, err := atoiField(recReshardBegin, "version", fields[1])
		if err != nil {
			return err
		}
		if vNew != c.router.Version()+1 {
			return &recordError{field: recReshardBegin, detail: fmt.Sprintf("version %d, expected %d", vNew, c.router.Version()+1)}
		}
		nNew, err := atoiField(recReshardBegin, "added", fields[3])
		if err != nil {
			return err
		}
		if len(fields) < 4+nNew {
			return &recordError{field: recReshardBegin, detail: "truncated shard specs"}
		}
		added := make([]ShardConfig, 0, nNew)
		for _, spec := range fields[4 : 4+nNew] {
			sc, err := parseShardSpec(spec)
			if err != nil {
				return err
			}
			added = append(added, sc)
		}
		newAssign, err := parseAssignCSV(fields[2], len(c.shards)+nNew)
		if err != nil {
			return err
		}
		items := make([]moveItem, 0, len(fields)-4-nNew)
		for _, entry := range fields[4+nNew:] {
			it, err := parseMoveEntry(entry)
			if err != nil {
				return err
			}
			items = append(items, it)
		}
		return c.applyReshardBegin(vNew, newAssign, added, items)
	case recReshardFinal:
		if rs.pending != nil {
			return &recordError{field: recReshardFinal, detail: "previous intent unresolved"}
		}
		if len(fields) != 2 {
			return &recordError{field: recReshardFinal, detail: "field count"}
		}
		v, err := atoiField(recReshardFinal, "version", fields[1])
		if err != nil {
			return err
		}
		return c.applyReshardFinalize(v)
	case recReshardAbort:
		if rs.pending != nil {
			return &recordError{field: recReshardAbort, detail: "previous intent unresolved"}
		}
		if len(fields) != 2 {
			return &recordError{field: recReshardAbort, detail: "field count"}
		}
		v, err := atoiField(recReshardAbort, "version", fields[1])
		if err != nil {
			return err
		}
		return c.applyReshardAbort(v)
	default:
		return &recordError{field: fields[0], detail: "unknown record type"}
	}
	return nil
}

// find returns the migration item for global id g, nil when g is not in
// the moving set.
func (m *migration) find(g int) *moveItem {
	for i := range m.items {
		if m.items[i].g == g {
			return &m.items[i]
		}
	}
	return nil
}

// ---- state mutation (shared by replay and the live paths) ----

// applyAssign commits one id assignment: global id g lives on shard
// home at local id local. Caller holds addMu (or is single-threaded
// recovery).
func (c *Coordinator) applyAssign(g, home, local int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g != c.objects {
		return &recordError{field: recAssignDone, detail: fmt.Sprintf("global id %d, expected %d", g, c.objects)}
	}
	if home >= len(c.toGlobal) {
		return &recordError{field: recAssignDone, detail: fmt.Sprintf("unknown shard index %d", home)}
	}
	if local != len(c.toGlobal[home]) {
		return &recordError{field: recAssignDone, detail: fmt.Sprintf("shard %d local id %d, expected %d", home, local, len(c.toGlobal[home]))}
	}
	c.toGlobal[home] = append(c.toGlobal[home], g)
	c.live[home]++
	c.homeOf = append(c.homeOf, objLoc{shard: home, local: local})
	c.objects++
	return nil
}

// applyMove commits one migration copy: global id g now also lives on
// shard dst at dstLocal (the source copy stays authoritative until
// finalize). Caller holds addMu (or is single-threaded recovery).
func (c *Coordinator) applyMove(g, dst, dstLocal int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mig == nil {
		return &recordError{field: recMoveDone, detail: "no migration in progress"}
	}
	it := c.mig.find(g)
	if it == nil || it.moved || it.dst != dst {
		return &recordError{field: recMoveDone, detail: fmt.Sprintf("global id %d is not an unmoved migration item", g)}
	}
	if dstLocal != len(c.toGlobal[dst]) {
		return &recordError{field: recMoveDone, detail: fmt.Sprintf("shard %d local id %d, expected %d", dst, dstLocal, len(c.toGlobal[dst]))}
	}
	c.toGlobal[dst] = append(c.toGlobal[dst], g)
	c.live[dst]++
	it.moved = true
	it.dstLocal = dstLocal
	c.mig.moved++
	c.movedTotal.Add(1)
	return nil
}

// applyReshardBegin installs a migration: the fleet grows by the added
// shards, the route table switches to the new assignment under a bumped
// version (new adds route by it immediately), and the moving set enters
// its dual-read window. Caller holds addMu (or is single-threaded
// recovery).
func (c *Coordinator) applyReshardBegin(vNew int, newAssign []int, added []ShardConfig, items []moveItem) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sc := range added {
		c.shards = append(c.shards, c.newShard(len(c.shards), sc))
		c.toGlobal = append(c.toGlobal, nil)
		c.live = append(c.live, 0)
	}
	for i := range items {
		it := &items[i]
		if it.g >= c.objects || it.src >= len(c.shards) || it.dst >= len(c.shards) {
			return &recordError{field: recReshardBegin, detail: fmt.Sprintf("moving entry %d:%d:%d:%d out of range", it.g, it.src, it.srcLocal, it.dst)}
		}
		if loc := c.homeOf[it.g]; loc.shard != it.src || loc.local != it.srcLocal {
			return &recordError{field: recReshardBegin, detail: fmt.Sprintf("object %d lives at %d:%d, record says %d:%d", it.g, loc.shard, loc.local, it.src, it.srcLocal)}
		}
	}
	c.mig = &migration{oldAssign: c.router.Assign(), items: items}
	c.router = NewRouterAssign(vNew, newAssign)
	return nil
}

// applyReshardFinalize retires every moved object's source copy and
// closes the migration. Caller holds addMu (or is single-threaded
// recovery).
func (c *Coordinator) applyReshardFinalize(vFinal int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mig == nil {
		return &recordError{field: recReshardFinal, detail: "no migration in progress"}
	}
	if c.mig.moved != len(c.mig.items) {
		return &recordError{field: recReshardFinal, detail: fmt.Sprintf("%d of %d items moved", c.mig.moved, len(c.mig.items))}
	}
	if vFinal != c.router.Version()+1 {
		return &recordError{field: recReshardFinal, detail: fmt.Sprintf("version %d, expected %d", vFinal, c.router.Version()+1)}
	}
	for _, it := range c.mig.items {
		c.toGlobal[it.src][it.srcLocal] = -1 - it.g
		c.live[it.src]--
		c.homeOf[it.g] = objLoc{shard: it.dst, local: it.dstLocal}
	}
	c.router = NewRouterAssign(vFinal, c.router.assign)
	c.mig = nil
	return nil
}

// applyReshardAbort retires every moved object's destination copy,
// restores the pre-begin route table under a bumped version, and closes
// the migration. Objects added while the migration ran stay where the
// new assignment put them — still reachable, because gathers cover every
// shard with live objects — and a later reshard re-homes them. Caller
// holds addMu (or is single-threaded recovery).
func (c *Coordinator) applyReshardAbort(vAbort int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mig == nil {
		return &recordError{field: recReshardAbort, detail: "no migration in progress"}
	}
	if vAbort != c.router.Version()+1 {
		return &recordError{field: recReshardAbort, detail: fmt.Sprintf("version %d, expected %d", vAbort, c.router.Version()+1)}
	}
	for _, it := range c.mig.items {
		if !it.moved {
			continue
		}
		c.toGlobal[it.dst][it.dstLocal] = -1 - it.g
		c.live[it.dst]--
	}
	c.router = NewRouterAssign(vAbort, c.mig.oldAssign)
	c.mig = nil
	return nil
}

// ---- snapshot ----

const (
	coordSnapMagic   = "kjoin-coord-snapshot"
	coordSnapVersion = 1
	coordSnapTrailer = "end"
)

var coordCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter mirrors every byte into a CRC32C alongside the destination
// so the trailer can vouch for exactly the bytes written.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, coordCastagnoli, p)
	return cw.w.Write(p)
}

// tgCSV renders one shard's toGlobal row ("-" when empty); tombstones
// keep their -1-g encoding.
func tgCSV(row []int) string {
	if len(row) == 0 {
		return "-"
	}
	parts := make([]string, len(row))
	for i, g := range row {
		parts[i] = strconv.Itoa(g)
	}
	return strings.Join(parts, ",")
}

func parseTgCSV(s string) ([]int, error) {
	if s == "-" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		g, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad snapshot toGlobal entry %q", p)
		}
		out = append(out, g)
	}
	return out, nil
}

// writeSnapshotLocked serializes the coordinator's control-plane state.
// Caller holds addMu (state is quiescent: no pending intent exists) and
// c.mu at least for reading.
func (c *Coordinator) writeSnapshotLocked(w io.Writer, walSeq uint64) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	state := "idle"
	if c.mig != nil {
		state = "migrating"
	}
	fmt.Fprintf(cw, "%s %d\n", coordSnapMagic, coordSnapVersion)
	fmt.Fprintf(cw, "version=%d objects=%d walseq=%d shards=%d state=%s\n",
		c.router.Version(), c.objects, walSeq, len(c.shards), state)
	for _, sh := range c.shards {
		fmt.Fprintf(cw, "shard %d %s\n", sh.id, shardSpec(sh.cfg))
	}
	fmt.Fprintf(cw, "assign %s\n", assignCSV(c.router.assign))
	for i, row := range c.toGlobal {
		fmt.Fprintf(cw, "tg %d %s\n", i, tgCSV(row))
	}
	if c.mig != nil {
		fmt.Fprintf(cw, "old %s\n", assignCSV(c.mig.oldAssign))
		for _, it := range c.mig.items {
			moved := 0
			if it.moved {
				moved = 1
			}
			fmt.Fprintf(cw, "mv %d:%d:%d:%d:%d:%d\n", it.g, it.src, it.srcLocal, it.dst, moved, it.dstLocal)
		}
	}
	fmt.Fprintf(bw, "%s crc32c=%08x\n", coordSnapTrailer, cw.crc)
	return bw.Flush()
}

// coordSnap is a parsed coordinator snapshot.
type coordSnap struct {
	version int
	objects int
	walSeq  uint64
	shards  []ShardConfig
	assign  []int
	tg      [][]int
	old     []int // non-nil when state=migrating
	items   []moveItem
	moving  bool
}

// loadCoordSnap parses and checksums a coordinator snapshot.
func loadCoordSnap(r io.Reader) (*coordSnap, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// The trailer is the last line; the CRC covers everything before it.
	idx := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n')
	if idx < 0 {
		return nil, errors.New("cluster: snapshot too short")
	}
	body, trailer := data[:idx+1], strings.TrimSpace(string(data[idx+1:]))
	var wantCRC uint32
	if _, err := fmt.Sscanf(trailer, coordSnapTrailer+" crc32c=%08x", &wantCRC); err != nil {
		return nil, fmt.Errorf("cluster: bad snapshot trailer %q", trailer)
	}
	if got := crc32.Checksum(body, coordCastagnoli); got != wantCRC {
		return nil, fmt.Errorf("cluster: snapshot checksum mismatch: %08x != %08x", got, wantCRC)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) < 2 {
		return nil, errors.New("cluster: snapshot too short")
	}
	var ver int
	if _, err := fmt.Sscanf(lines[0], coordSnapMagic+" %d", &ver); err != nil || ver != coordSnapVersion {
		return nil, fmt.Errorf("cluster: bad snapshot magic %q", lines[0])
	}
	sn := &coordSnap{}
	var nshards int
	var state string
	if _, err := fmt.Sscanf(lines[1], "version=%d objects=%d walseq=%d shards=%d state=%s",
		&sn.version, &sn.objects, &sn.walSeq, &nshards, &state); err != nil {
		return nil, fmt.Errorf("cluster: bad snapshot header %q", lines[1])
	}
	sn.moving = state == "migrating"
	sn.shards = make([]ShardConfig, 0, nshards)
	sn.tg = make([][]int, nshards)
	for _, line := range lines[2:] {
		key, rest, _ := strings.Cut(line, " ")
		switch key {
		case "shard":
			idxStr, spec, ok := strings.Cut(rest, " ")
			idx, err := strconv.Atoi(idxStr)
			if !ok || err != nil || idx != len(sn.shards) {
				return nil, fmt.Errorf("cluster: bad snapshot shard line %q", line)
			}
			sc, err := parseShardSpec(spec)
			if err != nil {
				return nil, err
			}
			sn.shards = append(sn.shards, sc)
		case "assign":
			a, err := parseAssignCSV(rest, nshards)
			if err != nil {
				return nil, err
			}
			sn.assign = a
		case "tg":
			idxStr, csv, ok := strings.Cut(rest, " ")
			idx, err := strconv.Atoi(idxStr)
			if !ok || err != nil || idx < 0 || idx >= nshards {
				return nil, fmt.Errorf("cluster: bad snapshot tg line %q", line)
			}
			row, err := parseTgCSV(csv)
			if err != nil {
				return nil, err
			}
			sn.tg[idx] = row
		case "old":
			a, err := parseAssignCSV(rest, nshards)
			if err != nil {
				return nil, err
			}
			sn.old = a
		case "mv":
			parts := strings.Split(rest, ":")
			if len(parts) != 6 {
				return nil, fmt.Errorf("cluster: bad snapshot mv line %q", line)
			}
			nums := make([]int, 6)
			for i, p := range parts {
				n, err := strconv.Atoi(p)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("cluster: bad snapshot mv line %q", line)
				}
				nums[i] = n
			}
			sn.items = append(sn.items, moveItem{
				g: nums[0], src: nums[1], srcLocal: nums[2], dst: nums[3],
				moved: nums[4] == 1, dstLocal: nums[5],
			})
		default:
			return nil, fmt.Errorf("cluster: unknown snapshot line %q", line)
		}
	}
	if len(sn.shards) != nshards || sn.assign == nil {
		return nil, errors.New("cluster: snapshot missing shard or assign lines")
	}
	if sn.moving && sn.old == nil {
		return nil, errors.New("cluster: migrating snapshot missing old assignment")
	}
	return sn, nil
}

// peekCoordSnapMeta reads just enough of a coordinator snapshot to
// learn the WAL sequence it covers, for seeding the compaction floor
// from every retained generation.
func peekCoordSnapMeta(r io.Reader) (walSeq uint64, err error) {
	br := bufio.NewReader(r)
	line1, err := br.ReadString('\n')
	if err != nil {
		return 0, err
	}
	var ver int
	if _, err := fmt.Sscanf(line1, coordSnapMagic+" %d", &ver); err != nil || ver != coordSnapVersion {
		return 0, fmt.Errorf("cluster: bad snapshot magic %q", strings.TrimSpace(line1))
	}
	line2, err := br.ReadString('\n')
	if err != nil {
		return 0, err
	}
	var version, objects, nshards int
	var state string
	if _, err := fmt.Sscanf(line2, "version=%d objects=%d walseq=%d shards=%d state=%s",
		&version, &objects, &walSeq, &nshards, &state); err != nil {
		return 0, fmt.Errorf("cluster: bad snapshot header %q", strings.TrimSpace(line2))
	}
	return walSeq, nil
}

// installSnap seeds a coordinator's state from a parsed snapshot,
// replacing all of it, so a generation rejected halfway leaves nothing
// behind for the next fallback candidate. The caller holds mu by
// construction: installation runs during recovery on an unpublished
// coordinator before any other goroutine can see it.
func (c *Coordinator) installSnap(sn *coordSnap) error {
	c.mig = nil
	c.shards = c.shards[:0]
	for i, sc := range sn.shards {
		c.shards = append(c.shards, c.newShard(i, sc))
	}
	c.toGlobal = sn.tg
	c.live = make([]int, len(sn.shards))
	c.homeOf = make([]objLoc, sn.objects)
	seen := make([]bool, sn.objects)
	for s, row := range sn.tg {
		for l, g := range row {
			if g < 0 {
				continue // tombstone
			}
			if g >= sn.objects {
				return fmt.Errorf("cluster: snapshot maps shard %d local %d to unknown global id %d", s, l, g)
			}
			c.live[s]++
			if !seen[g] {
				c.homeOf[g] = objLoc{shard: s, local: l}
				seen[g] = true
			}
		}
	}
	c.objects = sn.objects
	c.router = NewRouterAssign(sn.version, sn.assign)
	if sn.moving {
		c.mig = &migration{oldAssign: sn.old, items: sn.items}
		for i := range sn.items {
			it := &sn.items[i]
			if it.moved {
				c.mig.moved++
			} else if it.g < sn.objects {
				// The source copy stays authoritative until finalize; a moved
				// item may have registered its destination copy first above.
				c.homeOf[it.g] = objLoc{shard: it.src, local: it.srcLocal}
			}
		}
		for _, it := range sn.items {
			if it.moved {
				c.homeOf[it.g] = objLoc{shard: it.src, local: it.srcLocal}
			}
		}
	}
	for g, ok := range seen {
		if !ok {
			return fmt.Errorf("cluster: snapshot has no live copy of global id %d", g)
		}
	}
	return nil
}

// ---- recovery ----

// Recover builds a durable coordinator: control-plane state is loaded
// from the newest readable snapshot generation, the coordinator WAL is
// replayed over it (serverutil.Open), a dangling tail intent is settled
// against the target shard, and every later id assignment or route
// change is logged and fsync'd before it is acknowledged. cfg.Shards
// names the initial fleet and is only consulted when no durable state
// exists yet; once recorded, the durable fleet wins (resharding may have
// grown it past the flags). Recovery is single-threaded: until the
// coordinator is returned no other goroutine can see it, so Recover
// holds mu by construction.
func Recover(cfg Config, d Durability) (*Coordinator, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	rs := &replayState{c: c}
	c.log, err = serverutil.Open(d,
		func(r io.Reader) (uint64, int, error) {
			if r == nil {
				return 0, 0, nil // no durable state yet: the configured fleet stands
			}
			sn, err := loadCoordSnap(r)
			if err != nil {
				return 0, 0, err
			}
			return sn.walSeq, sn.objects, c.installSnap(sn)
		},
		peekCoordSnapMeta,
		func(seq uint64, op wal.Op, fields []string) error {
			if op != wal.OpCoord {
				return &recordError{field: "op", detail: fmt.Sprintf("non-coordinator record op %d at seq %d", op, seq)}
			}
			if err := rs.applyRecord(fields); err != nil {
				return fmt.Errorf("cluster: replaying seq %d: %w", seq, err)
			}
			return nil
		}, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator %w", err)
	}
	if p := rs.pending; p != nil {
		// Settle the dangling tail intent. An unreachable shard fails
		// recovery loudly — guessing would corrupt the id map.
		primary := c.shards[p.target].cfg.Primary
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ShardTimeout)
		count, err := c.shardObjects(ctx, primary)
		cancel()
		if err != nil {
			err = fmt.Errorf("cluster: cannot resolve in-flight %s for global id %d: shard %d (%s) unreachable: %w",
				p.kind, p.g, p.target, primary, err)
		} else {
			_, err = c.settle(p.kind, p.g, p.src, p.target, count)
		}
		if err != nil {
			_ = c.log.WAL().Close() // recovery already failed; the resolution error is the one to report
			return nil, err
		}
	}
	c.logf("coordinator recovery: %d objects, route v%d, %d shard(s)", c.objects, c.router.Version(), len(c.shards))
	if c.mig != nil {
		c.logf("coordinator recovery: migration in flight (%d of %d moved); resuming mover", c.mig.moved, len(c.mig.items))
		c.startMover()
	}
	return c, nil
}

// settle closes the single unresolved intent — kind for global id g,
// copying src → target — given the target shard's object count. Count
// == expected means the shard never applied the add: the intent aborts
// (the object, never acknowledged, does not exist). Count == expected+1
// means it did: the record is completed at the local id the count
// proves, exactly as the live path would have. Anything else means
// writes bypassed the coordinator, which latches the control plane. The
// resolution is logged before return, so a second crash replays a
// closed log. Recovery and the live path's ambiguous-outcome resolver
// share it; they differ only in what they do about an unreachable
// shard. Reports whether the add applied.
func (c *Coordinator) settle(kind string, g, src, target, count int) (bool, error) {
	c.mu.RLock()
	expected := len(c.toGlobal[target])
	c.mu.RUnlock()
	var rec []string
	applied := false
	switch count {
	case expected:
		rec = encAssignAbort(g)
		if kind == recMoveIntent {
			rec = encMoveAbort(g)
		}
	case expected + 1:
		var aerr error
		if kind == recAssignIntent {
			rec, aerr = encAssignDone(g, target, expected), c.applyAssign(g, target, expected)
		} else {
			rec, aerr = encMoveDone(g, src, target, expected), c.applyMove(g, target, expected)
		}
		if aerr != nil {
			c.failControl(aerr)
			return false, fmt.Errorf("%w: %v", errMoverHalt, aerr)
		}
		applied = true
	default:
		drift := fmt.Errorf("%w: shard %d reports %d objects, coordinator expected %d or %d: writes bypassed the coordinator",
			errMoverHalt, target, count, expected, expected+1)
		c.failControl(drift)
		return false, drift
	}
	if _, err := c.appendSync(rec); err != nil {
		return false, fmt.Errorf("cluster: logging intent resolution: %w", err)
	}
	c.logf("cluster: %s for global id %d settled on shard %d (applied=%v, %d objects)", kind, g, target, applied, count)
	return applied, nil
}

// shardObjects asks one shard primary how many objects it holds.
func (c *Coordinator) shardObjects(ctx context.Context, primary string) (int, error) {
	var out struct {
		Objects *int `json:"objects"`
	}
	if _, err := replica.Call(ctx, c.cfg.HTTP, http.MethodGet, primary, "/stats", nil, &out); err != nil {
		return 0, err
	}
	if out.Objects == nil {
		return 0, fmt.Errorf("cluster: %s/stats: bad body", primary)
	}
	return *out.Objects, nil
}

// SnapshotGeneration persists the control-plane state as a new snapshot
// generation and compacts the coordinator WAL (serverutil.Log.Snapshot).
// Control-plane writes are quiesced (addMu) only while the state
// serializes in memory; the log sync and the disk write happen with
// adds flowing again.
func (c *Coordinator) SnapshotGeneration() error {
	if c.log == nil {
		return errors.New("cluster: durability not configured")
	}
	err := c.log.Snapshot(func() (uint64, func(io.Writer) error, error) {
		c.addMu.Lock()
		defer c.addMu.Unlock()
		w := c.log.WAL()
		if err := w.Err(); err != nil {
			return 0, nil, fmt.Errorf("coordinator wal unhealthy; refusing snapshot: %w", err)
		}
		seq := w.LastSeq()
		var buf bytes.Buffer
		c.mu.RLock()
		err := c.writeSnapshotLocked(&buf, seq)
		c.mu.RUnlock()
		return seq, func(dst io.Writer) error {
			_, werr := dst.Write(buf.Bytes())
			return werr
		}, err
	})
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// Durable reports whether the coordinator logs its control-plane state.
func (c *Coordinator) Durable() bool { return c.log != nil }
