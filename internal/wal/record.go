package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record layout (all integers little-endian):
//
//	length  uint32  // byte length of payload
//	crc     uint32  // CRC32C (Castagnoli) of payload
//	payload:
//	  seq     uint64   // monotonic sequence number, 1-based
//	  op      uint8    // OpAdd or OpSeal
//	  ntok    uvarint  // token count (0 for OpSeal)
//	  ntok × { len uvarint, bytes }
//
// A record is written with a single Write call, so a crash tears it
// into a strict prefix: either the header is incomplete, the payload is
// shorter than length says, or the CRC does not match. Replay treats
// the first such record as the end of the log.

const (
	headerSize = 8
	// maxRecordBytes bounds a record so a corrupt length field cannot
	// drive a giant allocation. It comfortably exceeds the server's
	// token caps (10000 tokens × 1024 bytes).
	maxRecordBytes = 64 << 20
)

// Op is a record's operation type.
type Op uint8

const (
	// OpAdd records one indexed object (its tokens).
	OpAdd Op = 1
	// OpSeal records a memtable seal boundary of the segmented index
	// engine: recovery reproduces the exact pre-crash segment layout by
	// sealing at the same points. Seal records carry no tokens.
	OpSeal Op = 2
	// OpCoord records one cluster control-plane state change (a global-id
	// assignment, a route-table change, or per-object reshard progress).
	// The token slice carries the typed fields; the cluster layer owns
	// their meaning — to the log they are opaque strings, framed and
	// checksummed like any other record.
	OpCoord Op = 3
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt marks a structurally broken record during decoding; it is
// internal — DecodeAll converts it into a truncation point.
var errCorrupt = errors.New("wal: corrupt record")

// AppendRecord appends the encoded add record for (seq, tokens) to buf
// and returns the extended slice.
func AppendRecord(buf []byte, seq uint64, tokens []string) []byte {
	return appendRecordOp(buf, seq, OpAdd, tokens)
}

// AppendSealRecord appends the encoded seal record for seq to buf and
// returns the extended slice.
func AppendSealRecord(buf []byte, seq uint64) []byte {
	return appendRecordOp(buf, seq, OpSeal, nil)
}

// AppendCoordRecord appends the encoded coordinator record for (seq,
// fields) to buf and returns the extended slice.
func AppendCoordRecord(buf []byte, seq uint64, fields []string) []byte {
	return appendRecordOp(buf, seq, OpCoord, fields)
}

func appendRecordOp(buf []byte, seq uint64, op Op, tokens []string) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	p := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, byte(op))
	buf = binary.AppendUvarint(buf, uint64(len(tokens)))
	for _, t := range tokens {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	payload := buf[p:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// decodePayload parses a checksum-verified payload.
func decodePayload(payload []byte) (seq uint64, op Op, tokens []string, err error) {
	if len(payload) < 9 {
		return 0, 0, nil, errCorrupt
	}
	seq = binary.LittleEndian.Uint64(payload)
	op = Op(payload[8])
	if op != OpAdd && op != OpSeal && op != OpCoord {
		return 0, 0, nil, fmt.Errorf("%w: unknown op %d", errCorrupt, payload[8])
	}
	rest := payload[9:]
	n, used := binary.Uvarint(rest)
	if used <= 0 || n > uint64(len(rest)) {
		return 0, 0, nil, errCorrupt
	}
	if op == OpSeal && n != 0 {
		return 0, 0, nil, fmt.Errorf("%w: seal record carries tokens", errCorrupt)
	}
	rest = rest[used:]
	str := string(rest) // one copy: every token is a slice of it
	tokens = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, used := binary.Uvarint(rest)
		if used <= 0 || l > uint64(len(rest)-used) {
			return 0, 0, nil, errCorrupt
		}
		at := len(str) - len(rest) + used
		tokens = append(tokens, str[at:at+int(l)])
		rest = rest[used+int(l):]
	}
	if len(rest) != 0 {
		return 0, 0, nil, errCorrupt // trailing garbage inside a checksummed payload
	}
	return seq, op, tokens, nil
}

// DecodeAll walks the records in b, calling fn for every intact one,
// and returns the byte offset of the first torn or corrupt record (or
// len(b) when the log is clean). A record is intact when its header is
// complete, its full payload is present, and the payload matches its
// CRC32C; anything else — including a CRC that verifies but a payload
// that does not parse — terminates the walk at that record's offset.
// DecodeAll never panics on arbitrary input. fn's error aborts the walk
// and is returned as-is.
func DecodeAll(b []byte, fn func(seq uint64, op Op, tokens []string) error) (good int, err error) {
	off := 0
	for {
		if len(b)-off < headerSize {
			return off, nil
		}
		length := binary.LittleEndian.Uint32(b[off:])
		crc := binary.LittleEndian.Uint32(b[off+4:])
		if length > maxRecordBytes || int(length) > len(b)-off-headerSize {
			return off, nil
		}
		payload := b[off+headerSize : off+headerSize+int(length)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return off, nil
		}
		seq, op, tokens, derr := decodePayload(payload)
		if derr != nil {
			return off, nil
		}
		if fn != nil {
			if err := fn(seq, op, tokens); err != nil {
				return off, err
			}
		}
		off += headerSize + int(length)
	}
}
