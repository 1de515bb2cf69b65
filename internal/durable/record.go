// Package durable is kexserved's crash-restart recovery layer: a
// segmented, CRC-framed write-ahead log plus point-in-time snapshots
// for the server's sharded object table, and the dedup bookkeeping that
// turns client-assigned op IDs into exactly-once semantics across
// restarts.
//
// The contract mirrors the paper's resilience story one level up. The
// k-assignment wrapper makes a shared object (k-1)-resilient to client
// crashes; this package makes the *server* resilient to its own crash,
// the full-memory-loss fault of Golab & Ramaraju's recoverable mutual
// exclusion reformulation. The invariant it maintains:
//
//   - An operation is acknowledged only after it is durable at the
//     configured fsync level, so an acknowledged write survives any
//     later crash (SyncAlways and SyncInterval; SyncNever opts out).
//   - Every applied mutation carries the client's op ID (session
//     identity x sequence number); a bounded per-shard dedup window —
//     persisted with the snapshot and rebuilt by replay — recognizes a
//     retried op whose ack was lost and returns the original result
//     instead of double-applying.
//   - Recovery replays the newest valid snapshot plus the log tail. A
//     torn final record (truncated header, truncated body, bad CRC) is
//     dropped and the file truncated at the last valid boundary;
//     everything before it is kept. A CRC-valid frame of a layout this
//     build does not write is no crash artefact: Open refuses the
//     directory (ErrFormat) and touches nothing.
//
// Layout inside the data directory:
//
//	wal-<firstLSN>.seg   log segments, records framed [len][crc][body]
//	snap-<coverLSN>.snap point-in-time table images (same framing)
//
// The WAL is ordered: the server appends each shard's records in that
// shard's linearization order, so a durable record implies every
// earlier record of its shard is durable too — the property that makes
// "retried unacked ops are not double-applied" hold across a crash
// that loses the tail of the log.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"kexclusion/internal/object"
)

// OpKind identifies a logged mutation. Reads are never logged — they
// do not move the state, so replay does not need them.
type OpKind uint8

// Kind bytes 1 and 2 (add and set on the shard value, before it became
// the RootName register) are retired, not free: they decode as unknown.
const (
	// OpCreate creates named object Obj of type Arg. For
	// snapshot objects Arg2 is the slot count. Idempotent per type.
	OpCreate OpKind = 3
	// OpMapPut stores Arg under Key in map Obj.
	OpMapPut OpKind = 4
	// OpMapCAS stores Arg under Key if the current value equals Arg2
	// (a missing key compares as 0); rejected otherwise.
	OpMapCAS OpKind = 5
	// OpMapDel removes Key from map Obj; rejected if absent.
	OpMapDel OpKind = 6
	// OpQEnq appends Arg to queue Obj.
	OpQEnq OpKind = 7
	// OpQDeq pops the head of queue Obj; rejected if empty. The
	// canonical non-idempotent op: its retry safety IS the dedup window.
	OpQDeq OpKind = 8
	// OpRegAdd adds Arg to register Obj.
	OpRegAdd OpKind = 9
	// OpRegSet overwrites register Obj with Arg.
	OpRegSet OpKind = 10
	// OpSnapUpdate writes Arg into slot Arg2 of snapshot object Obj.
	OpSnapUpdate OpKind = 11

	opKindMin = OpCreate
	opKindMax = OpSnapUpdate
)

// String names the kind for logs and errors.
func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpMapPut:
		return "map.put"
	case OpMapCAS:
		return "map.cas"
	case OpMapDel:
		return "map.del"
	case OpQEnq:
		return "queue.enq"
	case OpQDeq:
		return "queue.deq"
	case OpRegAdd:
		return "reg.add"
	case OpRegSet:
		return "reg.set"
	case OpSnapUpdate:
		return "snap.update"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Record is one applied mutation, the unit of WAL replay.
type Record struct {
	// Session and Seq are the client-assigned op ID: a stable session
	// identity (surviving reconnects) and a per-session sequence
	// number. Session 0 or Seq 0 means the op carried no ID and is
	// excluded from dedup (it still replays).
	Session uint64
	Seq     uint64
	// Shard addresses the server's object table.
	Shard uint32
	// Kind and Arg re-execute the mutation during replay.
	Kind OpKind
	Arg  int64
	// Val is the mutation's result — the acknowledged value, re-served
	// to a deduplicated retry and cross-checked against re-execution
	// during replay.
	Val int64
	// Ver is the shard's mutation version: consecutive per shard, in
	// linearization order. Replay uses it to skip records already
	// covered by a snapshot and to detect gaps.
	Ver uint64
	// Epoch is the shard's failover epoch when the mutation applied
	// (see ShardState.Epoch). Replay and replication order records by
	// (Epoch, Ver): a record from a lower epoch than the state it
	// meets is a discarded fork, never data.
	Epoch uint64
	// Obj and Key address the target object (RootName for the root
	// register) and map key.
	Obj string
	Key string
	// Arg2 is the secondary argument (cas expected value, snapshot
	// slot, create slot count).
	Arg2 int64
	// OK is the op-level verdict that was acknowledged (see
	// Outcome.OK); replay cross-checks it like Val.
	OK bool
	// Atomic, when non-nil, makes this an atomic-group record: the sub
	// records applied all-or-nothing across shards under one LSN. The
	// top-level mutation fields are unused.
	Atomic []Record
}

// Record framing: [4-byte big-endian body length][4-byte CRC-32C of
// body][body]. The body opens with a type byte.
const (
	recHeaderLen = 8
	// The type bytes of the four layouts written. WAL and snapshot
	// frames share one type-byte space so a snapshot body can never be
	// mistaken for a log record, and the space is the format's only
	// version mechanism: a new layout must take a new number. 1, 3, 4, 5,
	// 6 and 7 are retired, not free, and answer ErrFormat like any
	// unknown type.
	recTypeRestart  = 2  // a process (re)start marker (1 byte)
	recTypeObjOp    = 8  // a mutation (opObjBodyLen fixed bytes + name + key)
	recTypeAtomic   = 9  // an atomic group: [type][u16 count] then count × [u16 len][op body]
	recTypeSnapshot = 10 // a snapshot body (see snapshot.go)

	// opObjBodyLen is the fixed prefix of an op record: type +
	// session + seq + shard + kind + arg + arg2 + val + ver + epoch +
	// ok + nameLen(u8) + keyLen(u16); name and key bytes follow.
	opObjBodyLen = 1 + 8 + 8 + 4 + 1 + 8 + 8 + 8 + 8 + 8 + 1 + 1 + 2

	// maxBody bounds a WAL record body; a longer announcement in a
	// header is corruption, not a record worth allocating for.
	maxBody = 1 << 16
	// maxSnapshotBody bounds a snapshot body (one frame for the whole
	// table image, dedup windows included).
	maxSnapshotBody = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks an incomplete record at the end of a scan: the header
// or body is cut short. Recovery treats it as a torn tail write.
var errTorn = errors.New("durable: torn record")

// errCorrupt marks a record that is complete but wrong: absurd length,
// CRC mismatch, or a malformed body. At the tail of the last segment it
// is handled like a torn write; anywhere else it is fatal.
var errCorrupt = errors.New("durable: corrupt record")

// ErrFormat marks a frame whose CRC verifies but whose type byte is not
// a layout this build writes: another build's data, not a crashed
// write. It is never handled as a torn tail — wherever the frame sits,
// Open refuses the directory and truncates, renames and writes nothing.
var ErrFormat = errors.New("durable: unknown record layout (data directory written by another build?)")

// appendFrame appends one framed record body to dst.
func appendFrame(dst, body []byte) []byte {
	var hdr [recHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(body, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// decodeFrame reads one framed body from the front of b, returning the
// body and the bytes consumed. errTorn means b ends mid-record;
// errCorrupt means the frame is complete but fails validation.
func decodeFrame(b []byte, maxLen int) ([]byte, int, error) {
	if len(b) < recHeaderLen {
		return nil, 0, errTorn
	}
	n := int(binary.BigEndian.Uint32(b[0:]))
	if n == 0 || n > maxLen {
		return nil, 0, fmt.Errorf("%w: body length %d outside (0,%d]", errCorrupt, n, maxLen)
	}
	if len(b) < recHeaderLen+n {
		return nil, 0, errTorn
	}
	body := b[recHeaderLen : recHeaderLen+n]
	if got, want := crc32.Checksum(body, crcTable), binary.BigEndian.Uint32(b[4:]); got != want {
		return nil, 0, fmt.Errorf("%w: CRC %#x, want %#x", errCorrupt, got, want)
	}
	return body, recHeaderLen + n, nil
}

// encodeOp frames an op record.
func encodeOp(r Record) []byte {
	return appendFrame(nil, EncodeRecordBody(r))
}

// EncodeRecordBody serializes an op record body without the CRC frame
// — the shared codec for WAL appends and replication shipping. Every
// mutation, the root register's included (a zero-length name), is one
// type-8 body; a record with Atomic set becomes one atomic-group body.
func EncodeRecordBody(r Record) []byte {
	if len(r.Atomic) > 0 {
		body := []byte{recTypeAtomic}
		body = binary.BigEndian.AppendUint16(body, uint16(len(r.Atomic)))
		for _, sub := range r.Atomic {
			sb := EncodeRecordBody(sub)
			body = binary.BigEndian.AppendUint16(body, uint16(len(sb)))
			body = append(body, sb...)
		}
		return body
	}
	body := make([]byte, opObjBodyLen, opObjBodyLen+len(r.Obj)+len(r.Key))
	body[0] = recTypeObjOp
	binary.BigEndian.PutUint64(body[1:], r.Session)
	binary.BigEndian.PutUint64(body[9:], r.Seq)
	binary.BigEndian.PutUint32(body[17:], r.Shard)
	body[21] = byte(r.Kind)
	binary.BigEndian.PutUint64(body[22:], uint64(r.Arg))
	binary.BigEndian.PutUint64(body[30:], uint64(r.Arg2))
	binary.BigEndian.PutUint64(body[38:], uint64(r.Val))
	binary.BigEndian.PutUint64(body[46:], r.Ver)
	binary.BigEndian.PutUint64(body[54:], r.Epoch)
	if r.OK {
		body[62] = 1
	}
	body[63] = byte(len(r.Obj))
	binary.BigEndian.PutUint16(body[64:], uint16(len(r.Key)))
	body = append(body, r.Obj...)
	body = append(body, r.Key...)
	return body
}

// ParseRecordBody decodes an op or atomic-group record body produced
// by EncodeRecordBody. Restart markers and snapshot bodies are
// rejected — this is the replication-facing codec, and a peer has no
// business shipping those as ops.
func ParseRecordBody(body []byte) (Record, error) {
	if len(body) == 0 {
		return Record{}, fmt.Errorf("%w: empty record body", errCorrupt)
	}
	rec, isRestart, err := parseBody(body)
	if err != nil {
		return Record{}, err
	}
	if isRestart {
		return Record{}, fmt.Errorf("%w: restart marker where an op record was expected", errCorrupt)
	}
	return rec, nil
}

// encodeRestart frames a restart marker.
func encodeRestart() []byte {
	return appendFrame(nil, []byte{recTypeRestart})
}

// parseBody decodes a validated frame body into an op record or a
// restart marker (restart reports ok with isRestart true).
func parseBody(body []byte) (rec Record, isRestart bool, err error) {
	switch body[0] {
	case recTypeObjOp:
		if len(body) < opObjBodyLen {
			return Record{}, false, fmt.Errorf("%w: object op body is %d bytes, want >= %d", errCorrupt, len(body), opObjBodyLen)
		}
		nameLen := int(body[63])
		keyLen := int(binary.BigEndian.Uint16(body[64:]))
		if len(body) != opObjBodyLen+nameLen+keyLen {
			return Record{}, false, fmt.Errorf("%w: object op body is %d bytes, want %d", errCorrupt, len(body), opObjBodyLen+nameLen+keyLen)
		}
		if nameLen > object.MaxNameLen || keyLen > object.MaxKeyLen {
			return Record{}, false, fmt.Errorf("%w: object op name/key lengths %d/%d exceed caps", errCorrupt, nameLen, keyLen)
		}
		rec = Record{
			Session: binary.BigEndian.Uint64(body[1:]),
			Seq:     binary.BigEndian.Uint64(body[9:]),
			Shard:   binary.BigEndian.Uint32(body[17:]),
			Kind:    OpKind(body[21]),
			Arg:     int64(binary.BigEndian.Uint64(body[22:])),
			Arg2:    int64(binary.BigEndian.Uint64(body[30:])),
			Val:     int64(binary.BigEndian.Uint64(body[38:])),
			Ver:     binary.BigEndian.Uint64(body[46:]),
			Epoch:   binary.BigEndian.Uint64(body[54:]),
			OK:      body[62] == 1,
			Obj:     string(body[opObjBodyLen : opObjBodyLen+nameLen]),
			Key:     string(body[opObjBodyLen+nameLen:]),
		}
		if body[62] > 1 {
			return Record{}, false, fmt.Errorf("%w: object op ok byte %d", errCorrupt, body[62])
		}
		if rec.Kind < opKindMin || rec.Kind > opKindMax {
			return Record{}, false, fmt.Errorf("%w: unknown op kind %d", errCorrupt, body[21])
		}
		if rec.Ver == 0 {
			return Record{}, false, fmt.Errorf("%w: op record with version 0", errCorrupt)
		}
		return rec, false, nil
	case recTypeAtomic:
		if len(body) < 3 {
			return Record{}, false, fmt.Errorf("%w: atomic body is %d bytes", errCorrupt, len(body))
		}
		count := int(binary.BigEndian.Uint16(body[1:]))
		if count == 0 || count > object.MaxAtomicOps {
			return Record{}, false, fmt.Errorf("%w: atomic group of %d ops outside (0,%d]", errCorrupt, count, object.MaxAtomicOps)
		}
		rec = Record{Atomic: make([]Record, 0, count)}
		off := 3
		for i := 0; i < count; i++ {
			if len(body)-off < 2 {
				return Record{}, false, fmt.Errorf("%w: atomic sub %d truncated", errCorrupt, i)
			}
			n := int(binary.BigEndian.Uint16(body[off:]))
			off += 2
			if n == 0 || len(body)-off < n {
				return Record{}, false, fmt.Errorf("%w: atomic sub %d length %d exceeds body", errCorrupt, i, n)
			}
			sb := body[off : off+n]
			off += n
			if sb[0] != recTypeObjOp {
				// Earlier builds logged groups with type-5 members.
				return Record{}, false, fmt.Errorf("%w: atomic sub %d has record type %d", ErrFormat, i, sb[0])
			}
			sub, _, err := parseBody(sb)
			if err != nil {
				return Record{}, false, err
			}
			rec.Atomic = append(rec.Atomic, sub)
		}
		if off != len(body) {
			return Record{}, false, fmt.Errorf("%w: atomic body has trailing bytes", errCorrupt)
		}
		return rec, false, nil
	case recTypeRestart:
		if len(body) != 1 {
			return Record{}, false, fmt.Errorf("%w: restart body is %d bytes, want 1", errCorrupt, len(body))
		}
		return Record{}, true, nil
	}
	return Record{}, false, fmt.Errorf("%w: record type %d", ErrFormat, body[0])
}
