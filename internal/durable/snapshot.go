package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"kexclusion/internal/object"
)

// Snapshot body layout (one CRC frame, like a WAL record):
//
//	[1 type=10][8 coverLSN][8 markers][4 shardCount]
//	  per shard, ascending id:
//	    [4 id][8 epoch][8 ver][4 dedupCount]
//	      per dedup entry, ascending session:
//	        [8 session][4 opCount][opCount × [8 seq][8 val][8 ver][1 ok]]
//	    [named-object table — object.AppendTable bytes; the root
//	     register is in it, under its zero-length name, once written to]
//
// Each dedup entry carries the session's recent-op history, newest
// first (opCount ≥ 1; op 0 is the entry's inline newest).
//
// coverLSN is the log end captured BEFORE the shard images are read:
// every record at or below it is reflected in the images; records
// above it may or may not be, which replay resolves per shard by
// version. markers is the cumulative restart-marker tally, which must
// live here because the markers themselves get pruned with their
// segments.
const (
	snapShardHdr = 4 + 8 + 8 + 4 // [id][epoch][ver][dedupCount]
	snapDedupHdr = 8 + 4         // [session][opCount]
	snapOpSize   = 8 + 8 + 8 + 1 // [seq][val][ver][ok]
)

func encodeSnapshot(cover, markers uint64, shards map[uint32]ShardState) []byte {
	ids := make([]uint32, 0, len(shards))
	for id := range shards {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	b01 := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	body := make([]byte, 0, 21+len(shards)*28)
	body = append(body, recTypeSnapshot)
	body = binary.BigEndian.AppendUint64(body, cover)
	body = binary.BigEndian.AppendUint64(body, markers)
	body = binary.BigEndian.AppendUint32(body, uint32(len(ids)))
	for _, id := range ids {
		s := shards[id]
		body = binary.BigEndian.AppendUint32(body, id)
		body = binary.BigEndian.AppendUint64(body, s.Epoch)
		body = binary.BigEndian.AppendUint64(body, s.Ver)
		sessions := s.Dedup.SortedKeys()
		body = binary.BigEndian.AppendUint32(body, uint32(len(sessions)))
		for _, sess := range sessions {
			e, _ := s.Dedup.Get(sess)
			body = binary.BigEndian.AppendUint64(body, sess)
			body = binary.BigEndian.AppendUint32(body, uint32(1+len(e.Recent)))
			body = binary.BigEndian.AppendUint64(body, e.Seq)
			body = binary.BigEndian.AppendUint64(body, uint64(e.Val))
			body = binary.BigEndian.AppendUint64(body, e.Ver)
			body = append(body, b01(e.OK))
			for _, op := range e.Recent {
				body = binary.BigEndian.AppendUint64(body, op.Seq)
				body = binary.BigEndian.AppendUint64(body, uint64(op.Val))
				body = binary.BigEndian.AppendUint64(body, op.Ver)
				body = append(body, b01(op.OK))
			}
		}
		body = object.AppendTable(body, s.Objs)
	}
	return body
}

func decodeSnapshot(body []byte) (cover, markers uint64, shards map[uint32]ShardState, err error) {
	fail := func(what string) (uint64, uint64, map[uint32]ShardState, error) {
		return 0, 0, nil, fmt.Errorf("%w: snapshot %s", errCorrupt, what)
	}
	if len(body) < 21 {
		return fail("header malformed")
	}
	if body[0] != recTypeSnapshot {
		return 0, 0, nil, fmt.Errorf("%w: snapshot type %d", ErrFormat, body[0])
	}
	cover = binary.BigEndian.Uint64(body[1:])
	markers = binary.BigEndian.Uint64(body[9:])
	nShards := int(binary.BigEndian.Uint32(body[17:]))
	off := 21
	// Every shard needs at least a shard header, so a declared count
	// the remaining body cannot hold is corruption — checked BEFORE the
	// count becomes a map allocation hint, or a CRC-valid but crafted
	// frame could demand an allocation sized for 2^32 entries.
	if nShards > (len(body)-off)/snapShardHdr {
		return fail("shard count exceeds body size")
	}
	readOp := func() DedupOp {
		op := DedupOp{
			Seq: binary.BigEndian.Uint64(body[off:]),
			Val: int64(binary.BigEndian.Uint64(body[off+8:])),
			Ver: binary.BigEndian.Uint64(body[off+16:]),
			OK:  body[off+24] == 1,
		}
		off += snapOpSize
		return op
	}
	shards = make(map[uint32]ShardState, nShards)
	for i := 0; i < nShards; i++ {
		if len(body)-off < snapShardHdr {
			return fail("shard header truncated")
		}
		id := binary.BigEndian.Uint32(body[off:])
		s := ShardState{
			Epoch: binary.BigEndian.Uint64(body[off+4:]),
			Ver:   binary.BigEndian.Uint64(body[off+12:]),
		}
		nDedup := int(binary.BigEndian.Uint32(body[off+20:]))
		off += snapShardHdr
		if nDedup > 0 {
			// Bound the count before looping on it.
			if nDedup > (len(body)-off)/snapDedupHdr {
				return fail("dedup entries truncated")
			}
			for j := 0; j < nDedup; j++ {
				if len(body)-off < snapDedupHdr {
					return fail("dedup entries truncated")
				}
				sess := binary.BigEndian.Uint64(body[off:])
				nOps := int(binary.BigEndian.Uint32(body[off+8:]))
				off += snapDedupHdr
				if nOps < 1 || nOps > (len(body)-off)/snapOpSize {
					return fail("dedup history truncated")
				}
				newest := readOp()
				e := DedupEntry{Seq: newest.Seq, Val: newest.Val, Ver: newest.Ver, OK: newest.OK}
				if nOps > 1 {
					e.Recent = make([]DedupOp, nOps-1)
					for k := range e.Recent {
						e.Recent[k] = readOp()
					}
				}
				s.Dedup = s.Dedup.Set(sess, e)
			}
			if s.Dedup.Len() != nDedup {
				return fail("has repeated dedup sessions")
			}
		}
		objs, n, derr := object.DecodeTable(body[off:])
		if derr != nil {
			return 0, 0, nil, fmt.Errorf("%w: snapshot shard %d: %v", errCorrupt, id, derr)
		}
		s.Objs = objs
		off += n
		if _, dup := shards[id]; dup {
			return fail("has repeated shard ids")
		}
		shards[id] = s
	}
	if off != len(body) {
		return fail("has trailing bytes")
	}
	return cover, markers, shards, nil
}

// EncodeState serializes a per-shard state map (versions, object tables
// and dedup windows) in the snapshot body layout, for shipping a state
// image to a replication peer. The cover/marker header fields are
// zero — they are meaningful only for a local snapshot file, where the
// receiver owns the log the cover refers to.
func EncodeState(shards map[uint32]ShardState) []byte {
	return encodeSnapshot(0, 0, shards)
}

// DecodeState parses a state image produced by EncodeState.
func DecodeState(data []byte) (map[uint32]ShardState, error) {
	_, _, shards, err := decodeSnapshot(data)
	return shards, err
}

// WriteSnapshot writes the log's buffer (a cover never runs ahead of the
// file), captures a point-in-time image of the table and writes it
// atomically (temp file, fsync, rename, directory fsync), then prunes
// segments and snapshots the new image makes redundant. peek is called
// once, after the cover LSN is captured, and must return a consistent
// per-shard image (resilient.Shared's Peek qualifies: each shard image
// is some linearized state at least as new as the capture point).
func (l *Log) WriteSnapshot(peek func() map[uint32]ShardState) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()

	l.mu.Lock()
	err := l.writeLocked()
	if l.closed {
		err = fmt.Errorf("durable: log is closed")
	}
	if err != nil {
		l.mu.Unlock()
		return err
	}
	cover := l.end
	markers := l.markers
	l.mu.Unlock()

	shards := peek()
	frame := appendFrame(nil, encodeSnapshot(cover, markers, shards))

	final := filepath.Join(l.opts.Dir, fmt.Sprintf("snap-%016d.snap", cover))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	return l.prune(cover, final)
}

// prune removes snapshots older than the one just written and every
// segment whose records all sit at or below the cover. The active
// segment is never removed. A crash mid-prune is safe: recovery
// ignores older snapshots and version-skips already-covered records.
func (l *Log) prune(cover uint64, keepSnap string) error {
	snaps, err := filepath.Glob(filepath.Join(l.opts.Dir, "snap-*.snap"))
	if err != nil {
		return err
	}
	for _, p := range snaps {
		if p != keepSnap {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}

	l.mu.Lock()
	var drop []segment
	// Segment i's records span [segs[i].start, segs[i+1].start-1]; it
	// is redundant when that whole range is covered AND fully consumed
	// by every retention pin (a lagging log reader keeps its tail
	// alive). len(l.segs)-1 is the active segment and always stays.
	minPin, pinned := l.minPinLocked()
	for len(l.segs) > 1 && l.segs[1].start-1 <= cover &&
		(!pinned || l.segs[1].start-1 <= minPin) {
		drop = append(drop, l.segs[0])
		l.segs = l.segs[1:]
	}
	l.mu.Unlock()

	for _, sg := range drop {
		if err := os.Remove(sg.path); err != nil {
			return err
		}
	}
	if len(drop) > 0 || len(snaps) > 1 {
		return l.syncDir()
	}
	return nil
}

// loadNewestSnapshot restores the most recent readable snapshot into
// rec, returning its cover LSN. Newer-but-unreadable snapshots are
// skipped with a notice (a torn snapshot write); if snapshots exist
// but none is readable, recovery fails rather than silently serving
// partial state from a possibly-pruned log. A CRC-valid snapshot of a
// layout this build does not write is no torn write: recovery refuses
// (ErrFormat) instead of falling back past it.
func (l *Log) loadNewestSnapshot(rec *Recovery) (uint64, error) {
	paths, err := filepath.Glob(filepath.Join(l.opts.Dir, "snap-*.snap"))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, nil
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	var lastErr error
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		body, n, err := decodeFrame(data, maxSnapshotBody)
		if err == nil && n != len(data) {
			err = fmt.Errorf("%w: snapshot has trailing bytes", errCorrupt)
		}
		if err == nil {
			var cover, markers uint64
			var shards map[uint32]ShardState
			cover, markers, shards, err = decodeSnapshot(body)
			if err == nil {
				rec.Shards = shards
				rec.RestartCount = markers
				return cover, nil
			}
		}
		if errors.Is(err, ErrFormat) {
			return 0, fmt.Errorf("durable: %s: %w", filepath.Base(p), err)
		}
		l.opts.Logf("durable: skipping unreadable snapshot %s: %v", filepath.Base(p), err)
		lastErr = err
	}
	return 0, fmt.Errorf("durable: no readable snapshot among %d candidate(s): %w", len(paths), lastErr)
}
