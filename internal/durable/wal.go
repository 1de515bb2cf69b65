package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects the durability point an acknowledgement waits for.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every acknowledgement: an acked op
	// survives both process and host crashes. The fsync happens at the
	// durability wait, not the append, so concurrent appenders — and a
	// pipelined batch waiting once for its last record — group-commit
	// under a single disk write (see commitLocked).
	SyncAlways SyncPolicy = iota
	// SyncInterval is SyncAlways plus a background ticker that commits
	// records nobody waits on. Acknowledgements commit when ready,
	// exactly as under SyncAlways, and survive the same crashes; the
	// interval only bounds how long an un-awaited record (one whose
	// session hung up before its wait) may stay un-synced.
	SyncInterval
	// SyncNever writes without fsync and acknowledges immediately: the
	// OS page cache is the only durability. A process crash typically
	// loses nothing; a host crash may lose the tail.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always, interval or never)", s)
}

// String names the policy for logs and flags.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("syncpolicy(%d)", int(p))
}

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// Policy is the fsync discipline (default SyncAlways).
	Policy SyncPolicy
	// Interval bounds how long SyncInterval leaves a record nobody
	// waits on un-synced (default 50ms).
	Interval time.Duration
	// SegmentBytes rotates the log once a segment reaches this size
	// (default 4 MiB).
	SegmentBytes int64
	// DedupWindow bounds each shard's dedup map during replay; the
	// same value the server passes to StepOp for live ops (default 1024,
	// <=0 means unbounded).
	DedupWindow int
	// Logf, when set, receives recovery notices (torn-tail drops,
	// snapshot fallbacks).
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Recovery is what Open reconstructed from the data directory.
type Recovery struct {
	// Shards maps shard index to its recovered state. Empty on a
	// fresh directory.
	Shards map[uint32]ShardState
	// RestartCount is how many times a previous process instance had
	// already opened this directory: 0 on first boot, 1 after one
	// restart. Survives segment pruning (snapshots carry the tally).
	RestartCount uint64
	// RecoveredOps is the total number of mutations reconstructed
	// (snapshot plus replay) — the sum of recovered shard versions.
	RecoveredOps uint64
	// DroppedBytes counts torn-tail bytes truncated from the final
	// segment, up to its last non-zero byte: nonzero means the last
	// (unacknowledged) write was cut short by the crash.
	DroppedBytes int64
}

// indexStride is how many records apart a segment's index entries sit:
// a read seeks to the nearest entry at or below its first LSN and
// decodes at most indexStride-1 frames it does not return.
const indexStride = 64

// readChunk bounds one disk read of ReadRecords. It is no smaller than
// the largest frame, so one extension completes any straddling frame.
const readChunk = recHeaderLen + maxBody

type segment struct {
	start uint64 // LSN of the segment's first record
	path  string
	size  int64 // bytes of whole frames in the file
	// index[i] is the byte offset of record start+i*indexStride. It is
	// filled where the offset is already known (appendLocked for the
	// active segment, replaySegment's scan for segments found at Open),
	// only ever appended to, and dropped with its segment at prune.
	index []int64
}

// Log is an open write-ahead log. Appends are assigned consecutive
// LSNs starting at 1; WaitDurable blocks until the configured sync
// policy has covered a given LSN.
type Log struct {
	opts Options
	dirF *os.File
	sync func(*os.File) error // (*os.File).Sync; in-package tests gate it

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when a commit lands or fails, or the log closes
	endCond *sync.Cond // broadcast when written advances (WaitEnd long-polls)
	f       *os.File   // active segment
	segs    []segment  // all live segments, ascending; last is active
	end     uint64     // last assigned LSN
	written uint64     // last LSN whose frame is in the file; readers see up to here
	pending []byte     // frames of LSNs (written, end], for the active segment's next write
	durable uint64     // last LSN covered by an fsync
	markers uint64     // restart markers ever appended (incl. pruned)
	syncs   uint64     // fsyncs landed
	syncing bool       // a commit's fsync is in flight, outside mu
	closed  bool
	fail    error // sticky: set by the first failed append/fsync, fatal

	// active holds the active segment's written whole frames, the bytes
	// its file holds below them: ReadRecords decodes the active segment
	// from here, without opening the file. It is only ever appended to,
	// and growth and rotation give it a new array, so bytes below a
	// length a reader captured are never written again.
	active []byte

	syncNanos atomic.Uint64 // time spent inside fsync
	readBytes atomic.Uint64 // bytes ReadRecords has read off disk

	// pins maps a pin handle to the LSN its holder has consumed up to:
	// segments holding records above any pin survive pruning, so a
	// lagging log reader (a replication follower mid-catch-up) cannot
	// have its tail pruned out from under it.
	pins    map[int]uint64
	nextPin int

	snapMu sync.Mutex // serializes WriteSnapshot

	tickerStop chan struct{}
	tickerDone chan struct{}
}

// Open recovers the directory's state and returns a log ready for
// appends. A restart marker is appended (and synced) immediately so
// the next recovery can count this incarnation.
func Open(opts Options) (*Log, Recovery, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, Recovery{}, fmt.Errorf("durable: empty data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	dirF, err := os.Open(opts.Dir)
	if err != nil {
		return nil, Recovery{}, err
	}

	l := &Log{opts: opts, dirF: dirF, pins: make(map[int]uint64), sync: (*os.File).Sync}
	l.cond = sync.NewCond(&l.mu)
	l.endCond = sync.NewCond(&l.mu)

	rec, err := l.recover()
	if err != nil {
		dirF.Close()
		return nil, Recovery{}, err
	}

	// This incarnation's restart marker: force-synced regardless of
	// policy, so the count survives even under SyncNever.
	l.mu.Lock()
	if err := l.appendLocked(encodeRestart()); err != nil {
		l.mu.Unlock()
		l.closeFiles()
		return nil, Recovery{}, err
	}
	l.markers++
	if err := l.syncLocked(); err != nil {
		l.mu.Unlock()
		l.closeFiles()
		return nil, Recovery{}, err
	}
	l.mu.Unlock()

	if opts.Policy == SyncInterval {
		l.tickerStop = make(chan struct{})
		l.tickerDone = make(chan struct{})
		go l.syncer()
	}
	return l, rec, nil
}

// recover loads the newest readable snapshot and replays the log tail.
// Called before any appends; the lock is not needed yet.
func (l *Log) recover() (Recovery, error) {
	rec := Recovery{Shards: make(map[uint32]ShardState)}
	snapCover, err := l.loadNewestSnapshot(&rec)
	if err != nil {
		return Recovery{}, err
	}

	names, err := filepath.Glob(filepath.Join(l.opts.Dir, "wal-*.seg"))
	if err != nil {
		return Recovery{}, err
	}
	sort.Strings(names)
	segs := make([]segment, 0, len(names))
	for _, p := range names {
		var start uint64
		base := filepath.Base(p)
		if _, err := fmt.Sscanf(base, "wal-%016d.seg", &start); err != nil || start == 0 {
			return Recovery{}, fmt.Errorf("durable: bad segment name %q", base)
		}
		segs = append(segs, segment{start: start, path: p})
	}

	next := uint64(1)
	if len(segs) > 0 {
		next = segs[0].start
	}
	for i := range segs {
		sg := &segs[i]
		if sg.start != next {
			return Recovery{}, fmt.Errorf("durable: segment %s: want first LSN %d, got %d (gap in log)",
				filepath.Base(sg.path), next, sg.start)
		}
		n, err := l.replaySegment(sg, i == len(segs)-1, snapCover, &rec)
		if err != nil {
			return Recovery{}, err
		}
		next = sg.start + n
	}
	l.end = next - 1
	l.written = l.end
	l.durable = l.end // everything on disk at open time counts as durable
	l.markers = rec.RestartCount

	// Resume appending into the last segment, or start segment 1.
	if len(segs) > 0 {
		f, err := l.openActive(segs[len(segs)-1].path, 0)
		if err != nil {
			return Recovery{}, err
		}
		l.f, l.segs = f, segs
	} else {
		if err := l.openSegmentLocked(1); err != nil {
			return Recovery{}, err
		}
	}

	for _, s := range rec.Shards {
		rec.RecoveredOps += s.Ver
	}
	return rec, nil
}

// replaySegment applies one segment's records to rec, returning how
// many records it held and filling sg's size and index from the scan;
// the final segment's whole frames become the log's in-memory copy.
// Zeros from a frame boundary to the end are unwritten preallocated
// space (no frame has length 0): the data ends there. Torn or corrupt
// data in the final segment is truncated away (a crash mid-write); the
// same damage in an earlier segment is a hard error,
// because records after it were acknowledged. A CRC-valid frame of a
// layout this build does not write (ErrFormat) is a hard error in every
// segment: no crash produces one, and cutting the log there would
// silently drop another build's acknowledged history.
func (l *Log) replaySegment(sg *segment, last bool, snapCover uint64, rec *Recovery) (uint64, error) {
	data, err := os.ReadFile(sg.path)
	if err != nil {
		return 0, err
	}
	var n uint64
	off := 0
	for off < len(data) {
		body, sz, err := decodeFrame(data[off:], maxBody)
		if err != nil && len(bytes.TrimRight(data[off:], "\x00")) == 0 {
			break
		}
		if err != nil {
			if !last {
				return 0, fmt.Errorf("durable: %s at offset %d: %w (not the final segment)",
					filepath.Base(sg.path), off, err)
			}
			return n, l.truncateTail(sg, data, off, err, rec)
		}
		r, isRestart, err := parseBody(body)
		if err != nil {
			if errors.Is(err, ErrFormat) {
				return 0, fmt.Errorf("durable: %s at offset %d: %w", filepath.Base(sg.path), off, err)
			}
			if !last {
				return 0, fmt.Errorf("durable: %s at offset %d: %w (not the final segment)",
					filepath.Base(sg.path), off, err)
			}
			return n, l.truncateTail(sg, data, off, err, rec)
		}
		lsn := sg.start + n
		if isRestart {
			if lsn > snapCover {
				rec.RestartCount++
			}
		} else {
			if err := replayOp(r, lsn, l.opts.DedupWindow, rec); err != nil {
				return 0, err
			}
		}
		if n%indexStride == 0 {
			sg.index = append(sg.index, int64(off))
		}
		off += sz
		n++
	}
	sg.size = int64(off)
	if last {
		l.active = data[:off]
	}
	return n, nil
}

// replayOp folds one op record into the recovering table; Fold is the
// rule. The snapshot image may already include records appended after
// the snapshot's cover LSN (the image is read after the cover is
// captured), so coverage is judged per shard by (epoch, version), not by
// LSN: a Covered record is inside the image and a Fenced one is the tail
// of a fork the install's snapshot superseded, and both are skipped in
// silence. An Adopted record is how replay crosses an epoch boundary
// exactly as the live path did — a follower appends a promoted
// primary's first post-bump record before any local snapshot at the new
// epoch exists. Everything else is corruption and refuses the directory.
func replayOp(r Record, lsn uint64, window int, rec *Recovery) error {
	if len(r.Atomic) > 0 {
		// An atomic group replays sub by sub: each sub carries its own
		// shard's (epoch, version) coordinates, so a snapshot that
		// already covers some subs skips exactly those.
		for _, sub := range r.Atomic {
			if err := replayOp(sub, lsn, window, rec); err != nil {
				return err
			}
		}
		return nil
	}
	s := rec.Shards[r.Shard]
	switch Fold(&s, window, r) {
	case Applied, Adopted:
		rec.Shards[r.Shard] = s
	case Rewrite:
		return fmt.Errorf("durable: shard %d: record LSN %d at epoch %d rewrites version %d inside epoch-%d state (missing epoch-fencing snapshot)",
			r.Shard, lsn, r.Epoch, r.Ver, s.Epoch)
	case Gap:
		return fmt.Errorf("durable: shard %d: record LSN %d has version %d, want %d (gap in shard history)",
			r.Shard, lsn, r.Ver, s.Ver+1)
	case Diverged:
		return fmt.Errorf("durable: shard %d: replay of LSN %d diverged from its record (val=%d ok=%v ver=%d)",
			r.Shard, lsn, r.Val, r.OK, r.Ver)
	}
	return nil
}

// truncateTail cuts a torn or corrupt tail off the final segment,
// keeping every record before it.
func (l *Log) truncateTail(sg *segment, data []byte, off int, cause error, rec *Recovery) error {
	dropped := int64(len(bytes.TrimRight(data[off:], "\x00")))
	l.opts.Logf("durable: dropping %d torn byte(s) at end of %s: %v", dropped, filepath.Base(sg.path), cause)
	if err := os.Truncate(sg.path, int64(off)); err != nil {
		return fmt.Errorf("durable: truncating torn tail of %s: %w", filepath.Base(sg.path), err)
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	rec.DroppedBytes += dropped
	sg.size = int64(off)
	l.active = data[:off]
	return nil
}

// Append buffers one op record and returns its LSN; it does no I/O,
// except to rotate a full segment. Pair with WaitDurable before
// acknowledging: that is where the record is written (and becomes
// readable) and where the durability point lives (SyncAlways and
// SyncInterval fsync there, group-committing whatever has been appended).
//
// A failed append or fsync poisons the log permanently: the record's
// version number is consumed by the caller's sequencer even though no
// record covers it, so letting later appends through would write a
// transcript with a hole in it — acknowledged as durable now,
// unrecoverable ("gap in shard history") at the next boot. Once
// poisoned, every Append and WaitDurable returns the original failure;
// the layer refuses to vouch for anything rather than lie.
func (l *Log) Append(r Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// This append rotates a full segment, and rotation syncs and closes
	// the file an in-flight commit is syncing: wait that commit out.
	for l.syncing && l.segs[len(l.segs)-1].size >= l.opts.SegmentBytes {
		l.cond.Wait()
	}
	if l.closed {
		return 0, fmt.Errorf("durable: log is closed")
	}
	if l.fail != nil {
		return 0, l.fail
	}
	if err := l.appendLocked(encodeOp(r)); err != nil {
		l.poisonLocked(err)
		return 0, l.fail
	}
	return l.end, nil
}

// poisonLocked records the first fatal durability failure and wakes
// every waiter so none blocks on a durable watermark that will never
// advance. Caller holds l.mu.
func (l *Log) poisonLocked(err error) {
	if l.fail == nil {
		l.fail = fmt.Errorf("durable: log poisoned by failed write: %w", err)
		l.opts.Logf("%v", l.fail)
		l.cond.Broadcast()
		l.endCond.Broadcast()
	}
}

// appendLocked buffers one framed record (the segment's size and index
// count it at once), rotating first if the active segment is full.
func (l *Log) appendLocked(frame []byte) error {
	if l.segs[len(l.segs)-1].size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	sg := &l.segs[len(l.segs)-1]
	if (l.end+1-sg.start)%indexStride == 0 {
		sg.index = append(sg.index, sg.size)
	}
	sg.size += int64(len(frame))
	l.pending = append(l.pending, frame...)
	l.end++
	return nil
}

// writeLocked pwrites the buffer after the active segment's whole frames,
// keeps a copy in memory and wakes the log's readers. A failed write
// poisons the log; the file may hold part of the buffer, so nothing is
// written after it, and the copy never holds it.
func (l *Log) writeLocked() error {
	if len(l.pending) == 0 || l.fail != nil {
		return l.fail
	}
	at := l.segs[len(l.segs)-1].size - int64(len(l.pending))
	if _, err := l.f.WriteAt(l.pending, at); err != nil {
		l.poisonLocked(err)
		return l.fail
	}
	l.keepLocked(l.pending)
	l.pending = l.pending[:0]
	l.written = l.end
	l.endCond.Broadcast()
	return nil
}

// keepLocked appends written frames to the active segment's in-memory
// copy. They land past every length a reader has captured; growth
// doubles into a new array, up to the most one segment holds:
// SegmentBytes plus one frame.
func (l *Log) keepLocked(frames []byte) {
	if n := len(l.active) + len(frames); n > cap(l.active) {
		grown := make([]byte, len(l.active), max(n, min(2*cap(l.active), int(l.opts.SegmentBytes)+readChunk)))
		copy(grown, l.active)
		l.active = grown
	}
	l.active = append(l.active, frames...)
}

// rotateLocked trims, syncs and retires the active segment, then opens
// the next one. Syncing before rotation keeps the durable watermark's
// invariant simple: only the active segment can have undurable bytes.
// No commit is in flight (Append waited), so nobody else holds l.f.
func (l *Log) rotateLocked() error {
	if err := l.trimLocked(); err != nil {
		return err
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegmentLocked(l.end + 1)
}

// openSegmentLocked creates the segment whose first record will be
// LSN start and makes it active, its in-memory copy a new empty slice.
func (l *Log) openSegmentLocked(start uint64) error {
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("wal-%016d.seg", start))
	f, err := l.openActive(path, os.O_CREATE|os.O_EXCL)
	if err != nil {
		return err
	}
	if err := l.syncDir(); err != nil {
		f.Close()
		return err
	}
	l.f, l.active = f, nil
	l.segs = append(l.segs, segment{start: start, path: path})
	return nil
}

// openActive opens a segment for writing, preallocated to SegmentBytes:
// a commit's fsync then flushes data only, no new size or blocks. Where
// the platform or filesystem cannot, the file grows by writes.
func (l *Log) openActive(path string, flag int) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|flag, 0o644)
	if err == nil {
		if err = fallocate(f, l.opts.SegmentBytes); errors.Is(err, errors.ErrUnsupported) {
			err = nil
		} else if err != nil {
			f.Close()
		}
	}
	return f, err
}

// trimLocked writes the buffer and cuts the active segment to its whole
// frames: byte for byte what a log that never preallocated leaves.
func (l *Log) trimLocked() error {
	if err := l.writeLocked(); err != nil {
		return err
	}
	return l.f.Truncate(l.segs[len(l.segs)-1].size)
}

// fsync syncs f through the test seam and accounts the time it took.
func (l *Log) fsync(f *os.File) error {
	t0 := time.Now()
	err := l.sync(f)
	l.syncNanos.Add(uint64(time.Since(t0)))
	return err
}

// syncLocked writes and fsyncs the active segment with l.mu held, up to
// everything appended so far. It is for the callers that must exclude
// appends — Open, rotateLocked and Close — each with no commit in
// flight; everything else commits through commitLocked.
func (l *Log) syncLocked() error {
	if err := l.writeLocked(); err != nil {
		return err
	}
	if err := l.fsync(l.f); err != nil {
		return err
	}
	l.syncs++
	l.durable = l.end
	return nil
}

// commitLocked is the group-commit engine. The caller holds l.mu, has
// found durable < end and no commit in flight, and becomes the leader:
// it writes the buffer, captures the end and the active file, RELEASES
// the mutex for the fsync — appends and log reads proceed, waiters park
// on cond — and advances durable to the captured end, never to l.end: a
// record appended mid-sync is covered by the next commit, which a parked
// waiter starts the moment this one lands. A failed write or fsync
// poisons the log: the leader, every parked waiter and every record
// appended meanwhile get the failure, and nothing is acked.
func (l *Log) commitLocked() {
	if l.writeLocked() != nil {
		return // poisoned; the poison woke every waiter
	}
	target, f := l.end, l.f
	l.syncing = true
	l.mu.Unlock()
	err := l.fsync(f)
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		l.poisonLocked(err)
	} else {
		l.syncs++
		l.durable = target
	}
	l.cond.Broadcast()
}

// syncer is the SyncInterval ticker: it commits what nobody waits on.
func (l *Log) syncer() {
	defer close(l.tickerDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.tickerStop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.durable < l.end && !l.syncing && !l.closed && l.fail == nil {
				l.commitLocked()
			}
			l.mu.Unlock()
		}
	}
}

// WaitDurable blocks until an fsync covers lsn: the first waiter in
// leads a commit on the spot (commitLocked), the rest park behind it.
// A waiter whose record is still buffered writes the buffer before it
// leads or parks, so a burst reaches the log's readers at once; under
// SyncNever that write is the durability point.
//
// A poisoned log fails every wait, even for an LSN that reached disk
// before the failure: after a poison, a caller may be asking about the
// wrong record entirely (the one whose append failed never got an LSN
// at all), so the only honest answer is the failure.
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.fail != nil {
			return l.fail
		}
		if l.durable >= lsn || l.opts.Policy == SyncNever && l.written >= lsn {
			return nil
		}
		if l.closed {
			return fmt.Errorf("durable: log closed before LSN %d became durable", lsn)
		}
		if l.written < lsn && len(l.pending) > 0 {
			l.writeLocked() // a failure poisons, and the loop answers it
			continue
		}
		if l.syncing {
			l.cond.Wait()
		} else {
			l.commitLocked()
		}
	}
}

// End returns the last assigned LSN.
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Syncs reports how many fsyncs have landed: with group commit, one per
// batch of concurrent waiters rather than one per append.
func (l *Log) Syncs() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// SyncNanos reports the total time spent inside fsync, so the mean
// fsync is SyncNanos/Syncs.
func (l *Log) SyncNanos() uint64 { return l.syncNanos.Load() }

// Close writes and trims the active segment, syncs it unless SyncNever,
// wakes all waiters and closes the files. Later appends and waits fail.
func (l *Log) Close() error {
	l.mu.Lock()
	// The final sync and closeFiles must not run under a commit's feet.
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if l.fail == nil {
		if err = l.trimLocked(); err == nil && l.opts.Policy != SyncNever {
			err = l.syncLocked()
		}
	}
	l.closed = true
	l.cond.Broadcast()
	l.endCond.Broadcast()
	l.mu.Unlock()

	if l.tickerStop != nil {
		close(l.tickerStop)
		<-l.tickerDone
	}
	if cerr := l.closeFiles(); err == nil {
		err = cerr
	}
	return err
}

func (l *Log) closeFiles() error {
	var err error
	if l.f != nil {
		err = l.f.Close()
	}
	if cerr := l.dirF.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs the data directory so created/renamed/removed file
// entries are durable.
func (l *Log) syncDir() error {
	return l.dirF.Sync()
}

// ErrPruned reports a ReadRecords position that predates the oldest
// live segment: the records there were pruned behind a snapshot, so a
// reader wanting them must take a state image instead of a log tail.
var ErrPruned = errors.New("durable: requested records have been pruned")

// Pin registers a retention pin at lsn and returns its handle: no
// segment holding records above lsn is pruned while the pin lives, so a
// reader consuming the log incrementally (a replication follower) can
// always continue from where it stopped. Advance it with UpdatePin as
// the reader progresses; Unpin releases the retention.
func (l *Log) Pin(lsn uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextPin++
	l.pins[l.nextPin] = lsn
	return l.nextPin
}

// UpdatePin moves pin id forward to lsn (a pin never retreats: moving
// it backward is a no-op, so a reordered ack cannot resurrect released
// retention).
func (l *Log) UpdatePin(id int, lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur, ok := l.pins[id]; ok && lsn > cur {
		l.pins[id] = lsn
	}
}

// Unpin releases pin id. Unknown handles are no-ops (Unpin is a
// teardown path; it must be safe to call twice).
func (l *Log) Unpin(id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.pins, id)
}

// minPinLocked returns the lowest live pin and whether any pin exists.
// Caller holds l.mu.
func (l *Log) minPinLocked() (uint64, bool) {
	var min uint64
	found := false
	for _, lsn := range l.pins {
		if !found || lsn < min {
			min, found = lsn, true
		}
	}
	return min, found
}

// WaitEnd blocks until the written end reaches at least min, the
// timeout lapses, or the log closes/poisons, returning the written end.
// It is the long-poll primitive replication pulls park on: a caught-up
// follower's pull waits here, and wakes once per write, not per record.
// A log already past min returns at once, arming no timer.
func (l *Log) WaitEnd(min uint64, timeout time.Duration) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	waiting := func() bool { return l.written < min && !l.closed && l.fail == nil }
	if !waiting() {
		return l.written
	}
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		l.mu.Lock()
		l.endCond.Broadcast()
		l.mu.Unlock()
	})
	defer timer.Stop()
	for waiting() && time.Now().Before(deadline) {
		l.endCond.Wait()
	}
	return l.written
}

// ReadRecords reads up to maxRecords op records with LSNs strictly
// above from, returning them in LSN order together with the last LSN
// consumed (restart markers are skipped but counted into end, so a
// caller resuming at end never re-reads them). A from below the oldest
// live segment returns ErrPruned — the tail was pruned behind a
// snapshot and the reader needs a state image instead. Safe against
// concurrent appends: the written end, the segment list, every segment's
// written length and the active segment's in-memory copy are captured
// together at entry, nothing past them is read, and writes never mutate
// written bytes.
//
// The read costs O(batch), not O(segment): it seeks through the
// segment's sparse index to the nearest indexed record at or below
// from+1 and decodes forward from there. The active segment decodes from
// its in-memory copy, with no open or read; a sealed one is read off disk
// in bounded chunks. Every frame decoded is CRC-checked, stepped over or
// returned, and the returned ones parsed; bytes before the seek point
// were verified when written or recovered.
func (l *Log) ReadRecords(from uint64, maxRecords int) ([]Record, uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, from, fmt.Errorf("durable: log is closed")
	}
	end := l.written
	segs := make([]segment, len(l.segs))
	copy(segs, l.segs)
	segs[len(segs)-1].size -= int64(len(l.pending))
	active := l.active
	l.mu.Unlock()

	if from >= end {
		return nil, from, nil
	}
	if segs[0].start > from+1 { // there is always an active segment
		return nil, from, fmt.Errorf("%w: want LSN %d, oldest live segment starts at %d", ErrPruned, from+1, segs[0].start)
	}

	var out []Record
	pos := from
	// Start in the segment holding from+1: the last one starting at or
	// below it.
	first := sort.Search(len(segs), func(i int) bool { return segs[i].start > from+1 }) - 1
	for i := first; i < len(segs) && pos < end; i++ {
		// A sealed segment ends where its successor starts; the active
		// one at the captured end.
		stop, mem := end, active
		if i+1 < len(segs) {
			stop, mem = segs[i+1].start-1, nil
		}
		var err error
		if out, pos, err = l.readSegment(segs[i], mem, pos, stop, maxRecords, out); err != nil {
			return nil, from, err
		}
		if len(out) >= maxRecords {
			break
		}
	}
	return out, pos, nil
}

// readSegment appends sg's op records with LSNs in (pos, stop] to out,
// stopping early once out holds maxRecords, and returns the grown batch
// with the last LSN consumed. sg is a copy captured under l.mu, so its
// size and index describe whole frames only. mem, when not nil, is the
// segment's whole frames (the active segment's in-memory copy, as long
// as sg.size): they are decoded in place and the file is not opened.
func (l *Log) readSegment(sg segment, mem []byte, pos, stop uint64, maxRecords int, out []Record) ([]Record, uint64, error) {
	entry := (pos + 1 - sg.start) / indexStride
	off := sg.index[entry]                   // file offset of buf[0]
	last := sg.start + entry*indexStride - 1 // LSN of the last frame decoded
	var buf []byte                           // bytes read and not yet decoded
	var f *os.File                           // nil when decoding mem
	if mem != nil {
		buf = mem[off:]
	} else {
		var err error
		if f, err = os.Open(sg.path); err != nil {
			if os.IsNotExist(err) {
				// The segment list was captured under the mutex, but a
				// concurrent snapshot prune unlinked the file before the
				// open: same answer as arriving after the prune — the
				// reader needs a state image, not a broken stream.
				return nil, pos, fmt.Errorf("%w: segment %s pruned mid-read", ErrPruned, filepath.Base(sg.path))
			}
			return nil, pos, err
		}
		defer f.Close()
	}
	for last < stop {
		body, sz, err := decodeFrame(buf, maxBody)
		if errors.Is(err, errTorn) {
			// The frame straddles the end of what has been read: read
			// the next chunk behind it. Nothing left to read (mem holds
			// it all) means the segment holds fewer records than the log
			// accounts for.
			next := off + int64(len(buf)) // first byte not read yet
			n := min(readChunk, sg.size-next)
			if n <= 0 || f == nil {
				return nil, pos, fmt.Errorf("durable: reading %s at offset %d: %w: segment ends at LSN %d, want %d",
					filepath.Base(sg.path), off, errCorrupt, last, stop)
			}
			grown := make([]byte, len(buf)+int(n))
			copy(grown, buf)
			if _, err := f.ReadAt(grown[len(buf):], next); err != nil {
				return nil, pos, fmt.Errorf("durable: reading %s at offset %d: %w", filepath.Base(sg.path), next, err)
			}
			l.readBytes.Add(uint64(n))
			buf = grown
			continue
		}
		if err != nil {
			return nil, pos, fmt.Errorf("durable: reading %s at offset %d: %w", filepath.Base(sg.path), off, err)
		}
		last++
		off += int64(sz)
		buf = buf[sz:]
		if last <= pos {
			continue // between the index entry and the first LSN wanted
		}
		rec, isRestart, err := parseBody(body)
		if err != nil {
			return nil, pos, fmt.Errorf("durable: reading %s at offset %d: %w", filepath.Base(sg.path), off-int64(sz), err)
		}
		pos = last
		if !isRestart {
			out = append(out, rec)
			if len(out) >= maxRecords {
				break
			}
		}
	}
	return out, pos, nil
}

// ReadBytes reports how many bytes ReadRecords has read off disk.
func (l *Log) ReadBytes() uint64 { return l.readBytes.Load() }
