// Package wire is the kexserved network protocol: a small length-prefixed
// binary codec with an explicit error model, shared by internal/server and
// internal/server/client so neither imports the other.
//
// Every message travels in a frame — a 4-byte big-endian payload length
// followed by the payload — and payloads use fixed-order big-endian fields
// so encodings are deterministic. Three payload shapes exist:
//
//   - Hello: the server's first frame on an accepted connection. Either it
//     grants admission (StatusOK plus the leased process identity and the
//     server's (N, k, shards) shape) or it rejects with backpressure
//     (StatusBusy) and closes.
//   - Request: client → server. An operation against one shard of the
//     object table, or a control operation (ping, stats), in one of the
//     three marker-led request frames (see frame.go). get, add and set
//     spell reg.get, reg.add and reg.set on a shard's unnamed register.
//   - Response: server → client. Status, a value, and an optional opaque
//     Data payload (stats JSON, error detail).
//
// The error model is the Status byte: non-OK responses surface on the
// client as *wire.Error carrying the status and the human-readable detail
// from Data, so callers can branch on class (busy, draining, bad shard...)
// without string matching.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"kexclusion/internal/obs"
)

// ErrFrameTooLarge marks a peer announcing a frame beyond MaxFrame.
// Wrapped (never returned bare) by ReadFrame, so the serving side can
// distinguish an oversized announcement — answerable with a clean typed
// response before hanging up — from garbled framing.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// Magic opens every Hello frame; it doubles as the protocol version
// ("kx06" — bump the digit on incompatible change; 06 made the
// marker-led request frames of frame.go the only request framing). A
// peer built against another version fails at the handshake with
// ParseHello's "old protocol version?" error, so nothing past the Hello
// is ever negotiated.
const Magic uint32 = 0x6b783036

// MaxFrame bounds a frame payload; a peer announcing more is treated as
// corrupt rather than trusted with an allocation.
const MaxFrame = 1 << 20

// Kind identifies a request operation.
type Kind uint8

const (
	// KindPing is a no-op round trip.
	KindPing Kind = 1 + iota
	// KindGet reads a shard's root register (reg.get without a name).
	KindGet
	// KindAdd adds Arg to the root register and returns the new value.
	KindAdd
	// KindSet overwrites the root register with Arg.
	KindSet
	// KindStats returns the server's metrics snapshot as JSON in Data.
	KindStats

	// Object kinds: operations on named, typed objects, addressed by
	// the request's Obj/Key/Arg2 fields.

	// KindCreate creates object Obj of type Arg (object.Type); Arg2 is
	// the slot count for snapshot objects. Idempotent per type.
	KindCreate
	// KindRegGet/KindRegAdd/KindRegSet operate on a named register.
	KindRegGet
	KindRegAdd
	KindRegSet
	// KindMapGet/Put/CAS/Del operate on map Obj at Key. CAS stores Arg
	// if the current value equals Arg2 (missing key compares as 0);
	// a mismatch answers OK-status with FlagFound clear and the
	// observed value.
	KindMapGet
	KindMapPut
	KindMapCAS
	KindMapDel
	// KindQEnq/QDeq/QLen operate on queue Obj. QDeq on an empty queue
	// answers with FlagFound clear.
	KindQEnq
	KindQDeq
	KindQLen
	// KindSnapUpdate writes Arg into slot Arg2 of snapshot Obj;
	// KindSnapScan reads all slots atomically (8 bytes each in Data).
	KindSnapUpdate
	KindSnapScan
)

// IsObject reports whether the kind is a named-object operation.
func (k Kind) IsObject() bool { return k >= KindCreate && k <= KindSnapScan }

// IsRead reports whether the kind is a pure read: no state movement,
// answered on the server's one read path (no slot, no WAL, no quorum).
func (k Kind) IsRead() bool {
	switch k {
	case KindGet, KindRegGet, KindMapGet, KindQLen, KindSnapScan:
		return true
	}
	return false
}

// String names the kind for logs and errors.
func (k Kind) String() string {
	switch k {
	case KindPing:
		return "ping"
	case KindGet:
		return "get"
	case KindAdd:
		return "add"
	case KindSet:
		return "set"
	case KindStats:
		return "stats"
	case KindCreate:
		return "create"
	case KindRegGet:
		return "reg.get"
	case KindRegAdd:
		return "reg.add"
	case KindRegSet:
		return "reg.set"
	case KindMapGet:
		return "map.get"
	case KindMapPut:
		return "map.put"
	case KindMapCAS:
		return "map.cas"
	case KindMapDel:
		return "map.del"
	case KindQEnq:
		return "queue.enq"
	case KindQDeq:
		return "queue.deq"
	case KindQLen:
		return "queue.len"
	case KindSnapUpdate:
		return "snap.update"
	case KindSnapScan:
		return "snap.scan"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Status classifies a response (or a Hello). StatusOK is the zero value.
type Status uint8

const (
	// StatusOK: the operation succeeded.
	StatusOK Status = iota
	// StatusBusy: admission rejected — all N process identities are
	// leased and the parking window (if any) elapsed. Backpressure, not
	// failure: retry later.
	StatusBusy
	// StatusBadRequest: the request was malformed or its kind unknown.
	StatusBadRequest
	// StatusBadShard: the shard index is outside the server's table.
	StatusBadShard
	// StatusDraining: the server is shutting down gracefully and no
	// longer starts operations.
	StatusDraining
	// StatusInternal: the server failed; Data carries detail.
	StatusInternal
	// StatusTimeout: the operation's per-request deadline expired while
	// it was still waiting for a slot and it was withdrawn — the
	// operation was NOT applied and the object is untouched, so even
	// non-idempotent operations are safe to retry on this status.
	StatusTimeout
	// StatusNotPrimary: this node does not own the request's shard in
	// the cluster placement; the operation was NOT applied. Data
	// carries the owning primary's client address (empty when the owner
	// is unknown, e.g. mid-failover) — clients should redial there and
	// retry with the same op ID.
	StatusNotPrimary
	// StatusAtomicAbort: the operation belonged to an atomic group that
	// aborted — some member would have been logically rejected, so no
	// member was applied. Every response in the group carries this
	// status; the failing member's Data explains why. The group is safe
	// to retry with the same op IDs.
	StatusAtomicAbort
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBusy:
		return "busy"
	case StatusBadRequest:
		return "bad_request"
	case StatusBadShard:
		return "bad_shard"
	case StatusDraining:
		return "draining"
	case StatusInternal:
		return "internal"
	case StatusTimeout:
		return "timeout"
	case StatusNotPrimary:
		return "not_primary"
	case StatusAtomicAbort:
		return "atomic_abort"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Error is the client-side form of a non-OK response.
type Error struct {
	Status Status
	Msg    string
	// RetryAfterMillis is the server's backoff hint on StatusBusy (0 = no
	// hint). Carried in Response.Value, lifted here by Response.Err.
	RetryAfterMillis uint32
}

// Error formats the status and detail.
func (e *Error) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("wire: server returned %s", e.Status)
	}
	return fmt.Sprintf("wire: server returned %s: %s", e.Status, e.Msg)
}

// Request is one client operation.
type Request struct {
	// ID is echoed verbatim in the matching Response.
	ID uint64
	// Kind selects the operation.
	Kind Kind
	// Shard addresses the object table (ignored by ping/stats).
	Shard uint32
	// Arg is the operand of add/set.
	Arg int64
	// Session and Seq are the client-assigned op ID for mutations:
	// Session is a client-chosen identity stable across reconnects,
	// Seq a per-session sequence number assigned once per logical
	// operation and reused verbatim on every retry. A server that
	// keeps dedup state answers a retried (Session, Seq) with the
	// original result (FlagDuplicate set) instead of re-applying.
	// Either being zero opts the operation out of deduplication.
	Session uint64
	Seq     uint64
	// Obj names the target object for object kinds; Key addresses a map
	// entry; Arg2 is the second operand (CAS expected value, snapshot
	// slot index, snapshot slot count on create). All three are zero for
	// control and root-register kinds.
	Obj  string
	Key  string
	Arg2 int64
}

// Flags qualifies a successful Response.
type Flags uint8

const (
	// FlagDuplicate: the request's op ID matched an already-applied
	// operation; Value is the originally acknowledged result and the
	// object was not touched again.
	FlagDuplicate Flags = 1 << iota
	// FlagFound: the operation's logical verdict. Set on a map.get whose
	// key exists, a successful CAS, a delete that removed a key, a
	// dequeue that yielded an element, and every unconditional success.
	// Clear means the op completed but observed "miss" (Value then
	// carries the observed/zero value). Only meaningful on object-kind
	// responses; control and root-register responses never set it.
	FlagFound
)

// Response answers one Request.
type Response struct {
	// ID echoes the request.
	ID uint64
	// Status classifies the outcome.
	Status Status
	// Flags qualifies an OK outcome (see FlagDuplicate).
	Flags Flags
	// Value is the operation result (new/current shard value).
	Value int64
	// Data is an optional opaque payload: error detail on non-OK
	// statuses, the stats JSON for KindStats.
	Data []byte
}

// Err converts a non-OK response into an *Error (nil when OK). On
// StatusBusy and StatusNotPrimary the response's Value field carries
// the server's Retry-After hint in milliseconds (the response analogue
// of Hello.RetryAfterMillis — Value is otherwise unused on errors, so
// the frame layout is unchanged); Err lifts it into the Error. A
// hintless NotPrimary carries the primary's address in Msg; a hinted
// one means the refusing node knows no better primary (its own lease
// expired), so the client should back off rather than rotate.
func (r Response) Err() error {
	if r.Status == StatusOK {
		return nil
	}
	e := &Error{Status: r.Status, Msg: string(r.Data)}
	if (r.Status == StatusBusy || r.Status == StatusNotPrimary) && r.Value > 0 {
		e.RetryAfterMillis = uint32(r.Value)
	}
	return e
}

// Hello is the server's first frame on a connection.
type Hello struct {
	// Status is StatusOK on admission, StatusBusy on rejection.
	Status Status
	// Identity is the leased process identity p in [0, N) (admission only).
	Identity uint32
	// N, K, Shards describe the server's shape.
	N, K, Shards uint32
	// RetryAfterMillis is the server's backoff hint on StatusBusy: how
	// long, in milliseconds, the client should wait before redialing
	// (0 = no hint, retry at the client's own pace). Servers derive it
	// from the configured admission parking window so rejected clients
	// come back when an identity is plausibly free.
	RetryAfterMillis uint32
	// Msg carries rejection detail on non-OK hellos.
	Msg string
}

// Stats is the schema of the KindStats payload and the kexserved -json
// dump: the server shape, session-manager counters, recovery tallies,
// and one metrics snapshot per shard (each shard's k-exclusion,
// renaming and universal construction share that shard's sink). Fields
// are declared in alphabetical order of their JSON keys, so the
// marshalled schema is deterministic and sorted — pinned by a golden
// test.
type Stats struct {
	// ActiveSessions counts currently leased identities; Admitted,
	// Rejected and Reclaimed are lifetime totals, where Reclaimed counts
	// identities returned by the session teardown path (every session
	// end, including disconnect-as-crash reclaims).
	ActiveSessions int64 `json:"active_sessions"`
	// AdmitQueue is the instantaneous admission queue depth: connections
	// parked waiting for an identity (the shed watermarks' input).
	AdmitQueue int64 `json:"admit_queue"`
	Admitted   int64 `json:"admitted"`
	// AppliedDupes counts mutations answered from the dedup window — a
	// retried op whose first application was already acknowledged (or
	// was in flight); the object was not touched again.
	AppliedDupes int64 `json:"applied_dupes"`
	// ApplyRuns counts runs, each applied as one operation; ApplyRunOps their mutations.
	ApplyRunOps int64 `json:"apply_run_ops"`
	ApplyRuns   int64 `json:"apply_runs"`
	// BatchAtomic counts atomic groups committed all-or-nothing (one WAL
	// record each; aborted groups are not counted).
	BatchAtomic int64 `json:"batch_atomic"`
	// Draining reports whether graceful shutdown has begun.
	Draining bool `json:"draining"`
	// IdleReclaims counts sessions torn down by the idle watchdog (a
	// silent connection exceeded the idle timeout).
	IdleReclaims int64  `json:"idle_reclaims"`
	Impl         string `json:"impl"`
	// InflightOps is the instantaneous count of object operations
	// executing (the shed ceiling's input).
	InflightOps int64 `json:"inflight_ops"`
	K           int   `json:"k"`
	// LastPromotion is the latest shard takeover's catch-up + epoch bump.
	LastPromotion time.Duration `json:"last_promotion_ns"`
	// LeaseDemotions counts shards this node self-demoted because its
	// leader lease expired; LeaseExpirations counts held->expired lease
	// transitions; LeaseHeld reports whether a quorum of peers
	// currently witnesses this node's lease (true off-cluster and at
	// quorum 1, where the lease is vacuous); LeaseMargin is how long until
	// the quorum-th youngest witness ages out (zero when not held or vacuous).
	LeaseDemotions   int64         `json:"lease_demotions"`
	LeaseExpirations int64         `json:"lease_expirations"`
	LeaseHeld        bool          `json:"lease_held"`
	LeaseMargin      time.Duration `json:"lease_margin_ns"`
	N                int           `json:"n"`
	// NotPrimaryRedirects counts operations refused with
	// StatusNotPrimary because the addressed shard is owned by another
	// node in the cluster placement (never applied; zero off-cluster).
	NotPrimaryRedirects int64 `json:"notprimary_redirects"`
	// ObjMapOps, ObjQueueOps, ObjRegisterOps and ObjSnapshotOps count
	// completed object operations by object class (reads and
	// mutations both; creates count toward the class being created).
	ObjMapOps      int64 `json:"obj_map_ops"`
	ObjQueueOps    int64 `json:"obj_queue_ops"`
	ObjRegisterOps int64 `json:"obj_register_ops"`
	ObjSnapshotOps int64 `json:"obj_snapshot_ops"`
	// OpDeadlines counts operations withdrawn because their per-op
	// deadline expired while waiting for a slot (StatusTimeout).
	OpDeadlines int64 `json:"op_deadlines"`
	// PeerContactAge is the time since each cluster peer last reached this
	// node, or since its start for one not heard from (nil off-cluster).
	PeerContactAge map[string]time.Duration `json:"peer_contact_age_ns"`
	// PerShard holds one acquisition-metrics snapshot per shard.
	PerShard []obs.Snapshot `json:"per_shard"`
	// Phase is the server's lifecycle phase (starting, recovering,
	// running, degraded, draining, stopped).
	Phase string `json:"phase"`
	// QuorumAcks counts mutations acknowledged after the replication
	// quorum confirmed durability (zero off-cluster or at quorum 1).
	QuorumAcks int64 `json:"quorum_acks"`
	// ReadFastpath counts pure reads served from committed shard state
	// without touching the WAL or the replication quorum.
	ReadFastpath int64 `json:"read_fastpath"`
	Reclaimed    int64 `json:"reclaimed"`
	// RecoveredOps is the number of mutations reconstructed from the
	// data directory at startup (snapshot plus WAL replay); zero when
	// the server runs without durability or booted fresh.
	RecoveredOps int64 `json:"recovered_ops"`
	Rejected     int64 `json:"rejected"`
	// ReplPullsServed counts replication pulls this node answered from
	// its WAL (zero off-cluster); with WALReadBytes it gives the disk
	// bytes a pull costs, 0 for a caught-up follower.
	ReplPullsServed int64 `json:"repl_pulls_served"`
	// ReplRecordsServed counts the records those pulls shipped.
	ReplRecordsServed int64 `json:"repl_records_served"`
	// ReplicaLagLSN is the instantaneous worst-case replication lag:
	// this node's log end minus the lowest follower-acknowledged LSN
	// (zero off-cluster, when fully caught up, or with no followers).
	ReplicaLagLSN int64 `json:"replica_lag_lsn"`
	// RestartCount is how many prior incarnations opened this data
	// directory: 0 on first boot, 1 after one crash or restart.
	RestartCount int64 `json:"restart_count"`
	Shards       int   `json:"shards"`
	// ShedAdmissions counts connections refused by the load-shedding
	// watermark policy (before parking); ShedOps counts operations
	// refused by the in-flight ceiling (never applied).
	ShedAdmissions int64 `json:"shed_admissions"`
	ShedOps        int64 `json:"shed_ops"`
	// WALFsyncs counts fsyncs the WAL has issued (group commit makes it
	// far smaller than the mutation count) and WALFsyncNanos the time
	// spent inside them, so their ratio is the mean fsync; WALReadBytes
	// counts bytes log readers — replication pulls — have read off disk,
	// which only sealed segments cost. All are zero without a data
	// directory.
	WALFsyncNanos int64 `json:"wal_fsync_ns"`
	WALFsyncs     int64 `json:"wal_fsyncs"`
	WALReadBytes  int64 `json:"wal_read_bytes"`
}

// JSON marshals the stats deterministically.
func (s Stats) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Stats contains only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("wire: stats encoding failed: %v", err))
	}
	return b
}

// ParseStats decodes a KindStats Data payload.
func ParseStats(b []byte) (Stats, error) {
	var s Stats
	if err := json.Unmarshal(b, &s); err != nil {
		return Stats{}, fmt.Errorf("wire: bad stats payload: %w", err)
	}
	return s, nil
}

// WriteFrame writes one length-prefixed frame under the client-dialect
// limit.
func WriteFrame(w io.Writer, payload []byte) error {
	return WriteFrameLimit(w, payload, MaxFrame)
}

// WriteFrameLimit writes one length-prefixed frame under an explicit
// size limit (the replication dialect carries state images larger than
// MaxFrame).
func WriteFrameLimit(w io.Writer, payload []byte, limit int) error {
	if len(payload) > limit {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(payload), limit)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame under the client-dialect
// limit, rejecting oversized announcements before allocating.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameLimit(r, MaxFrame)
}

// ReadFrameLimit reads one length-prefixed frame under an explicit
// size limit.
func ReadFrameLimit(r io.Reader, limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(limit) {
		return nil, fmt.Errorf("%w: peer announced %d bytes, limit %d", ErrFrameTooLarge, n, limit)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return payload, nil
}

// Encode serializes the response payload.
func (r Response) Encode() []byte {
	return r.appendTo(make([]byte, 0, r.encodedLen()))
}

// encodedLen is the size of the response payload: id + status + flags +
// value + dataLen, then Data.
func (r Response) encodedLen() int { return 8 + 1 + 1 + 8 + 4 + len(r.Data) }

// appendTo appends the response payload to b.
func (r Response) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, r.ID)
	b = append(b, byte(r.Status), byte(r.Flags))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Value))
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Data)))
	return append(b, r.Data...)
}

// ParseResponse decodes a response payload.
func ParseResponse(b []byte) (Response, error) {
	if len(b) < 22 {
		return Response{}, fmt.Errorf("wire: response payload is %d bytes, want >= 22", len(b))
	}
	dlen := binary.BigEndian.Uint32(b[18:])
	if int(dlen) != len(b)-22 {
		return Response{}, fmt.Errorf("wire: response declares %d data bytes, has %d", dlen, len(b)-22)
	}
	r := Response{
		ID:     binary.BigEndian.Uint64(b[0:]),
		Status: Status(b[8]),
		Flags:  Flags(b[9]),
		Value:  int64(binary.BigEndian.Uint64(b[10:])),
	}
	if dlen > 0 {
		r.Data = append([]byte(nil), b[22:]...)
	}
	return r, nil
}

// Encode serializes the hello payload.
func (h Hello) Encode() []byte {
	msg := []byte(h.Msg)
	b := make([]byte, 4+1+4+4+4+4+4+4+len(msg))
	binary.BigEndian.PutUint32(b[0:], Magic)
	b[4] = byte(h.Status)
	binary.BigEndian.PutUint32(b[5:], h.Identity)
	binary.BigEndian.PutUint32(b[9:], h.N)
	binary.BigEndian.PutUint32(b[13:], h.K)
	binary.BigEndian.PutUint32(b[17:], h.Shards)
	binary.BigEndian.PutUint32(b[21:], h.RetryAfterMillis)
	binary.BigEndian.PutUint32(b[25:], uint32(len(msg)))
	copy(b[29:], msg)
	return b
}

// ParseHello decodes a hello payload, checking the protocol magic.
func ParseHello(b []byte) (Hello, error) {
	if len(b) < 29 {
		return Hello{}, fmt.Errorf("wire: hello payload is %d bytes, want >= 29", len(b))
	}
	if m := binary.BigEndian.Uint32(b[0:]); m != Magic {
		return Hello{}, fmt.Errorf("wire: bad protocol magic %#x (want %#x) — not a kexserved endpoint, or an old protocol version?", m, Magic)
	}
	mlen := binary.BigEndian.Uint32(b[25:])
	if int(mlen) != len(b)-29 {
		return Hello{}, fmt.Errorf("wire: hello declares %d message bytes, has %d", mlen, len(b)-29)
	}
	return Hello{
		Status:           Status(b[4]),
		Identity:         binary.BigEndian.Uint32(b[5:]),
		N:                binary.BigEndian.Uint32(b[9:]),
		K:                binary.BigEndian.Uint32(b[13:]),
		Shards:           binary.BigEndian.Uint32(b[17:]),
		RetryAfterMillis: binary.BigEndian.Uint32(b[21:]),
		Msg:              string(b[29:]),
	}, nil
}

// WriteResponse frames and writes one response.
func WriteResponse(w io.Writer, r Response) error { return WriteFrame(w, r.Encode()) }

// ReadResponse reads and decodes one response frame.
func ReadResponse(r io.Reader) (Response, error) {
	b, err := ReadFrame(r)
	if err != nil {
		return Response{}, err
	}
	return ParseResponse(b)
}

// WriteHello frames and writes one hello.
func WriteHello(w io.Writer, h Hello) error { return WriteFrame(w, h.Encode()) }

// ReadHello reads and decodes one hello frame.
func ReadHello(r io.Reader) (Hello, error) {
	b, err := ReadFrame(r)
	if err != nil {
		return Hello{}, err
	}
	return ParseHello(b)
}
