// Replication dialect: the node-to-node frames internal/cluster speaks
// between kexserved peers, kept in this package so cluster and server
// share one codec the way server and client share the client dialect.
//
// The dialect is pull-based. A follower dials the peer's replication
// listener, introduces itself with a ReplHello, and then issues typed
// requests on the same connection:
//
//   - ReplPull: "send me op records above FromLSN" — an AppendEntries
//     batch inverted into a fetch. The request piggybacks AckLSN, the
//     highest peer LSN the follower has locally fsynced, which is the
//     quorum-ack signal AND the retention pin AND (by its cadence) the
//     liveness heartbeat. A caught-up pull long-polls server-side for
//     WaitMillis, so the reply latency of a quiet cluster is one
//     network round after the primary's append, not a poll interval.
//   - ReplState: snapshot catch-up for a follower whose resume point
//     was pruned — the full per-shard state image (durable.EncodeState)
//     at the peer's log end.
//   - ReplFrontier: the per-shard (epoch, version) frontier, queried
//     during promotion so a new primary can prove it is at least as
//     new as every reachable peer — epoch first, then version —
//     before serving.
//
// Replication frames use the same length-prefix framing as the client
// dialect but under MaxReplFrame, because a state image legitimately
// exceeds the 1 MiB client bound.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"kexclusion/internal/durable"
)

// ReplMagic opens a ReplHello ("kxr4"); bump the digit on incompatible
// change — kxr1→kxr2 added per-shard epochs to records and frontiers,
// kxr2→kxr3 switched pull batches from fixed-width register records to
// the durable record codec so object and atomic records replicate,
// kxr3→kxr4 retired durable's type-5 record and type-7 state image, so
// a mixed-build pair fails here, not at a record parse mid-pull.
// Distinct from Magic so a client dialing the repl port (or a follower
// dialing the client port) fails loudly at the handshake.
const ReplMagic uint32 = 0x6b787234

// MaxReplFrame bounds a replication frame. Sized for a full state
// image (durable caps snapshot bodies at 64 MiB) plus headroom.
const MaxReplFrame = 80 << 20

// MaxPullRecords caps one PullResponse batch: 8192 records ≈ 360 KiB,
// comfortably inside MaxReplFrame while amortizing the round trip.
const MaxPullRecords = 8192

// ReplKind identifies a replication request.
type ReplKind uint8

const (
	// ReplPull fetches op records above a resume LSN (long-polling when
	// caught up) and piggybacks the follower's durable ack.
	ReplPull ReplKind = 1 + iota
	// ReplState fetches the full per-shard state image.
	ReplState
	// ReplFrontier fetches the per-shard version frontier.
	ReplFrontier
)

// String names the kind for logs and errors.
func (k ReplKind) String() string {
	switch k {
	case ReplPull:
		return "pull"
	case ReplState:
		return "state"
	case ReplFrontier:
		return "frontier"
	}
	return fmt.Sprintf("replkind(%d)", uint8(k))
}

// ReplHello is the follower's first frame on a replication connection.
type ReplHello struct {
	// NodeID names the dialing node (its -node-id), identifying the
	// connection for ack tracking and retention pinning.
	NodeID string
}

// ReplWelcome answers a ReplHello.
type ReplWelcome struct {
	// Status is StatusOK on acceptance; StatusDraining when the peer is
	// shutting down. Non-OK closes the connection.
	Status Status
	// NodeID names the answering node.
	NodeID string
	// Shards is the peer's table width; peers must agree on it.
	Shards uint32
	// End is the peer's current log end, an immediate lag reading.
	End uint64
}

// PullRequest asks for op records above FromLSN in the peer's LSN
// space.
type PullRequest struct {
	// FromLSN is the resume position: records at or below it are
	// already consumed.
	FromLSN uint64
	// AckLSN is the highest peer LSN whose records the follower has
	// locally fsynced — the piggybacked quorum ack.
	AckLSN uint64
	// WaitMillis is the long-poll budget: a caught-up pull parks at
	// most this long server-side before answering empty.
	WaitMillis uint32
	// MaxRecords bounds the reply batch (0 means MaxPullRecords).
	MaxRecords uint32
}

// PullResponse carries one replication batch.
type PullResponse struct {
	// Status is StatusOK, or StatusDraining when the peer is shutting
	// down.
	Status Status
	// Pruned reports that FromLSN predates the peer's oldest live
	// segment: Records is empty and the follower must catch up via
	// ReplState before pulling again.
	Pruned bool
	// ResumeLSN is the position the next pull should continue from:
	// the last peer LSN this batch consumed (restart markers are
	// consumed silently, so ResumeLSN can advance past len(Records)).
	ResumeLSN uint64
	// End is the peer's log end at reply time (lag = End - ResumeLSN).
	End uint64
	// Records are the op records, in peer LSN order.
	Records []durable.Record
}

// StateResponse carries a full state image for snapshot catch-up.
type StateResponse struct {
	// Status is StatusOK or StatusDraining.
	Status Status
	// ResumeLSN is the peer log position the image covers: pulls
	// resume above it.
	ResumeLSN uint64
	// Image is the durable.EncodeState serialization of every shard.
	Image []byte
}

// FrontierResponse carries the per-shard (epoch, version) frontier.
// Promotion compares the pairs lexicographically: a higher epoch is
// ahead regardless of version, because a deposed primary's version
// counter keeps inflating with writes that never reached quorum.
type FrontierResponse struct {
	// Status is StatusOK or StatusDraining.
	Status Status
	// Vers holds each shard's current mutation version, indexed by
	// shard.
	Vers []uint64
	// Epochs holds each shard's failover epoch, parallel to Vers.
	Epochs []uint64
}

// replRecordOverhead is the per-record length prefix in a pull batch.
// Since kxr3, records travel as [u32 len][durable record body] using
// the same body codec as the WAL (durable.EncodeRecordBody), so
// variable-width object and atomic records replicate verbatim and a
// follower appends exactly the bytes the primary logged.
const replRecordOverhead = 4

// Encode serializes the repl hello payload.
func (h ReplHello) Encode() []byte {
	id := []byte(h.NodeID)
	b := make([]byte, 0, 8+len(id))
	b = binary.BigEndian.AppendUint32(b, ReplMagic)
	b = binary.BigEndian.AppendUint32(b, uint32(len(id)))
	return append(b, id...)
}

// ParseReplHello decodes a repl hello payload, checking the dialect
// magic.
func ParseReplHello(b []byte) (ReplHello, error) {
	if len(b) < 8 {
		return ReplHello{}, fmt.Errorf("wire: repl hello payload is %d bytes, want >= 8", len(b))
	}
	if m := binary.BigEndian.Uint32(b[0:]); m != ReplMagic {
		return ReplHello{}, fmt.Errorf("wire: bad repl magic %#x (want %#x) — not a kexserved replication endpoint?", m, ReplMagic)
	}
	n := binary.BigEndian.Uint32(b[4:])
	if int(n) != len(b)-8 {
		return ReplHello{}, fmt.Errorf("wire: repl hello declares %d id bytes, has %d", n, len(b)-8)
	}
	return ReplHello{NodeID: string(b[8:])}, nil
}

// Encode serializes the repl welcome payload.
func (w ReplWelcome) Encode() []byte {
	id := []byte(w.NodeID)
	b := make([]byte, 0, 21+len(id))
	b = binary.BigEndian.AppendUint32(b, ReplMagic)
	b = append(b, byte(w.Status))
	b = binary.BigEndian.AppendUint32(b, w.Shards)
	b = binary.BigEndian.AppendUint64(b, w.End)
	b = binary.BigEndian.AppendUint32(b, uint32(len(id)))
	return append(b, id...)
}

// ParseReplWelcome decodes a repl welcome payload.
func ParseReplWelcome(b []byte) (ReplWelcome, error) {
	if len(b) < 21 {
		return ReplWelcome{}, fmt.Errorf("wire: repl welcome payload is %d bytes, want >= 21", len(b))
	}
	if m := binary.BigEndian.Uint32(b[0:]); m != ReplMagic {
		return ReplWelcome{}, fmt.Errorf("wire: bad repl magic %#x (want %#x) — not a kexserved replication endpoint?", m, ReplMagic)
	}
	n := binary.BigEndian.Uint32(b[17:])
	if int(n) != len(b)-21 {
		return ReplWelcome{}, fmt.Errorf("wire: repl welcome declares %d id bytes, has %d", n, len(b)-21)
	}
	return ReplWelcome{
		Status: Status(b[4]),
		Shards: binary.BigEndian.Uint32(b[5:]),
		End:    binary.BigEndian.Uint64(b[9:]),
		NodeID: string(b[21:]),
	}, nil
}

// Encode serializes a pull request (kind byte first, like every repl
// request).
func (p PullRequest) Encode() []byte {
	b := make([]byte, 0, 25)
	b = append(b, byte(ReplPull))
	b = binary.BigEndian.AppendUint64(b, p.FromLSN)
	b = binary.BigEndian.AppendUint64(b, p.AckLSN)
	b = binary.BigEndian.AppendUint32(b, p.WaitMillis)
	b = binary.BigEndian.AppendUint32(b, p.MaxRecords)
	return b
}

// EncodeStateRequest serializes a state-image request.
func EncodeStateRequest() []byte { return []byte{byte(ReplState)} }

// EncodeFrontierRequest serializes a frontier request.
func EncodeFrontierRequest() []byte { return []byte{byte(ReplFrontier)} }

// ParseReplRequest decodes any repl request payload, returning its
// kind and — for ReplPull — the request body.
func ParseReplRequest(b []byte) (ReplKind, PullRequest, error) {
	if len(b) < 1 {
		return 0, PullRequest{}, fmt.Errorf("wire: empty repl request")
	}
	switch k := ReplKind(b[0]); k {
	case ReplPull:
		if len(b) != 25 {
			return 0, PullRequest{}, fmt.Errorf("wire: pull request payload is %d bytes, want 25", len(b))
		}
		return k, PullRequest{
			FromLSN:    binary.BigEndian.Uint64(b[1:]),
			AckLSN:     binary.BigEndian.Uint64(b[9:]),
			WaitMillis: binary.BigEndian.Uint32(b[17:]),
			MaxRecords: binary.BigEndian.Uint32(b[21:]),
		}, nil
	case ReplState, ReplFrontier:
		if len(b) != 1 {
			return 0, PullRequest{}, fmt.Errorf("wire: %s request payload is %d bytes, want 1", k, len(b))
		}
		return k, PullRequest{}, nil
	default:
		return 0, PullRequest{}, fmt.Errorf("wire: unknown repl request kind %d", b[0])
	}
}

// Encode serializes a pull response.
func (p PullResponse) Encode() []byte {
	b := make([]byte, 0, 23+len(p.Records)*(replRecordOverhead+64))
	b = append(b, byte(p.Status))
	var pruned byte
	if p.Pruned {
		pruned = 1
	}
	b = append(b, pruned)
	b = binary.BigEndian.AppendUint64(b, p.ResumeLSN)
	b = binary.BigEndian.AppendUint64(b, p.End)
	b = binary.BigEndian.AppendUint32(b, uint32(len(p.Records)))
	for _, r := range p.Records {
		body := durable.EncodeRecordBody(r)
		b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
		b = append(b, body...)
	}
	return b
}

// ParsePullResponse decodes a pull response payload.
func ParsePullResponse(b []byte) (PullResponse, error) {
	if len(b) < 22 {
		return PullResponse{}, fmt.Errorf("wire: pull response payload is %d bytes, want >= 22", len(b))
	}
	n := int(binary.BigEndian.Uint32(b[18:]))
	if n < 0 || n > MaxPullRecords {
		return PullResponse{}, fmt.Errorf("wire: pull response declares %d records, cap %d", n, MaxPullRecords)
	}
	p := PullResponse{
		Status:    Status(b[0]),
		Pruned:    b[1] != 0,
		ResumeLSN: binary.BigEndian.Uint64(b[2:]),
		End:       binary.BigEndian.Uint64(b[10:]),
	}
	off := 22
	if n > 0 {
		p.Records = make([]durable.Record, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(b)-off < replRecordOverhead {
			return PullResponse{}, fmt.Errorf("wire: pull response truncated at record %d", i)
		}
		ln := int(binary.BigEndian.Uint32(b[off:]))
		off += replRecordOverhead
		if ln < 0 || len(b)-off < ln {
			return PullResponse{}, fmt.Errorf("wire: pull response record %d declares %d bytes, has %d", i, ln, len(b)-off)
		}
		rec, err := durable.ParseRecordBody(b[off : off+ln])
		if err != nil {
			return PullResponse{}, fmt.Errorf("wire: pull response record %d: %w", i, err)
		}
		p.Records = append(p.Records, rec)
		off += ln
	}
	if off != len(b) {
		return PullResponse{}, fmt.Errorf("wire: pull response has %d trailing bytes", len(b)-off)
	}
	return p, nil
}

// Encode serializes a state response.
func (s StateResponse) Encode() []byte {
	b := make([]byte, 0, 13+len(s.Image))
	b = append(b, byte(s.Status))
	b = binary.BigEndian.AppendUint64(b, s.ResumeLSN)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Image)))
	return append(b, s.Image...)
}

// ParseStateResponse decodes a state response payload.
func ParseStateResponse(b []byte) (StateResponse, error) {
	if len(b) < 13 {
		return StateResponse{}, fmt.Errorf("wire: state response payload is %d bytes, want >= 13", len(b))
	}
	n := binary.BigEndian.Uint32(b[9:])
	if int(n) != len(b)-13 {
		return StateResponse{}, fmt.Errorf("wire: state response declares %d image bytes, has %d", n, len(b)-13)
	}
	s := StateResponse{Status: Status(b[0]), ResumeLSN: binary.BigEndian.Uint64(b[1:])}
	if n > 0 {
		s.Image = append([]byte(nil), b[13:]...)
	}
	return s, nil
}

// Encode serializes a frontier response as [epoch][ver] pairs per
// shard. Vers and Epochs must be the same length (a short Epochs
// encodes missing entries as 0, for hand-built test values).
func (f FrontierResponse) Encode() []byte {
	b := make([]byte, 0, 5+len(f.Vers)*16)
	b = append(b, byte(f.Status))
	b = binary.BigEndian.AppendUint32(b, uint32(len(f.Vers)))
	for i, v := range f.Vers {
		var e uint64
		if i < len(f.Epochs) {
			e = f.Epochs[i]
		}
		b = binary.BigEndian.AppendUint64(b, e)
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

// ParseFrontierResponse decodes a frontier response payload.
func ParseFrontierResponse(b []byte) (FrontierResponse, error) {
	if len(b) < 5 {
		return FrontierResponse{}, fmt.Errorf("wire: frontier response payload is %d bytes, want >= 5", len(b))
	}
	n := int(binary.BigEndian.Uint32(b[1:]))
	if n*16 != len(b)-5 {
		return FrontierResponse{}, fmt.Errorf("wire: frontier response declares %d shards, has %d bytes for them", n, len(b)-5)
	}
	f := FrontierResponse{Status: Status(b[0])}
	if n > 0 {
		f.Vers = make([]uint64, n)
		f.Epochs = make([]uint64, n)
		for i := range f.Vers {
			f.Epochs[i] = binary.BigEndian.Uint64(b[5+i*16:])
			f.Vers[i] = binary.BigEndian.Uint64(b[13+i*16:])
		}
	}
	return f, nil
}

// WriteReplFrame frames and writes one replication payload under the
// replication size limit.
func WriteReplFrame(w io.Writer, payload []byte) error {
	return WriteFrameLimit(w, payload, MaxReplFrame)
}

// ReadReplFrame reads one replication frame under the replication size
// limit.
func ReadReplFrame(r io.Reader) ([]byte, error) {
	return ReadFrameLimit(r, MaxReplFrame)
}
