// Request framing. There is one: every client → server payload opens
// with a marker byte and carries operations in one self-describing op
// encoding, whatever their kind — control (ping, stats) and
// root-register kinds (get, add, set: reg.* on the register each shard
// has without a name) travel with an empty object name, named-object
// kinds with the name, key and second argument they need, never empty.
//
//   - 0xC0, one op: [marker][op]. Answered with one Response frame.
//   - 0xC1, pipeline: [marker][u16 count][count × op], up to MaxBatchOps
//     ops applied in order. Answered with BatchResponse frames (0xB5)
//     carrying exactly that frame's responses in order, split across
//     several frames only when they would exceed MaxFrame — the client
//     consumes them by count, not by frame.
//   - 0xC2, atomic group: the pipeline layout, up to MaxAtomicOps
//     mutations applied all-or-nothing across shards — either every
//     member commits under one WAL record or every member answers
//     StatusAtomicAbort and no object is touched. Answered like 0xC1.
//
// An op is a fixed header carrying every numeric field plus the name
// and key lengths, then the name and key bytes:
//
//	[8 id][1 kind][4 shard][8 arg][8 session][8 seq][8 arg2]
//	[1 nameLen][2 keyLen][name][key]
//
// so a root-register add is 1+48 = 49 payload bytes (53 on the wire
// with the frame's length prefix). A client always knows the shape of
// the next response frame from the shape of what it sent. Any other
// leading byte is refused and the server hangs up.
//
// Ordering and acknowledgement are per-operation: operations apply in
// the order sent on the connection, every response carries its
// request's ID, and a mutation is acknowledged only at the configured
// durability point. What a pipeline changes is the cost: the server
// drains it whole, funnels its WAL appends into one group-commit wait
// (one fsync can acknowledge all of it under -fsync always), and
// flushes all responses in one write.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"kexclusion/internal/object"
)

// MaxBatchOps bounds the operations in one pipeline frame (and the
// responses in one BatchResponse frame). A peer announcing more is
// treated as corrupt, like an oversized frame.
const MaxBatchOps = 1024

// MaxAtomicOps bounds the operations in one atomic group — small by
// design, because the server holds every touched shard exclusively for
// the group's duration.
const MaxAtomicOps = object.MaxAtomicOps

// Payload markers. One opens every request and every batch response,
// so a decoder never has to guess a shape from a length.
const (
	batchRespMarker = 0xB5
	reqMarker       = 0xC0
	pipelineMarker  = 0xC1
	atomicMarker    = 0xC2
)

// opFixedLen is the fixed header of one op: id + kind + shard + arg +
// session + seq + arg2 + nameLen + keyLen.
const opFixedLen = 8 + 1 + 4 + 8 + 8 + 8 + 8 + 1 + 2

// validateOp checks an op's name, key and second argument against the
// object caps. Object kinds require a name; control and root-register
// kinds must leave name, key and arg2 zero so their encoding stays
// canonical.
func validateOp(r Request) error {
	if r.Kind.IsObject() {
		if len(r.Obj) == 0 || len(r.Obj) > object.MaxNameLen {
			return fmt.Errorf("wire: object name of %d bytes outside [1,%d]", len(r.Obj), object.MaxNameLen)
		}
	} else if r.Obj != "" || r.Key != "" || r.Arg2 != 0 {
		return fmt.Errorf("wire: %s op carries object fields", r.Kind)
	}
	if len(r.Key) > object.MaxKeyLen {
		return fmt.Errorf("wire: object key of %d bytes exceeds %d", len(r.Key), object.MaxKeyLen)
	}
	return nil
}

// appendOp serializes one op.
func appendOp(b []byte, r Request) []byte {
	b = binary.BigEndian.AppendUint64(b, r.ID)
	b = append(b, byte(r.Kind))
	b = binary.BigEndian.AppendUint32(b, r.Shard)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Arg))
	b = binary.BigEndian.AppendUint64(b, r.Session)
	b = binary.BigEndian.AppendUint64(b, r.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Arg2))
	b = append(b, byte(len(r.Obj)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Key)))
	b = append(b, r.Obj...)
	return append(b, r.Key...)
}

// parseOp decodes one op, returning the bytes consumed.
func parseOp(b []byte) (Request, int, error) {
	if len(b) < opFixedLen {
		return Request{}, 0, fmt.Errorf("wire: op truncated (%d bytes)", len(b))
	}
	r := Request{
		ID:      binary.BigEndian.Uint64(b[0:]),
		Kind:    Kind(b[8]),
		Shard:   binary.BigEndian.Uint32(b[9:]),
		Arg:     int64(binary.BigEndian.Uint64(b[13:])),
		Session: binary.BigEndian.Uint64(b[21:]),
		Seq:     binary.BigEndian.Uint64(b[29:]),
		Arg2:    int64(binary.BigEndian.Uint64(b[37:])),
	}
	nameLen, keyLen := int(b[45]), int(binary.BigEndian.Uint16(b[46:]))
	n := opFixedLen + nameLen + keyLen
	if len(b) < n {
		return Request{}, 0, fmt.Errorf("wire: op declares %d name+key bytes, has %d", nameLen+keyLen, len(b)-opFixedLen)
	}
	r.Obj = string(b[opFixedLen : opFixedLen+nameLen])
	r.Key = string(b[opFixedLen+nameLen : n])
	if err := validateOp(r); err != nil {
		return Request{}, 0, err
	}
	return r, n, nil
}

// EncodeObjRequest serializes one operation as a single-op payload
// (marker 0xC0).
func EncodeObjRequest(r Request) ([]byte, error) {
	if err := validateOp(r); err != nil {
		return nil, err
	}
	b := make([]byte, 1, 1+opFixedLen+len(r.Obj)+len(r.Key))
	b[0] = reqMarker
	return appendOp(b, r), nil
}

// ObjBatch is a pipeline (or, when Atomic, an all-or-nothing group) of
// operations in one frame.
type ObjBatch struct {
	Reqs []Request
	// Atomic selects the 0xC2 all-or-nothing group encoding: every
	// member must be a dedup-eligible mutation and the count is capped
	// at MaxAtomicOps instead of MaxBatchOps.
	Atomic bool
}

// Encode serializes the batch payload: marker, count, then the ops back
// to back.
func (ob ObjBatch) Encode() ([]byte, error) {
	marker, cap := byte(pipelineMarker), MaxBatchOps
	if ob.Atomic {
		marker, cap = atomicMarker, MaxAtomicOps
	}
	if len(ob.Reqs) == 0 || len(ob.Reqs) > cap {
		return nil, fmt.Errorf("wire: batch of %d ops outside [1,%d]", len(ob.Reqs), cap)
	}
	out := make([]byte, 3, 3+len(ob.Reqs)*(opFixedLen+16))
	out[0] = marker
	binary.BigEndian.PutUint16(out[1:], uint16(len(ob.Reqs)))
	for _, r := range ob.Reqs {
		if err := validateOp(r); err != nil {
			return nil, err
		}
		out = appendOp(out, r)
	}
	return out, nil
}

// ReqFrame is one decoded inbound request frame. The response framing
// mirrors the request shape: a single-op frame (Batched false) is
// answered with one Response frame, a pipeline or atomic group with
// BatchResponse frames carrying that frame's responses in order.
type ReqFrame struct {
	Reqs []Request
	// Batched reports a pipeline or atomic-group frame.
	Batched bool
	// Atomic reports an all-or-nothing group (implies Batched).
	Atomic bool
}

// ParseRequestFrame decodes a request payload, dispatching on its
// marker byte.
func ParseRequestFrame(b []byte) (ReqFrame, error) {
	if len(b) == 0 {
		return ReqFrame{}, fmt.Errorf("wire: empty request payload")
	}
	switch b[0] {
	case reqMarker:
		r, n, err := parseOp(b[1:])
		if err != nil {
			return ReqFrame{}, err
		}
		if n != len(b)-1 {
			return ReqFrame{}, fmt.Errorf("wire: request has %d trailing bytes", len(b)-1-n)
		}
		return ReqFrame{Reqs: []Request{r}}, nil
	case pipelineMarker, atomicMarker:
		if len(b) < 3 {
			return ReqFrame{}, fmt.Errorf("wire: batch payload truncated (%d bytes)", len(b))
		}
		f := ReqFrame{Batched: true, Atomic: b[0] == atomicMarker}
		cap := MaxBatchOps
		if f.Atomic {
			cap = MaxAtomicOps
		}
		n := int(binary.BigEndian.Uint16(b[1:]))
		if n == 0 || n > cap {
			return ReqFrame{}, fmt.Errorf("wire: batch of %d ops outside [1,%d]", n, cap)
		}
		f.Reqs = make([]Request, 0, n)
		off := 3
		for i := 0; i < n; i++ {
			r, used, err := parseOp(b[off:])
			if err != nil {
				return ReqFrame{}, fmt.Errorf("wire: batch op %d: %w", i, err)
			}
			f.Reqs = append(f.Reqs, r)
			off += used
		}
		if off != len(b) {
			return ReqFrame{}, fmt.Errorf("wire: batch has %d trailing bytes", len(b)-off)
		}
		return f, nil
	}
	return ReqFrame{}, fmt.Errorf("wire: unknown request marker %#x (%d-byte payload)", b[0], len(b))
}

// ReadRequestFrame reads one frame and decodes it as a request.
func ReadRequestFrame(r io.Reader) (ReqFrame, error) {
	b, err := ReadFrame(r)
	if err != nil {
		return ReqFrame{}, err
	}
	return ParseRequestFrame(b)
}

// BatchResponse answers (part of) a pipeline or atomic group: responses
// in request order, each length-prefixed because Data makes them
// variable-width.
type BatchResponse struct {
	Resps []Response
}

// Encode serializes the batch response payload:
// [marker][u32 count][count × [u32 len][response]].
func (b BatchResponse) Encode() []byte {
	size := 5
	for _, r := range b.Resps {
		size += 4 + r.encodedLen()
	}
	out := make([]byte, 5, size)
	out[0] = batchRespMarker
	binary.BigEndian.PutUint32(out[1:], uint32(len(b.Resps)))
	for _, r := range b.Resps {
		out = binary.BigEndian.AppendUint32(out, uint32(r.encodedLen()))
		out = r.appendTo(out)
	}
	return out
}

// ParseBatchResponse decodes a batch response payload.
func ParseBatchResponse(b []byte) (BatchResponse, error) {
	if len(b) < 5 || b[0] != batchRespMarker {
		return BatchResponse{}, fmt.Errorf("wire: not a batch response payload")
	}
	n := binary.BigEndian.Uint32(b[1:])
	if n == 0 || n > MaxBatchOps {
		return BatchResponse{}, fmt.Errorf("wire: batch of %d responses outside [1,%d]", n, MaxBatchOps)
	}
	resps := make([]Response, 0, n)
	off := 5
	for i := uint32(0); i < n; i++ {
		if len(b)-off < 4 {
			return BatchResponse{}, fmt.Errorf("wire: batch response truncated at op %d", i)
		}
		ln := int(binary.BigEndian.Uint32(b[off:]))
		off += 4
		if ln < 0 || len(b)-off < ln {
			return BatchResponse{}, fmt.Errorf("wire: batch response op %d declares %d bytes, has %d", i, ln, len(b)-off)
		}
		r, err := ParseResponse(b[off : off+ln])
		if err != nil {
			return BatchResponse{}, err
		}
		resps = append(resps, r)
		off += ln
	}
	if off != len(b) {
		return BatchResponse{}, fmt.Errorf("wire: batch response has %d trailing bytes", len(b)-off)
	}
	return BatchResponse{Resps: resps}, nil
}

// ReadBatchResponse reads and decodes one batch response frame.
func ReadBatchResponse(r io.Reader) (BatchResponse, error) {
	b, err := ReadFrame(r)
	if err != nil {
		return BatchResponse{}, err
	}
	return ParseBatchResponse(b)
}

// WriteBatchResponses frames and writes the responses to one inbound
// pipeline or group, splitting into several BatchResponse frames only
// when the encoded responses would overflow MaxFrame (stats payloads
// can be large). Responses stay in order across the split.
func WriteBatchResponses(w io.Writer, resps []Response) error {
	for len(resps) > 0 {
		n, size := 0, 5
		for n < len(resps) && n < MaxBatchOps {
			step := 4 + resps[n].encodedLen()
			if n > 0 && size+step > MaxFrame {
				break
			}
			size += step
			n++
		}
		if err := WriteFrame(w, BatchResponse{Resps: resps[:n]}.Encode()); err != nil {
			return err
		}
		resps = resps[n:]
	}
	return nil
}

// EncodeSlots serializes a snapshot scan result (8 bytes per slot),
// the Data payload of a KindSnapScan response.
func EncodeSlots(slots []int64) []byte {
	b := make([]byte, 0, len(slots)*8)
	for _, v := range slots {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// DecodeSlots deserializes a snapshot scan Data payload.
func DecodeSlots(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("wire: snapshot scan payload of %d bytes is not a multiple of 8", len(b))
	}
	slots := make([]int64, len(b)/8)
	for i := range slots {
		slots[i] = int64(binary.BigEndian.Uint64(b[i*8:]))
	}
	return slots, nil
}
