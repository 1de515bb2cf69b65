package client

import (
	"errors"
	"fmt"
	"hash/fnv"

	"kexclusion/internal/object"
	"kexclusion/internal/wire"
)

// This file is the typed side of the client: operations on named
// objects (registers, maps, queues, k-slot snapshots) and atomic
// multi-shard groups, all funnelled through client.go's pipelined
// exchange machinery. Every mutation draws its op ID from NextSeq; the
// *Op variants take placement and seq from a caller that must re-issue
// an operation across clients (GoObj is their general form).

// ErrAtomicAborted marks an atomic group none of whose members were
// applied: some member would have been logically rejected. The op IDs
// are unspent; the caller may fix the group and re-issue it.
var ErrAtomicAborted = errors.New("client: atomic group aborted; no member was applied")

// ShardFor maps an object name onto a shard deterministically (FNV-1a
// over the name, mod the server's shard count). Nothing in the
// protocol requires this placement — an object lives wherever its
// creator put it — but every kexclusion tool uses ShardFor, so
// independently written clients agree on where to find an object.
func (c *Client) ShardFor(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32() % c.Hello().Shards
}

// ObjResult is a mutation's outcome.
type ObjResult struct {
	// Value is the acknowledged result — originally, if the op was a
	// duplicate; what it means is per-kind (new register value, observed
	// map value, dequeued payload, queue length...).
	Value int64
	// Found is a typed operation's logical verdict: the cas swapped, the
	// key existed, the dequeue yielded a value. False is data, not an
	// error — a rejected mutation still consumed its op ID.
	Found bool
	// WasDuplicate reports that the server recognized the op ID as
	// already applied and answered from its dedup window, with the
	// original verdict, without touching the object again. A re-issued
	// op seeing this is the exactly-once machinery working, not an error.
	WasDuplicate bool
}

func objResult(resp wire.Response) ObjResult {
	return ObjResult{
		Value:        resp.Value,
		Found:        resp.Flags&wire.FlagFound != 0,
		WasDuplicate: resp.Flags&wire.FlagDuplicate != 0,
	}
}

// Create ensures an object named name of class typ exists on the
// shard ShardFor picks (CreateOn chooses explicitly). Creation is
// idempotent: re-creating with the same class succeeds without
// touching the object, a different class is refused (Found false).
// slots is the slot count for snapshots and ignored otherwise.
func (c *Client) Create(name string, typ object.Type, slots int) (ObjResult, error) {
	return c.CreateOn(c.ShardFor(name), name, typ, slots, c.NextSeq())
}

// CreateOn is Create with a caller-chosen shard and op sequence number.
func (c *Client) CreateOn(shard uint32, name string, typ object.Type, slots int, seq uint64) (ObjResult, error) {
	resp, err := c.doObj(wire.KindCreate, name, "", shard, int64(typ), int64(slots), seq)
	return objResult(resp), err
}

// RegGet reads a named register. found false means the object does not
// exist (reads never create).
func (c *Client) RegGet(name string) (v int64, found bool, err error) {
	resp, err := c.doObj(wire.KindRegGet, name, "", c.ShardFor(name), 0, 0, 0)
	return resp.Value, resp.Flags&wire.FlagFound != 0, err
}

// RegAdd adds delta to a named register and returns the new value.
func (c *Client) RegAdd(name string, delta int64) (ObjResult, error) {
	resp, err := c.doObj(wire.KindRegAdd, name, "", c.ShardFor(name), delta, 0, c.NextSeq())
	return objResult(resp), err
}

// RegSet overwrites a named register.
func (c *Client) RegSet(name string, v int64) (ObjResult, error) {
	resp, err := c.doObj(wire.KindRegSet, name, "", c.ShardFor(name), v, 0, c.NextSeq())
	return objResult(resp), err
}

// MapGet reads one key of a named map. found false means the object or
// the key is missing.
func (c *Client) MapGet(name, key string) (v int64, found bool, err error) {
	resp, err := c.doObj(wire.KindMapGet, name, key, c.ShardFor(name), 0, 0, 0)
	return resp.Value, resp.Flags&wire.FlagFound != 0, err
}

// MapPut stores key=v in a named map.
func (c *Client) MapPut(name, key string, v int64) (ObjResult, error) {
	return c.MapPutOp(c.ShardFor(name), name, key, v, c.NextSeq())
}

// MapPutOp is MapPut with caller-managed placement and seq.
func (c *Client) MapPutOp(shard uint32, name, key string, v int64, seq uint64) (ObjResult, error) {
	resp, err := c.doObj(wire.KindMapPut, name, key, shard, v, 0, seq)
	return objResult(resp), err
}

// MapCAS swaps key from old to new iff its current value is old (a
// missing key reads as 0, so cas(key, 0→v) initializes). Found reports
// whether the swap happened; Value is the new value when it did and
// the observed value when it did not. A cas re-issued after a lost
// answer returns the ORIGINAL verdict, even if the key has since moved —
// the exactly-once contract for conditional ops.
func (c *Client) MapCAS(name, key string, old, new int64) (ObjResult, error) {
	resp, err := c.doObj(wire.KindMapCAS, name, key, c.ShardFor(name), new, old, c.NextSeq())
	return objResult(resp), err
}

// MapDel removes key from a named map. Found reports whether it
// existed.
func (c *Client) MapDel(name, key string) (ObjResult, error) {
	resp, err := c.doObj(wire.KindMapDel, name, key, c.ShardFor(name), 0, 0, c.NextSeq())
	return objResult(resp), err
}

// QEnq appends v to a named queue and returns the queue's new length.
func (c *Client) QEnq(name string, v int64) (ObjResult, error) {
	return c.QEnqOp(c.ShardFor(name), name, v, c.NextSeq())
}

// QEnqOp is QEnq with caller-managed placement and seq.
func (c *Client) QEnqOp(shard uint32, name string, v int64, seq uint64) (ObjResult, error) {
	resp, err := c.doObj(wire.KindQEnq, name, "", shard, v, 0, seq)
	return objResult(resp), err
}

// QDeq pops the oldest element of a named queue. Found false means the
// queue was empty (Value 0).
func (c *Client) QDeq(name string) (ObjResult, error) {
	return c.QDeqOp(c.ShardFor(name), name, c.NextSeq())
}

// QDeqOp is QDeq with caller-managed placement and seq. Dequeue is the
// non-idempotent op the dedup window exists for: re-issuing a lost
// dequeue with its original seq returns the originally popped value
// (WasDuplicate set) instead of popping again.
func (c *Client) QDeqOp(shard uint32, name string, seq uint64) (ObjResult, error) {
	resp, err := c.doObj(wire.KindQDeq, name, "", shard, 0, 0, seq)
	return objResult(resp), err
}

// QLen reads a named queue's length. found false means no such queue.
func (c *Client) QLen(name string) (n int64, found bool, err error) {
	resp, err := c.doObj(wire.KindQLen, name, "", c.ShardFor(name), 0, 0, 0)
	return resp.Value, resp.Flags&wire.FlagFound != 0, err
}

// SnapUpdate writes v into one slot of a named k-slot snapshot object.
func (c *Client) SnapUpdate(name string, slot int, v int64) (ObjResult, error) {
	resp, err := c.doObj(wire.KindSnapUpdate, name, "", c.ShardFor(name), v, int64(slot), c.NextSeq())
	return objResult(resp), err
}

// SnapScan reads every slot of a named snapshot object at one
// linearization point. found false means no such object (nil slots).
func (c *Client) SnapScan(name string) (slots []int64, found bool, err error) {
	resp, err := c.doObj(wire.KindSnapScan, name, "", c.ShardFor(name), 0, 0, 0)
	if err != nil {
		return nil, false, err
	}
	if resp.Flags&wire.FlagFound == 0 {
		return nil, false, nil
	}
	slots, err = wire.DecodeSlots(resp.Data)
	return slots, err == nil, err
}

// AtomicOp is one member of an atomic group: a mutation plus its
// placement and op sequence number. Zero Shard with a non-empty Obj is
// filled in from ShardFor at issue time.
type AtomicOp struct {
	Kind     wire.Kind
	Obj, Key string
	Shard    uint32
	Arg      int64
	Arg2     int64
	Seq      uint64
}

// Atomic issues ops as one all-or-nothing group (a 0xC2 frame):
// either every member applies — across shards, under one WAL record —
// or none does and the call fails with ErrAtomicAborted, leaving every
// member's op ID unspent. Members must be mutations; each needs its
// own Seq (AtomicSeqs assigns a fresh run). A re-issued group whose
// members already applied is answered from the dedup window, which is
// what lets the retry loop re-issue a group whose answer was lost.
func (c *Client) Atomic(ops []AtomicOp) ([]ObjResult, error) {
	if len(ops) == 0 || len(ops) > wire.MaxAtomicOps {
		return nil, fmt.Errorf("client: atomic group of %d ops (want 1..%d)", len(ops), wire.MaxAtomicOps)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	members := make([]*Pending, len(ops))
	for i, op := range ops {
		shard := op.Shard
		if shard == 0 && op.Obj != "" {
			shard = c.ShardFor(op.Obj)
		}
		p, err := c.goObjLocked(op.Kind, op.Obj, op.Key, shard, op.Arg, op.Arg2, op.Seq)
		if err != nil {
			return nil, err // poisoned: nothing was queued
		}
		// The group mark makes the members ONE operation: framed together
		// on the first issue and on every re-issue, charged to the first
		// member's budget, settled all at once.
		p.group = members
		members[i] = p
	}
	if _, err := c.waitLocked(members[0]); err != nil {
		var we *wire.Error
		switch {
		case !errors.As(err, &we) || we.Status != wire.StatusAtomicAbort:
			return nil, err
		case we.Msg != "":
			return nil, fmt.Errorf("%w: %s", ErrAtomicAborted, we.Msg)
		}
		return nil, ErrAtomicAborted
	}
	results := make([]ObjResult, len(ops))
	for i, p := range members {
		results[i] = objResult(p.resp)
	}
	return results, nil
}

// AtomicSeqs assigns a fresh op sequence number to every member of a
// group in place and returns it, for callers that build a group once
// and may re-issue it verbatim after a failure.
func (c *Client) AtomicSeqs(ops []AtomicOp) []AtomicOp {
	for i := range ops {
		ops[i].Seq = c.NextSeq()
	}
	return ops
}
