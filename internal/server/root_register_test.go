package server_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"kexclusion/internal/durable"
	"kexclusion/internal/object"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// TestReadsTakeNoSlot is the read contract, for every read: it is
// answered from the committed cell without a k-exclusion slot. With the
// only slot (K = 1) parked inside the core on an add, a second client's
// root get still answers — the value committed before the park — while
// its add, which does need the slot, times out; and the get was never
// shown to the gate.
func TestReadsTakeNoSlot(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var armed, gatedReads atomic.Int32
	srv, addr := startServer(t, server.Config{
		N: 2, K: 1, Shards: 1,
		OpTimeout: 100 * time.Millisecond,
		ApplyGate: func(shard uint32, kind wire.Kind) {
			if kind.IsRead() {
				gatedReads.Add(1)
			}
			if kind == wire.KindAdd && armed.CompareAndSwap(1, 0) {
				close(entered)
				<-gate
			}
		},
	})

	holder := dial(t, addr)
	defer holder.Close()
	reader := dial(t, addr)
	defer reader.Close()
	if v, err := holder.Add(0, 7); err != nil || v != 7 {
		t.Fatalf("pre-park add = %d, %v", v, err)
	}

	armed.Store(1)
	holderDone := make(chan error, 1)
	go func() {
		_, err := holder.Add(0, 1)
		holderDone <- err
	}()
	<-entered // the holder is parked inside the core, owning the only slot

	before := srv.Stats()
	if v, err := reader.Get(0); err != nil || v != 7 {
		t.Fatalf("root get beside a parked holder = %d, %v; want the pre-park 7", v, err)
	}
	_, err := reader.Add(0, 10)
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != wire.StatusTimeout {
		t.Fatalf("add beside a parked holder: got %v, want status timeout", err)
	}
	after := srv.Stats()
	if got := after.ReadFastpath - before.ReadFastpath; got != 1 {
		t.Fatalf("read_fastpath rose by %d across one get, want 1", got)
	}
	if after.OpDeadlines-before.OpDeadlines != 1 {
		t.Fatalf("op_deadlines rose by %d, want 1 (the add alone)", after.OpDeadlines-before.OpDeadlines)
	}

	close(gate)
	if err := <-holderDone; err != nil {
		t.Fatal(err)
	}
	if v, err := reader.Get(0); err != nil || v != 8 {
		t.Fatalf("root get after the holder committed = %d, %v; want 8", v, err)
	}
	if n := gatedReads.Load(); n != 0 {
		t.Fatalf("ApplyGate saw %d reads; reads take no slot and pass no gate", n)
	}
}

// TestRootNameUnreachableByName: the root register answers only to the
// root kinds. An object kind carrying a zero-length name is a protocol
// error — the server hangs up without an answer and the register is
// untouched — and a get on a fresh shard reads the born-at-0 value with
// no FlagFound.
func TestRootNameUnreachableByName(t *testing.T) {
	srv, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1})
	for i, kind := range []wire.Kind{wire.KindRegAdd, wire.KindRegGet, wire.KindCreate} {
		// EncodeObjRequest refuses to build the frame, so build it from a
		// named op and cut the name out: [marker][op header][name].
		payload, err := wire.EncodeObjRequest(wire.Request{ID: 1, Kind: kind, Obj: "x", Arg: int64(object.TypeRegister)})
		if err != nil {
			t.Fatal(err)
		}
		payload = payload[:len(payload)-1]
		payload[1+45] = 0 // nameLen
		if _, err := wire.ParseRequestFrame(payload); err == nil {
			t.Fatalf("%v with a zero-length name parsed", kind)
		}
		conn := rawDial(t, addr)
		if err := wire.WriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if b, err := wire.ReadFrame(conn); err == nil {
			t.Fatalf("%v with a zero-length name answered with %x", kind, b)
		} else if ne, ok := err.(interface{ Timeout() bool }); ok && ne.Timeout() {
			t.Fatalf("%v with a zero-length name: server kept the session open", kind)
		}
		conn.Close()
		awaitStats(t, srv, "protocol-error reclaim", func(st wire.Stats) bool {
			return st.ActiveSessions == 0 && st.Reclaimed >= int64(i+1)
		})
	}

	conn := rawDial(t, addr)
	defer conn.Close()
	payload, err := wire.EncodeObjRequest(wire.Request{ID: 9, Kind: wire.KindGet})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadResponse(conn)
	if err != nil || resp.Status != wire.StatusOK || resp.Value != 0 || resp.Flags != 0 {
		t.Fatalf("get of an unwritten root register: %+v, %v; want OK, 0, no flags", resp, err)
	}
}

// TestRootSpellingsAnswerAsBefore: what get/add/set put on the socket is
// what they always did — no FlagFound on any root kind, FlagDuplicate
// on a re-issued op ID.
func TestRootSpellingsAnswerAsBefore(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1})
	conn := rawDial(t, addr)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	do := func(req wire.Request) wire.Response {
		t.Helper()
		payload, err := wire.EncodeObjRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadResponse(conn)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	add := wire.Request{ID: 1, Kind: wire.KindAdd, Arg: 5, Session: 0xface, Seq: 1}
	for _, tc := range []struct {
		req  wire.Request
		want wire.Response
	}{
		{add, wire.Response{ID: 1, Value: 5}},
		{wire.Request{ID: 2, Kind: wire.KindSet, Arg: 40, Session: 0xface, Seq: 2}, wire.Response{ID: 2, Value: 40}},
		{wire.Request{ID: 3, Kind: wire.KindGet}, wire.Response{ID: 3, Value: 40}},
		{add, wire.Response{ID: 1, Value: 5, Flags: wire.FlagDuplicate}},
		{wire.Request{ID: 4, Kind: wire.KindGet}, wire.Response{ID: 4, Value: 40}},
	} {
		if got := do(tc.req); got.ID != tc.want.ID || got.Status != wire.StatusOK ||
			got.Value != tc.want.Value || got.Flags != tc.want.Flags || len(got.Data) != 0 {
			t.Fatalf("%v: got %+v, want %+v", tc.req.Kind, got, tc.want)
		}
	}
}

// TestAtomicGroupMixesRootAndNamed: a group of a root add on shard 0
// and a reg.add on a named register commits as ONE type-9 WAL record
// whose members are both type-8 bodies — the root's with a zero-length
// name. The segment bytes are read raw, not through the decoder.
func TestAtomicGroupMixesRootAndNamed(t *testing.T) {
	dir := t.TempDir()
	_, addr, stop := startStoppable(t, server.Config{N: 2, K: 2, Shards: 2, DataDir: dir, Fsync: durable.SyncAlways})
	c := dial(t, addr)
	c.SetSession(0xa70)
	if res, err := c.CreateOn(1, "named", object.TypeRegister, 0, c.NextSeq()); err != nil || !res.Found {
		t.Fatalf("create: %+v %v", res, err)
	}
	results, err := c.Atomic(c.AtomicSeqs([]client.AtomicOp{
		{Kind: wire.KindAdd, Shard: 0, Arg: 3},
		{Kind: wire.KindRegAdd, Obj: "named", Shard: 1, Arg: 4},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Value != 3 || results[0].Found || results[1].Value != 4 || !results[1].Found {
		t.Fatalf("group results %+v; want 3 without FlagFound, 4 with", results)
	}
	if v, err := c.Get(0); err != nil || v != 3 {
		t.Fatalf("root after the group = %d, %v", v, err)
	}
	c.Close()
	stop()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, err %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var groups int
	for off := 0; off < len(data); {
		n := int(binary.BigEndian.Uint32(data[off:]))
		body := data[off+8 : off+8+n] // [4 len][4 crc][body]
		off += 8 + n
		if body[0] != 9 {
			continue
		}
		groups++
		if count := binary.BigEndian.Uint16(body[1:]); count != 2 {
			t.Fatalf("group holds %d members, want 2", count)
		}
		const nameLenAt = 63 // the type-8 fixed prefix ends [ok][nameLen][u16 keyLen]
		first := body[3+2:]
		firstLen := int(binary.BigEndian.Uint16(body[3:]))
		second := first[firstLen+2:]
		if first[0] != 8 || first[nameLenAt] != 0 || firstLen != 66 {
			t.Fatalf("root member: type %d, nameLen %d, %d bytes; want type 8, zero-length name, 66", first[0], first[nameLenAt], firstLen)
		}
		if second[0] != 8 || second[nameLenAt] != byte(len("named")) {
			t.Fatalf("named member: type %d, nameLen %d; want type 8, 5", second[0], second[nameLenAt])
		}
	}
	if groups != 1 {
		t.Fatalf("log holds %d type-9 records, want 1", groups)
	}
}
