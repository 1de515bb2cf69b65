package server_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// answered from the committed cell without a k-exclusion slot. With all
// K slots parked inside the core on adds, a further client's reads of the
// parked shard — its root register, a map, a queue and a snapshot — still
// answer, each the value committed before the park, while its add, which
// does need a slot, times out; and no read was shown to the gate.
func TestReadsTakeNoSlot(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { readsTakeNoSlot(t, k) })
	}
}

func readsTakeNoSlot(t *testing.T, k int) {
	gate := make(chan struct{})
	entered := make(chan struct{}, k)
	var armed, gatedReads atomic.Int32
	srv, addr := startServer(t, server.Config{
		N: k + 1, K: k, Shards: 1,
		OpTimeout: 100 * time.Millisecond,
		ApplyGate: func(shard uint32, kind wire.Kind) {
			if kind.IsRead() {
				gatedReads.Add(1)
			}
			if kind == wire.KindAdd && armed.Add(-1) >= 0 {
				entered <- struct{}{}
				<-gate
			}
		},
	})

	reader := dial(t, addr)
	defer reader.Close()
	if v, err := reader.Add(0, 7); err != nil || v != 7 {
		t.Fatalf("pre-park add = %d, %v", v, err)
	}
	for _, step := range []func() (client.ObjResult, error){
		func() (client.ObjResult, error) { return reader.Create("m", object.TypeMap, 0) },
		func() (client.ObjResult, error) { return reader.MapPut("m", "k", 3) },
		func() (client.ObjResult, error) { return reader.Create("q", object.TypeQueue, 0) },
		func() (client.ObjResult, error) { return reader.QEnq("q", 5) },
		func() (client.ObjResult, error) { return reader.QEnq("q", 6) },
		func() (client.ObjResult, error) { return reader.Create("s", object.TypeSnapshot, 2) },
		func() (client.ObjResult, error) { return reader.SnapUpdate("s", 1, 9) },
	} {
		if _, err := step(); err != nil {
			t.Fatalf("pre-park setup: %v", err)
		}
	}

	armed.Store(int32(k))
	holderDone := make(chan error, k)
	for range k {
		holder := dial(t, addr)
		defer holder.Close()
		go func() {
			_, err := holder.Add(0, 1)
			holderDone <- err
		}()
	}
	for range k {
		<-entered // every slot is parked inside the core
	}

	before := srv.Stats()
	if v, err := reader.Get(0); err != nil || v != 7 {
		t.Fatalf("root get beside parked holders = %d, %v; want the pre-park 7", v, err)
	}
	if v, found, err := reader.MapGet("m", "k"); err != nil || !found || v != 3 {
		t.Fatalf("map get beside parked holders = %d, %v, %v; want the pre-park 3", v, found, err)
	}
	if n, found, err := reader.QLen("q"); err != nil || !found || n != 2 {
		t.Fatalf("queue length beside parked holders = %d, %v, %v; want the pre-park 2", n, found, err)
	}
	if slots, found, err := reader.SnapScan("s"); err != nil || !found || !slices.Equal(slots, []int64{0, 9}) {
		t.Fatalf("snapshot scan beside parked holders = %v, %v, %v; want the pre-park [0 9]", slots, found, err)
	}
	const reads = 4
	_, err := reader.Add(0, 10)
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != wire.StatusTimeout {
		t.Fatalf("add beside parked holders: got %v, want status timeout", err)
	}
	after := srv.Stats()
	if got := after.ReadFastpath - before.ReadFastpath; got != reads {
		t.Fatalf("read_fastpath rose by %d across %d reads", got, reads)
	}
	if after.OpDeadlines-before.OpDeadlines != 1 {
		t.Fatalf("op_deadlines rose by %d, want 1 (the add alone)", after.OpDeadlines-before.OpDeadlines)
	}

	close(gate)
	for range k {
		if err := <-holderDone; err != nil {
			t.Fatal(err)
		}
	}
	if v, err := reader.Get(0); err != nil || v != 7+int64(k) {
		t.Fatalf("root get after the holders committed = %d, %v; want %d", v, err, 7+k)
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
