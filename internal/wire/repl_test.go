package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"kexclusion/internal/durable"
)

func TestReplHandshakeRoundTrip(t *testing.T) {
	h, err := ParseReplHello(ReplHello{NodeID: "node-b"}.Encode())
	if err != nil || h.NodeID != "node-b" {
		t.Fatalf("hello round trip: %+v, err %v", h, err)
	}
	w := ReplWelcome{Status: StatusOK, NodeID: "node-a", Shards: 4, End: 99}
	got, err := ParseReplWelcome(w.Encode())
	if err != nil || got != w {
		t.Fatalf("welcome round trip: %+v, err %v", got, err)
	}

	// A peer one repl version back (kxr3, which shipped type-5 records
	// and type-7 state images) is refused at the hello.
	old := ReplHello{NodeID: "node-b"}.Encode()
	binary.BigEndian.PutUint32(old, 0x6b787233)
	if _, err := ParseReplHello(old); err == nil || !strings.Contains(err.Error(), "bad repl magic") {
		t.Fatalf("kxr3 hello: err %v, want bad repl magic", err)
	}

	// A client-dialect Hello must not parse as a repl hello (distinct
	// magic), and vice versa — cross-dialing fails at the handshake.
	if _, err := ParseReplHello(Hello{Status: StatusOK}.Encode()); err == nil {
		t.Fatal("client hello accepted as repl hello")
	}
	if _, err := ParseHello(ReplHello{NodeID: "x"}.Encode()); err == nil {
		t.Fatal("repl hello accepted as client hello")
	}
}

func TestReplRequestRoundTrip(t *testing.T) {
	pull := PullRequest{FromLSN: 7, AckLSN: 5, WaitMillis: 250, MaxRecords: 64}
	k, got, err := ParseReplRequest(pull.Encode())
	if err != nil || k != ReplPull || got != pull {
		t.Fatalf("pull round trip: kind %v, %+v, err %v", k, got, err)
	}
	if k, _, err := ParseReplRequest(EncodeStateRequest()); err != nil || k != ReplState {
		t.Fatalf("state request: kind %v, err %v", k, err)
	}
	if k, _, err := ParseReplRequest(EncodeFrontierRequest()); err != nil || k != ReplFrontier {
		t.Fatalf("frontier request: kind %v, err %v", k, err)
	}
	if _, _, err := ParseReplRequest(nil); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, _, err := ParseReplRequest([]byte{99}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, _, err := ParseReplRequest([]byte{byte(ReplPull), 1, 2}); err == nil {
		t.Fatal("short pull accepted")
	}
}

func TestReplResponseRoundTrips(t *testing.T) {
	pr := PullResponse{
		Status: StatusOK, ResumeLSN: 12, End: 20,
		Records: []durable.Record{
			{Session: 1, Seq: 2, Shard: 3, Kind: durable.OpRegAdd, Arg: -4, Val: 5, Ver: 6, Epoch: 2, OK: true},
			{Session: 7, Seq: 8, Shard: 0, Kind: durable.OpRegSet, Arg: 9, Val: 9, Ver: 10, OK: true},
			{Session: 9, Seq: 1, Shard: 2, Kind: durable.OpMapCAS, Obj: "m", Key: "k",
				Arg: 7, Arg2: 3, Val: 4, Ver: 11, Epoch: 1},
			{Atomic: []durable.Record{
				{Session: 3, Seq: 4, Shard: 0, Kind: durable.OpQEnq, Obj: "q", Arg: 8, Val: 1, Ver: 12, OK: true},
				{Session: 3, Seq: 5, Shard: 1, Kind: durable.OpRegSet, Obj: "r", Arg: 5, Val: 5, Ver: 2, OK: true},
			}},
		},
	}
	got, err := ParsePullResponse(pr.Encode())
	if err != nil || !reflect.DeepEqual(got, pr) {
		t.Fatalf("pull response round trip:\n got %+v\nwant %+v\nerr %v", got, pr, err)
	}
	pruned := PullResponse{Status: StatusOK, Pruned: true, ResumeLSN: 3, End: 40}
	if got, err := ParsePullResponse(pruned.Encode()); err != nil || !reflect.DeepEqual(got, pruned) {
		t.Fatalf("pruned response round trip: %+v, err %v", got, err)
	}
	if _, err := ParsePullResponse([]byte{0, 0, 0}); err == nil {
		t.Fatal("short pull response accepted")
	}

	st := StateResponse{Status: StatusOK, ResumeLSN: 33, Image: []byte("img")}
	if got, err := ParseStateResponse(st.Encode()); err != nil || !reflect.DeepEqual(got, st) {
		t.Fatalf("state response round trip: %+v, err %v", got, err)
	}

	fr := FrontierResponse{Status: StatusOK, Vers: []uint64{0, 9, 4}, Epochs: []uint64{0, 2, 1}}
	if got, err := ParseFrontierResponse(fr.Encode()); err != nil || !reflect.DeepEqual(got, fr) {
		t.Fatalf("frontier response round trip: %+v, err %v", got, err)
	}
}

func TestReplFrameLimitExceedsClientLimit(t *testing.T) {
	// A state image larger than the client-dialect MaxFrame must travel
	// on the repl framing.
	payload := make([]byte, MaxFrame+1)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err == nil {
		t.Fatal("client framing accepted an oversized payload")
	}
	if err := WriteReplFrame(&buf, payload); err != nil {
		t.Fatalf("repl framing rejected a state-sized payload: %v", err)
	}
	got, err := ReadReplFrame(&buf)
	if err != nil || len(got) != len(payload) {
		t.Fatalf("repl frame round trip: %d bytes, err %v", len(got), err)
	}
}
