package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// allKinds is every request kind with a representative op: control and
// root-register kinds carry no name, map kinds carry a key.
func allKinds() []Request {
	var reqs []Request
	for k := KindPing; k <= KindSnapScan; k++ {
		r := Request{ID: uint64(k), Kind: k, Shard: 3, Arg: -42, Session: 9, Seq: 11}
		if k.IsObject() {
			r.Obj, r.Arg2 = "orders", 1<<40
		}
		if k >= KindMapGet && k <= KindMapDel {
			r.Key = "user:1234"
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// isMutation reports the kinds an atomic group may carry.
func isMutation(k Kind) bool {
	return !k.IsRead() && k != KindPing && k != KindStats
}

// TestEveryKindEveryFrame sends every kind through the single-op and
// pipeline frames, and every mutation kind through the atomic frame.
func TestEveryKindEveryFrame(t *testing.T) {
	var all, muts []Request
	for _, r := range allKinds() {
		if r.Kind.String() == "" || strings.HasPrefix(r.Kind.String(), "kind(") {
			t.Fatalf("kind %d has no name", r.Kind)
		}
		b, err := EncodeObjRequest(r)
		if err != nil {
			t.Fatalf("%v: encode: %v", r.Kind, err)
		}
		f, err := ParseRequestFrame(b)
		if err != nil || f.Batched || f.Atomic || len(f.Reqs) != 1 || !reflect.DeepEqual(f.Reqs[0], r) {
			t.Fatalf("%v: 0xC0 round trip: %+v err %v", r.Kind, f, err)
		}
		all = append(all, r)
		if isMutation(r.Kind) {
			muts = append(muts, r)
		}
	}
	if len(all) != 18 || len(muts) != 11 {
		t.Fatalf("kind census drifted: %d kinds, %d mutations", len(all), len(muts))
	}
	for _, tc := range []struct {
		reqs   []Request
		atomic bool
	}{{all, false}, {muts, true}} {
		b, err := ObjBatch{Reqs: tc.reqs, Atomic: tc.atomic}.Encode()
		if err != nil {
			t.Fatalf("atomic=%v: encode: %v", tc.atomic, err)
		}
		f, err := ParseRequestFrame(b)
		if err != nil || !f.Batched || f.Atomic != tc.atomic || !reflect.DeepEqual(f.Reqs, tc.reqs) {
			t.Fatalf("atomic=%v: round trip: %+v err %v", tc.atomic, f, err)
		}
	}
}

// TestRequestExtremes: numeric fields survive at their limits.
func TestRequestExtremes(t *testing.T) {
	for _, want := range []Request{
		{ID: 0, Kind: KindPing},
		{ID: 1<<64 - 1, Kind: KindSet, Shard: 1<<32 - 1, Arg: -1 << 62},
		{ID: 11, Kind: KindSet, Arg: 5, Session: 1<<64 - 1, Seq: 1<<64 - 1},
		{ID: 12, Kind: KindMapCAS, Obj: strings.Repeat("n", 64), Key: strings.Repeat("k", 512), Arg2: -1 << 63},
	} {
		b, err := EncodeObjRequest(want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
		f, err := ReadRequestFrame(&buf)
		if err != nil || len(f.Reqs) != 1 || f.Reqs[0] != want {
			t.Errorf("round trip: got %+v err %v, want %+v", f, err, want)
		}
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	in := BatchResponse{Resps: []Response{
		{ID: 1, Status: StatusOK, Value: 5},
		{ID: 2, Status: StatusOK, Flags: FlagDuplicate, Value: 5},
		{ID: 3, Status: StatusBadShard, Data: []byte("shard 9 out of range")},
	}}
	out, err := ParseBatchResponse(in.Encode())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestEncodingRejectsBadFields(t *testing.T) {
	cases := []struct {
		name string
		r    Request
	}{
		{"object kind without name", Request{Kind: KindRegGet}},
		{"name over cap", Request{Kind: KindRegGet, Obj: strings.Repeat("n", 65)}},
		{"key over cap", Request{Kind: KindMapGet, Obj: "m", Key: strings.Repeat("k", 513)}},
		{"root kind with name", Request{Kind: KindAdd, Obj: "x"}},
		{"root kind with key", Request{Kind: KindSet, Key: "x"}},
		{"root kind with arg2", Request{Kind: KindGet, Arg2: 1}},
	}
	for _, c := range cases {
		if _, err := EncodeObjRequest(c.r); err == nil {
			t.Errorf("%s: encode accepted", c.name)
		}
		if _, err := (ObjBatch{Reqs: []Request{c.r}}).Encode(); err == nil {
			t.Errorf("%s: batch encode accepted", c.name)
		}
	}
	if _, err := (ObjBatch{}).Encode(); err == nil {
		t.Error("empty batch encode accepted")
	}
	big := make([]Request, MaxAtomicOps+1)
	for i := range big {
		big[i] = Request{Kind: KindRegAdd, Obj: "r", Arg: 1}
	}
	if _, err := (ObjBatch{Reqs: big, Atomic: true}).Encode(); err == nil {
		t.Error("oversized atomic group accepted")
	}
	if _, err := (ObjBatch{Reqs: big}).Encode(); err != nil {
		t.Errorf("pipeline of %d ops rejected: %v", len(big), err)
	}
}

// TestParseRejectsMalformedFrames: every way a request payload can lie
// about itself is refused, and so are the retired kx03 (plain 37-byte)
// and kx04 (0xB4 batch) request shapes.
func TestParseRejectsMalformedFrames(t *testing.T) {
	good, err := EncodeObjRequest(Request{Kind: KindRegSet, Obj: "r", Arg: 1})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := (ObjBatch{Reqs: []Request{{Kind: KindRegSet, Obj: "r"}}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	overdeclared := append([]byte(nil), pipe...)
	overdeclared[2] = 2 // count 1 -> 2
	overAtomic := []byte{atomicMarker, 0, 0}
	binary.BigEndian.PutUint16(overAtomic[1:], MaxAtomicOps+1)

	// One kx03 add: id, kind, shard, arg, session, seq — no marker.
	kx03 := make([]byte, 37)
	binary.BigEndian.PutUint64(kx03[0:], 1)
	kx03[8] = byte(KindAdd)
	binary.BigEndian.PutUint64(kx03[13:], 1)
	// The kx04 batch of that op: 0xB4, u32 count, then the op.
	kx04 := append([]byte{0xB4, 0, 0, 0, 1}, kx03...)
	// A kx03 payload whose ID happens to open with 0xC0 takes the
	// single-op path and is refused there as a truncated op.
	kx03marked := append([]byte(nil), kx03...)
	kx03marked[0] = reqMarker

	for name, b := range map[string][]byte{
		"empty payload":            nil,
		"unknown marker":           {0xEE, 1, 2, 3},
		"response marker":          BatchResponse{Resps: []Response{{ID: 1}}}.Encode(),
		"trailing byte":            append(append([]byte(nil), good...), 0),
		"truncated name":           good[:len(good)-1],
		"truncated header":         {reqMarker, 1, 2, 3, 4},
		"pipeline without a count": {pipelineMarker, 0},
		"empty pipeline":           {pipelineMarker, 0, 0},
		"count beyond MaxBatchOps": {pipelineMarker, 0xff, 0xff},
		"count beyond MaxAtomic":   overAtomic,
		"overdeclared pipeline":    overdeclared,
		"pipeline trailing byte":   append(append([]byte(nil), pipe...), 0),
		"kx03 plain request":       kx03,
		"kx03 with marker-like id": kx03marked,
		"kx04 0xB4 batch":          kx04,
	} {
		if f, err := ParseRequestFrame(b); err == nil {
			t.Errorf("%s accepted: %+v", name, f)
		}
	}
}

func TestBatchResponseBounds(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty batch":     {batchRespMarker, 0, 0, 0, 0},
		"oversized count": {batchRespMarker, 0xff, 0xff, 0xff, 0xff},
		"request marker":  {pipelineMarker, 0, 0, 0, 1},
		"trailing byte":   append(BatchResponse{Resps: []Response{{ID: 1}}}.Encode(), 0),
	} {
		if _, err := ParseBatchResponse(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestWriteBatchResponsesSplits: a response set too large for one frame
// is split across several, preserving order and count.
func TestWriteBatchResponsesSplits(t *testing.T) {
	big := make([]byte, MaxFrame/3)
	resps := []Response{
		{ID: 1, Status: StatusOK, Data: big},
		{ID: 2, Status: StatusOK, Data: big},
		{ID: 3, Status: StatusOK, Data: big},
		{ID: 4, Status: StatusOK},
	}
	var buf bytes.Buffer
	if err := WriteBatchResponses(&buf, resps); err != nil {
		t.Fatalf("write: %v", err)
	}
	var got []Response
	frames := 0
	for buf.Len() > 0 {
		br, err := ReadBatchResponse(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		got = append(got, br.Resps...)
		frames++
	}
	if frames < 2 {
		t.Errorf("expected a split, got %d frame(s)", frames)
	}
	if len(got) != len(resps) {
		t.Fatalf("got %d responses, want %d", len(got), len(resps))
	}
	for i := range resps {
		if got[i].ID != resps[i].ID {
			t.Errorf("response %d: id %d, want %d", i, got[i].ID, resps[i].ID)
		}
	}
}

func TestSlotsRoundTrip(t *testing.T) {
	slots := []int64{0, -1, 1 << 50, 42}
	got, err := DecodeSlots(EncodeSlots(slots))
	if err != nil || !reflect.DeepEqual(got, slots) {
		t.Fatalf("slots round trip: %v err %v", got, err)
	}
	if _, err := DecodeSlots(make([]byte, 7)); err == nil {
		t.Error("ragged slots payload accepted")
	}
}

// TestFramingGolden pins the framing byte for byte — the hello, the
// three request frames and both response frames. A change here is a
// protocol change and must bump Magic.
func TestFramingGolden(t *testing.T) {
	hexOf := func(b []byte, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(b)
	}
	add := Request{ID: 0x0102030405060708, Kind: KindAdd, Shard: 7, Arg: -2,
		Session: 0xAABB, Seq: 9}
	const wantAdd = "0102030405060708" + "03" + "00000007" +
		"fffffffffffffffe" + "000000000000aabb" + "0000000000000009" +
		"0000000000000000" + "00" + "0000"
	cas := Request{ID: 2, Kind: KindMapCAS, Shard: 1, Arg: 5, Session: 0xAABB,
		Seq: 10, Arg2: 4, Obj: "m", Key: "k1"}
	const wantCAS = "0000000000000002" + "0c" + "00000001" +
		"0000000000000005" + "000000000000aabb" + "000000000000000a" +
		"0000000000000004" + "01" + "0002" + "6d" + "6b31"

	if got := hexOf(EncodeObjRequest(add)); got != "c0"+wantAdd {
		t.Errorf("single-op frame drifted:\n got  %s\n want %s", got, "c0"+wantAdd)
	}
	if got := hexOf(EncodeObjRequest(cas)); got != "c0"+wantCAS {
		t.Errorf("single-op object frame drifted:\n got  %s\n want %s", got, "c0"+wantCAS)
	}
	if got, want := hexOf(ObjBatch{Reqs: []Request{add, cas}}.Encode()), "c1"+"0002"+wantAdd+wantCAS; got != want {
		t.Errorf("pipeline frame drifted:\n got  %s\n want %s", got, want)
	}
	if got, want := hexOf(ObjBatch{Reqs: []Request{add, cas}, Atomic: true}.Encode()), "c2"+"0002"+wantAdd+wantCAS; got != want {
		t.Errorf("atomic frame drifted:\n got  %s\n want %s", got, want)
	}

	resp := Response{ID: 0x0102030405060708, Status: StatusOK,
		Flags: FlagDuplicate, Value: 40}
	const wantResp = "0102030405060708" + "00" + "01" +
		"0000000000000028" + "00000000"
	if got := hex.EncodeToString(resp.Encode()); got != wantResp {
		t.Errorf("response drifted:\n got  %s\n want %s", got, wantResp)
	}
	refusal := Response{ID: 3, Status: StatusBadShard, Data: []byte("no")}
	const wantRefusal = "0000000000000003" + "03" + "00" +
		"0000000000000000" + "00000002" + "6e6f"
	wantBatch := "b5" + "00000002" + "00000016" + wantResp + "00000018" + wantRefusal
	if got := hex.EncodeToString(BatchResponse{Resps: []Response{resp, refusal}}.Encode()); got != wantBatch {
		t.Errorf("batch response drifted:\n got  %s\n want %s", got, wantBatch)
	}
	var framed bytes.Buffer
	if err := WriteBatchResponses(&framed, []Response{resp, refusal}); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(framed.Bytes()), "0000003b"+wantBatch; got != want {
		t.Errorf("framed batch response drifted:\n got  %s\n want %s", got, want)
	}

	h := Hello{Status: StatusOK, Identity: 2, N: 8, K: 2, Shards: 4}
	const wantHello = "6b783036" + "00" + "00000002" + "00000008" +
		"00000002" + "00000004" + "00000000" + "00000000"
	if got := hex.EncodeToString(h.Encode()); got != wantHello {
		t.Errorf("hello drifted:\n got  %s\n want %s", got, wantHello)
	}
}

// FuzzRequestFrame hammers both decoders a peer can reach: no input may
// panic or over-allocate, and anything that parses must re-encode to an
// equivalent frame (encode/decode form a closed loop).
func FuzzRequestFrame(f *testing.F) {
	for _, r := range allKinds() {
		b, err := EncodeObjRequest(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for _, atomic := range []bool{false, true} {
			ob, err := ObjBatch{Reqs: []Request{r, r}, Atomic: atomic}.Encode()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(ob)
		}
	}
	f.Add(BatchResponse{Resps: []Response{{ID: 1, Status: StatusOK, Value: 9}}}.Encode())
	f.Add(BatchResponse{Resps: []Response{{ID: 2, Status: StatusBusy, Data: []byte("shed")}}}.Encode())
	f.Add([]byte{pipelineMarker, 0xff, 0xff})
	f.Add([]byte{batchRespMarker, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		if frame, err := ParseRequestFrame(b); err == nil {
			var reenc []byte
			if frame.Batched {
				reenc, err = ObjBatch{Reqs: frame.Reqs, Atomic: frame.Atomic}.Encode()
			} else {
				reenc, err = EncodeObjRequest(frame.Reqs[0])
			}
			if err != nil {
				t.Fatalf("parsed frame failed to re-encode: %v", err)
			}
			if !bytes.Equal(reenc, b) {
				t.Fatalf("request encoding is not canonical: %x re-encodes to %x", b, reenc)
			}
		}
		if br, err := ParseBatchResponse(b); err == nil {
			if reenc := br.Encode(); !bytes.Equal(reenc, b) {
				t.Fatalf("batch response encoding is not canonical: %x re-encodes to %x", b, reenc)
			}
		}
	})
}
