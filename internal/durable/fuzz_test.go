package durable

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRecordDecode hammers the WAL record and snapshot decoders with
// arbitrary bytes: they must never panic, never over-read, and never
// mis-decode — any record frame accepted must re-encode to the
// identical bytes (the encoding is canonical: fixed-width fields, no
// padding freedom). The seeds are one of each layout something writes
// (2, 8 on the root and on a named object, 9, 10) plus the six retired
// type bytes (1, 3, 4, 5, 6, 7), which must answer ErrFormat.
func FuzzRecordDecode(f *testing.F) {
	root := Record{Session: 7, Seq: 3, Shard: 2, Kind: OpRegAdd, Obj: RootName, Arg: -5, Val: 37, Ver: 12, Epoch: 1, OK: true}
	obj := Record{Session: 7, Seq: 4, Shard: 1, Kind: OpMapCAS, Arg: 6, Arg2: 5, Val: 6, Ver: 13, OK: true, Obj: "m", Key: "k"}
	f.Add(encodeOp(root))
	f.Add(encodeOp(obj))
	f.Add(encodeOp(Record{Atomic: []Record{root, obj}}))
	f.Add(encodeRestart())
	f.Add(appendFrame(nil, encodeSnapshot(9, 1, map[uint32]ShardState{2: withRoot(ShardState{Ver: 8,
		Dedup: dedupOf(map[uint64]DedupEntry{7: {Seq: 3, Val: 80, Ver: 8, OK: true}})}, 80)})))
	for _, retired := range []byte{1, 3, 4, 5, 6, 7} {
		body := EncodeRecordBody(root)
		body[0] = retired
		f.Add(appendFrame(nil, body))
	}
	f.Add(encodeOp(Record{Kind: OpRegAdd, Val: 1, Ver: 1, OK: true})[:20]) // torn body
	f.Add([]byte{0, 0, 0, 1, 0xba, 0xdc, 0x0f, 0xee, 0x01})                // bad CRC
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 1, 2, 3})          // absurd length
	f.Add(bytes.Repeat(encodeRestart(), 3))                                // several frames

	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the input like segment replay does, stopping at the
		// first torn or corrupt frame.
		off := 0
		for off < len(data) {
			body, sz, err := decodeFrame(data[off:], maxBody)
			if err != nil {
				if !errors.Is(err, errTorn) && !errors.Is(err, errCorrupt) {
					t.Fatalf("decodeFrame: untyped error %v", err)
				}
				return
			}
			if sz <= 0 || off+sz > len(data) {
				t.Fatalf("decodeFrame consumed %d of %d available bytes", sz, len(data)-off)
			}
			if _, _, _, err := decodeSnapshot(body); err != nil && !errors.Is(err, errCorrupt) && !errors.Is(err, ErrFormat) {
				t.Fatalf("decodeSnapshot: untyped error %v", err)
			}
			rec, isRestart, err := parseBody(body)
			known := body[0] == recTypeRestart || body[0] == recTypeObjOp || body[0] == recTypeAtomic || body[0] == recTypeSnapshot
			if !known && !errors.Is(err, ErrFormat) {
				t.Fatalf("parseBody(type %d) = %v, want ErrFormat", body[0], err)
			}
			if err != nil {
				if !errors.Is(err, errCorrupt) && !errors.Is(err, ErrFormat) {
					t.Fatalf("parseBody: untyped error %v", err)
				}
				return
			}
			var re []byte
			if isRestart {
				re = encodeRestart()
			} else {
				re = encodeOp(rec)
			}
			if !bytes.Equal(re, data[off:off+sz]) {
				t.Fatalf("decode/encode mismatch at offset %d:\n got %x\nfrom %x", off, re, data[off:off+sz])
			}
			off += sz
		}
	})
}
