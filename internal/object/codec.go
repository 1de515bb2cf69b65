package object

import (
	"encoding/binary"
	"fmt"
)

// Table codec: the deterministic byte image of a shard's named-object
// table, embedded in durable snapshots and replication state images.
// Objects are emitted in strictly ascending name order and map keys in
// strictly ascending key order, so two equal tables encode to identical
// bytes (state-image comparison relies on this).
//
// Layout (big-endian, matching the WAL codec):
//
//	[u32 objectCount]
//	per object, names strictly ascending (the zero-length name, which
//	the durable layer reserves for a shard's root register, sorts first):
//	  [u8 nameLen][name][u8 type]
//	  register: [8 value]
//	  map:      [u32 n] then per key, strictly ascending: [u16 keyLen][key][8 value]
//	  queue:    [u32 n] then n × [8 value]
//	  snapshot: [u16 slots] then slots × [8 value]

// AppendTable appends the table image of objs to dst.
func AppendTable(dst []byte, objs Table) []byte {
	names := objs.SortedKeys()
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(names)))
	for _, n := range names {
		s, _ := objs.Get(n)
		dst = append(dst, byte(len(n)))
		dst = append(dst, n...)
		dst = append(dst, byte(s.Type))
		switch s.Type {
		case TypeRegister:
			dst = binary.BigEndian.AppendUint64(dst, uint64(s.Reg))
		case TypeMap:
			keys := s.M.SortedKeys()
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(keys)))
			for _, k := range keys {
				v, _ := s.M.Get(k)
				dst = binary.BigEndian.AppendUint16(dst, uint16(len(k)))
				dst = append(dst, k...)
				dst = binary.BigEndian.AppendUint64(dst, uint64(v))
			}
		case TypeQueue:
			dst = binary.BigEndian.AppendUint32(dst, uint32(s.Q.Len()))
			for i := 0; i < s.Q.Len(); i++ {
				dst = binary.BigEndian.AppendUint64(dst, uint64(s.Q.At(i)))
			}
		case TypeSnapshot:
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(s.Slots)))
			for _, v := range s.Slots {
				dst = binary.BigEndian.AppendUint64(dst, uint64(v))
			}
		}
	}
	return dst
}

// DecodeTable decodes a table image from the front of b, returning the
// table and the bytes consumed. Counts are validated against the
// remaining bytes before any allocation trusts them; names and keys
// must be strictly ascending (rejecting duplicates and pinning the
// deterministic layout).
func DecodeTable(b []byte) (Table, int, error) {
	pos := 0
	need := func(n int) error {
		if len(b)-pos < n {
			return fmt.Errorf("object: table image truncated at byte %d (need %d more)", pos, n)
		}
		return nil
	}
	if err := need(4); err != nil {
		return Table{}, 0, err
	}
	count := int(binary.BigEndian.Uint32(b[pos:]))
	pos += 4
	// Each object costs at least nameLen(1)+type(1)+payload(2).
	if count < 0 || count > (len(b)-pos)/4 {
		return Table{}, 0, fmt.Errorf("object: table count %d exceeds %d remaining bytes", count, len(b)-pos)
	}
	var objs Table
	prevName := ""
	for i := 0; i < count; i++ {
		if err := need(1); err != nil {
			return Table{}, 0, err
		}
		nameLen := int(b[pos])
		pos++
		if nameLen > MaxNameLen {
			return Table{}, 0, fmt.Errorf("object: name length %d exceeds %d", nameLen, MaxNameLen)
		}
		if err := need(nameLen + 1); err != nil {
			return Table{}, 0, err
		}
		name := string(b[pos : pos+nameLen])
		pos += nameLen
		if i > 0 && name <= prevName {
			return Table{}, 0, fmt.Errorf("object: table names not strictly ascending at %q", name)
		}
		prevName = name
		typ := Type(b[pos])
		pos++
		s := &State{Type: typ}
		switch typ {
		case TypeRegister:
			if err := need(8); err != nil {
				return Table{}, 0, err
			}
			s.Reg = int64(binary.BigEndian.Uint64(b[pos:]))
			pos += 8
		case TypeMap:
			if err := need(4); err != nil {
				return Table{}, 0, err
			}
			n := int(binary.BigEndian.Uint32(b[pos:]))
			pos += 4
			// Each entry costs at least keyLen(2)+key(1)+value(8).
			if n > (len(b)-pos)/11 {
				return Table{}, 0, fmt.Errorf("object: map %q count %d exceeds %d remaining bytes", name, n, len(b)-pos)
			}
			prevKey := ""
			for j := 0; j < n; j++ {
				if err := need(2); err != nil {
					return Table{}, 0, err
				}
				keyLen := int(binary.BigEndian.Uint16(b[pos:]))
				pos += 2
				if keyLen == 0 || keyLen > MaxKeyLen {
					return Table{}, 0, fmt.Errorf("object: key length %d outside (0,%d]", keyLen, MaxKeyLen)
				}
				if err := need(keyLen + 8); err != nil {
					return Table{}, 0, err
				}
				key := string(b[pos : pos+keyLen])
				pos += keyLen
				if j > 0 && key <= prevKey {
					return Table{}, 0, fmt.Errorf("object: map %q keys not strictly ascending at %q", name, key)
				}
				prevKey = key
				s.M.Put(key, int64(binary.BigEndian.Uint64(b[pos:])))
				pos += 8
			}
		case TypeQueue:
			if err := need(4); err != nil {
				return Table{}, 0, err
			}
			n := int(binary.BigEndian.Uint32(b[pos:]))
			pos += 4
			if n > (len(b)-pos)/8 {
				return Table{}, 0, fmt.Errorf("object: queue %q count %d exceeds %d remaining bytes", name, n, len(b)-pos)
			}
			for j := 0; j < n; j++ {
				s.Q.PushBack(int64(binary.BigEndian.Uint64(b[pos:])))
				pos += 8
			}
		case TypeSnapshot:
			if err := need(2); err != nil {
				return Table{}, 0, err
			}
			n := int(binary.BigEndian.Uint16(b[pos:]))
			pos += 2
			if n > MaxSnapSlots {
				return Table{}, 0, fmt.Errorf("object: snapshot %q slot count %d exceeds %d", name, n, MaxSnapSlots)
			}
			if err := need(8 * n); err != nil {
				return Table{}, 0, err
			}
			s.Slots = make([]int64, n)
			for j := range s.Slots {
				s.Slots[j] = int64(binary.BigEndian.Uint64(b[pos:]))
				pos += 8
			}
		default:
			return Table{}, 0, fmt.Errorf("object: unknown object type %d for %q", uint8(typ), name)
		}
		objs = objs.Set(name, s)
	}
	return objs, pos, nil
}
