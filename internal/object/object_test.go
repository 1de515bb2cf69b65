package object

import (
	"bytes"
	"fmt"
	"testing"
)

func TestDequeFIFO(t *testing.T) {
	var d Deque[int64]
	const n = 1000
	for i := int64(0); i < n; i++ {
		d.PushBack(i)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i := int64(0); i < n; i++ {
		if got := d.At(int(i)); got != i {
			t.Fatalf("At(%d) = %d, want %d", i, got, i)
		}
	}
	for i := int64(0); i < n; i++ {
		v, ok := d.PopFront()
		if !ok || v != i {
			t.Fatalf("PopFront #%d = (%d,%v), want (%d,true)", i, v, ok, i)
		}
	}
	if _, ok := d.PopFront(); ok {
		t.Fatal("PopFront on empty deque reported ok")
	}
	if d.Len() != 0 {
		t.Fatalf("Len after drain = %d", d.Len())
	}
}

func TestDequeInterleaved(t *testing.T) {
	var d Deque[int64]
	next, expect := int64(0), int64(0)
	for round := 0; round < 500; round++ {
		for i := 0; i < 3; i++ {
			d.PushBack(next)
			next++
		}
		for i := 0; i < 2; i++ {
			v, ok := d.PopFront()
			if !ok || v != expect {
				t.Fatalf("round %d: PopFront = (%d,%v), want (%d,true)", round, v, ok, expect)
			}
			expect++
		}
	}
	for d.Len() > 0 {
		v, _ := d.PopFront()
		if v != expect {
			t.Fatalf("drain: got %d, want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained to %d, pushed %d", expect, next)
	}
}

// TestDequeCloneIsolation drives the exact resilient.Shared usage:
// clone a committed deque several times, mutate each clone, and check
// no clone's mutations leak into the original or a sibling.
func TestDequeCloneIsolation(t *testing.T) {
	var base Deque[int64]
	for i := int64(0); i < 100; i++ { // crosses a chunk boundary at 64
		base.PushBack(i)
	}
	snap := func(d *Deque[int64]) []int64 {
		out := make([]int64, d.Len())
		for i := range out {
			out[i] = d.At(i)
		}
		return out
	}
	want := snap(&base)

	a := base.Clone()
	b := base.Clone()
	a.PushBack(1000) // must copy the shared back chunk, not write it
	a.PushBack(1001)
	if v, _ := b.PopFront(); v != 0 {
		t.Fatalf("b.PopFront = %d, want 0", v)
	}
	b.PushBack(2000)

	if got := snap(&base); !equal(got, want) {
		t.Fatalf("original changed by clone mutations:\n got %v\nwant %v", got, want)
	}
	if a.Len() != 102 || a.At(100) != 1000 || a.At(101) != 1001 || a.At(0) != 0 {
		t.Fatalf("clone a wrong: len=%d", a.Len())
	}
	if b.Len() != 100 || b.At(0) != 1 || b.At(99) != 2000 {
		t.Fatalf("clone b wrong: len=%d", b.Len())
	}

	// Chained clones: mutate a clone of a clone.
	c := a.Clone()
	c.PushBack(3000)
	if a.Len() != 102 {
		t.Fatalf("a grew when its clone pushed: len=%d", a.Len())
	}
	if c.At(102) != 3000 {
		t.Fatal("c missing its own push")
	}
}

func TestDequeEmptyCloneAndReset(t *testing.T) {
	var d Deque[int64]
	c := d.Clone()
	c.PushBack(1)
	if d.Len() != 0 || c.Len() != 1 {
		t.Fatalf("empty-clone isolation broken: %d/%d", d.Len(), c.Len())
	}
	// Drain to empty, then reuse.
	c.PopFront()
	c.PushBack(7)
	if v, ok := c.PopFront(); !ok || v != 7 {
		t.Fatalf("reuse after drain = (%d,%v)", v, ok)
	}
}

func TestMapBasics(t *testing.T) {
	var m Map
	if _, ok := m.Get("x"); ok {
		t.Fatal("empty map Get reported ok")
	}
	m.Put("a", 1)
	m.Put("b", 2)
	m.Put("a", 3)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.Get("a"); !ok || v != 3 {
		t.Fatalf("Get(a) = (%d,%v)", v, ok)
	}
	if old, ok := m.Delete("a"); !ok || old != 3 {
		t.Fatalf("Delete(a) = (%d,%v)", old, ok)
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if _, ok := m.Delete("missing"); ok {
		t.Fatal("Delete(missing) reported ok")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestMapCloneIsolation(t *testing.T) {
	var base Map
	for i := 0; i < 300; i++ {
		base.Put(fmt.Sprintf("key-%03d", i), int64(i))
	}
	a := base.Clone()
	b := base.Clone()
	a.Put("key-000", 999)
	a.Delete("key-001")
	b.Put("new", 1)

	if v, _ := base.Get("key-000"); v != 0 {
		t.Fatalf("original key-000 = %d, want 0", v)
	}
	if _, ok := base.Get("key-001"); !ok {
		t.Fatal("original lost key-001")
	}
	if _, ok := base.Get("new"); ok {
		t.Fatal("original gained clone b's key")
	}
	if v, _ := a.Get("key-000"); v != 999 {
		t.Fatal("clone a lost its put")
	}
	if _, ok := a.Get("new"); ok {
		t.Fatal("clone a sees clone b's key")
	}
	if base.Len() != 300 || a.Len() != 299 || b.Len() != 301 {
		t.Fatalf("lens: base=%d a=%d b=%d", base.Len(), a.Len(), b.Len())
	}
}

func TestTableCodecRoundTrip(t *testing.T) {
	objs := map[string]*State{
		"":        {Type: TypeRegister, Reg: 9}, // the zero-length name sorts first
		"counter": {Type: TypeRegister, Reg: -42},
		"kv":      New(TypeMap, 0),
		"jobs":    New(TypeQueue, 0),
		"snap":    New(TypeSnapshot, 4),
	}
	objs["kv"].M.Put("alpha", 1)
	objs["kv"].M.Put("beta", -2)
	for i := int64(0); i < 70; i++ {
		objs["jobs"].Q.PushBack(i * 3)
	}
	objs["snap"].Slots[2] = 77

	b := AppendTable(nil, tableOf(objs))
	// Determinism: re-encoding a decoded table yields identical bytes.
	got, n, err := DecodeTable(b)
	if err != nil {
		t.Fatalf("DecodeTable: %v", err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if !bytes.Equal(AppendTable(nil, got), b) {
		t.Fatal("re-encode of decoded table differs")
	}
	if at(got, "counter").Reg != -42 || at(got, "").Reg != 9 {
		t.Fatal("register lost")
	}
	if v, ok := at(got, "kv").M.Get("beta"); !ok || v != -2 {
		t.Fatal("map entry lost")
	}
	if at(got, "jobs").Q.Len() != 70 || at(got, "jobs").Q.At(69) != 69*3 {
		t.Fatal("queue lost")
	}
	if at(got, "snap").Slots[2] != 77 || len(at(got, "snap").Slots) != 4 {
		t.Fatal("snapshot slots lost")
	}

	// Empty table round-trips too.
	eb := AppendTable(nil, Table{})
	em, n, err := DecodeTable(eb)
	if err != nil || n != len(eb) || em.Len() != 0 {
		t.Fatalf("empty table: %v %d %d", err, n, em.Len())
	}
}

func TestTableCodecRejectsGarbage(t *testing.T) {
	objs := map[string]*State{"a": {Type: TypeRegister, Reg: 1}, "b": {Type: TypeRegister, Reg: 2}}
	good := AppendTable(nil, tableOf(objs))
	cases := [][]byte{
		good[:len(good)-1],          // truncated payload
		good[:3],                    // truncated count
		{0xff, 0xff, 0xff, 0xff},    // absurd count vs body
		{0, 0, 0, 1, 0},             // zero-length name, nothing after it
		{0, 0, 0, 1, 1, 'x', 99, 0}, // unknown type
	}
	for i, c := range cases {
		if _, _, err := DecodeTable(c); err == nil {
			t.Fatalf("case %d: garbage decoded without error", i)
		}
	}
	// Names out of order (duplicate) must be rejected, the zero-length
	// name included.
	for _, name := range []string{"a", ""} {
		dup := AppendTable(nil, tableOf(map[string]*State{name: {Type: TypeRegister}}))
		dup = append(dup, AppendTable(nil, tableOf(map[string]*State{name: {Type: TypeRegister}}))[4:]...)
		// Patch the count to 2.
		dup[3] = 2
		if _, _, err := DecodeTable(dup); err == nil {
			t.Fatalf("duplicate name %q decoded without error", name)
		}
	}
}

func TestStateClone(t *testing.T) {
	s := New(TypeSnapshot, 3)
	s.Slots[1] = 5
	c := s.Clone()
	c.Slots[1] = 9
	if s.Slots[1] != 5 {
		t.Fatal("slot mutation leaked into original")
	}
}

// tableOf builds a Table from a map literal.
func tableOf(objs map[string]*State) (t Table) {
	for name, s := range objs {
		t = t.Set(name, s)
	}
	return t
}

// at is the object bound to name, nil if there is none.
func at(t Table, name string) *State {
	s, _ := t.Get(name)
	return s
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
