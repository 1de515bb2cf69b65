package pmap

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// mod7 leaves three live hash bits: every key runs down the full
// thirteen bitmap levels as a chain of one-child nodes and ends in a
// collision list shared with every key of its residue.
type mod7 struct{}

func (mod7) Hash(x uint64) uint64 { return x % 7 }

// TestAgainstBuiltinMap drives a seeded Set/Delete/Get stream against a
// builtin map, once with the real hash and once with the degenerate
// one, and checks the three properties the core leans on: old versions
// never change, Len tracks, and shape depends on the key set alone.
func TestAgainstBuiltinMap(t *testing.T) {
	t.Run("real hash", testAgainstBuiltinMap[Uint64Hash])
	t.Run("degenerate hash", testAgainstBuiltinMap[mod7])
}

func testAgainstBuiltinMap[H Hasher[uint64]](t *testing.T) {
	type version struct {
		m    Map[uint64, int, H]
		want map[uint64]int
	}
	check := func(what string, v version) {
		t.Helper()
		if v.m.Len() != len(v.want) {
			t.Fatalf("%s: Len = %d, want %d", what, v.m.Len(), len(v.want))
		}
		for k, w := range v.want {
			if got, ok := v.m.Get(k); !ok || got != w {
				t.Fatalf("%s: Get(%d) = (%d,%v), want (%d,true)", what, k, got, ok, w)
			}
		}
		visited := 0
		v.m.Each(func(k uint64, got int) {
			visited++
			if w, ok := v.want[k]; !ok || got != w {
				t.Fatalf("%s: Each visited %d=%d, model has (%d,%v)", what, k, got, w, ok)
			}
		})
		if visited != len(v.want) {
			t.Fatalf("%s: Each visited %d entries, want %d", what, visited, len(v.want))
		}
		keys := v.m.SortedKeys()
		if len(keys) != len(v.want) || !slices.IsSorted(keys) {
			t.Fatalf("%s: SortedKeys = %v", what, keys)
		}
	}

	rng := rand.New(rand.NewSource(7))
	cur := version{want: map[uint64]int{}}
	var kept []version
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(600))
		switch r := rng.Intn(10); {
		case r < 5:
			cur.m = cur.m.Set(k, i)
			cur.want[k] = i
		case r < 8:
			cur.m = cur.m.Delete(k)
			delete(cur.want, k)
		default:
			got, ok := cur.m.Get(k)
			if w, present := cur.want[k]; ok != present || got != w {
				t.Fatalf("step %d: Get(%d) = (%d,%v), model has (%d,%v)", i, k, got, ok, w, present)
			}
		}
		if cur.m.Len() != len(cur.want) {
			t.Fatalf("step %d: Len = %d, want %d", i, cur.m.Len(), len(cur.want))
		}
		if i%2500 == 0 {
			kept = append(kept, version{cur.m, maps.Clone(cur.want)})
		}
	}
	check("final", cur)
	for i, v := range kept {
		check(fmt.Sprintf("version kept at step %d", i*2500), v)
	}

	// The same key set reached another way — shuffled inserts, with a
	// crowd of other keys set and deleted along the way — has the same
	// shape: it iterates identically and is structurally equal.
	keys := cur.m.SortedKeys()
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var other Map[uint64, int, H]
	for i, k := range keys {
		other = other.Set(uint64(1000+i), -1).Set(k, cur.want[k])
	}
	for i := range keys {
		other = other.Delete(uint64(1000 + i))
	}
	order := func(m Map[uint64, int, H]) (ks []uint64) {
		m.Each(func(k uint64, _ int) { ks = append(ks, k) })
		return ks
	}
	if a, b := order(cur.m), order(other); !slices.Equal(a, b) {
		t.Fatalf("equal key sets iterate differently:\n %v\n %v", a, b)
	}
	if !reflect.DeepEqual(cur.m, other) {
		t.Fatal("equal contents, different shape")
	}

	// Deleting everything returns to the zero Map.
	for _, k := range keys {
		other = other.Delete(k)
	}
	if other != (Map[uint64, int, H]{}) {
		t.Fatalf("emptied map is not the zero Map: %+v", other)
	}
}

var sink int64

func benchKeys(n int) (Map[string, int64, StringHash], []string) {
	var m Map[string, int64, StringHash]
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%06d", i)
		m = m.Set(keys[i], int64(i))
	}
	return m, keys
}

func BenchmarkSet(b *testing.B) {
	m, keys := benchKeys(16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = m.Set(keys[(i*7)%len(keys)], int64(i))
	}
	sink = int64(m.Len())
}

func BenchmarkGet(b *testing.B) {
	m, keys := benchKeys(16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(keys[(i*7)%len(keys)])
		sink += v
	}
}
