package object

import (
	"fmt"
	"testing"
)

var benchSizes = []struct {
	name string
	keys int
}{{"1k", 1 << 10}, {"64k", 1 << 16}, {"1M", 1 << 20}}

var benchMaps = map[int]Map{}

// benchMap builds (once per size) a map holding benchKey(0..keys-1).
func benchMap(keys int) Map {
	if m, ok := benchMaps[keys]; ok {
		return m
	}
	var m Map
	for i := 0; i < keys; i++ {
		m.Put(benchKey(i), int64(i))
	}
	benchMaps[keys] = m
	return m
}

func benchKey(i int) string { return fmt.Sprintf("k%07d", i) }

// probeKeys is 1024 existing keys spread over the map, formatted
// before the timed loop.
func probeKeys(keys int) []string {
	out := make([]string, 1024)
	for i := range out {
		out[i] = benchKey((i * 7919) % keys)
	}
	return out
}

var sinkValue int64

func BenchmarkMapPut(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			m, probe := benchMap(sz.keys).Clone(), probeKeys(sz.keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Put(probe[i%len(probe)], int64(i))
			}
			sinkValue = int64(m.Len())
		})
	}
}

func BenchmarkMapGet(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			m, probe := benchMap(sz.keys), probeKeys(sz.keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := m.Get(probe[i%len(probe)])
				sinkValue += v
			}
		})
	}
}
