package durable

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kexclusion/internal/object"
)

// benchShapes are the state sizes the per-op costs are on record for:
// dedup sessions × named objects, the first object a map of mapKeys
// keys (the target of every benchmarked put), the rest registers.
var benchShapes = []struct {
	name                       string
	sessions, objects, mapKeys int
}{
	{"2sess_3obj_1kkeys", 2, 3, 1 << 10},
	{"1024sess_64obj_1kkeys", 1024, 64, 1 << 10},
	{"1024sess_64obj_100kkeys", 1024, 64, 100_000},
}

const benchWindow = 1024

var benchStates = map[string]ShardState{}

// benchState builds (once per shape) a state of the given size; its
// sessions are 1..sessions and its map keys benchKey(0..mapKeys-1).
func benchState(name string, sessions, objects, mapKeys int) ShardState {
	if st, ok := benchStates[name]; ok {
		return st
	}
	var st ShardState
	StepOp(&st, benchWindow, 0, 0, Op{Kind: OpCreate, Obj: "map:0", Arg: int64(object.TypeMap)})
	for i := 1; i < objects; i++ {
		StepOp(&st, benchWindow, 0, 0, Op{Kind: OpCreate, Obj: fmt.Sprintf("reg:%d", i), Arg: int64(object.TypeRegister)})
	}
	for i := 0; i < mapKeys; i++ {
		StepOp(&st, benchWindow, 0, 0, Op{Kind: OpMapPut, Obj: "map:0", Key: benchKey(i), Arg: int64(i)})
	}
	for s := 1; s <= sessions; s++ {
		StepOp(&st, benchWindow, uint64(s), 1, rootAdd(1))
	}
	benchStates[name] = st
	return st
}

func benchKey(i int) string { return fmt.Sprintf("k%06d", i) }

var (
	sinkState   ShardState
	sinkOutcome Outcome
)

func BenchmarkClone(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			st := benchState(sh.name, sh.sessions, sh.objects, sh.mapKeys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkState = st.Clone()
			}
		})
	}
}

// BenchmarkStepOp is one op as the universal construction runs it:
// clone the committed state, step the clone, publish it. The op is a
// map put by a session the window already holds.
func BenchmarkStepOp(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			st := benchState(sh.name, sh.sessions, sh.objects, sh.mapKeys)
			prev, _ := st.Dedup.Get(1)
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = benchKey((i * 97) % sh.mapKeys)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := st.Clone()
				sinkOutcome = StepOp(&c, benchWindow, 1, prev.Seq+1+uint64(i),
					Op{Kind: OpMapPut, Obj: "map:0", Key: keys[i%len(keys)], Arg: int64(i)})
				st = c
			}
		})
	}
}

// BenchmarkStepRun is the large-state set-up's unit of work — one
// session's pipelined burst of DedupDepth map puts on one shard of 1024
// sessions, 64 objects and 16 384 keys — stepped as one run (one clone
// of the state and of the map, one dedup write) and as that many
// StepOps, each on its own clone. Both report per op.
func BenchmarkStepRun(b *testing.B) {
	st := benchState("1024sess_64obj_16kkeys", 1024, 64, 1<<14)
	prev, _ := st.Dedup.Get(1)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = benchKey((i * 97) % (1 << 14))
	}
	put := func(i int) Op { return Op{Kind: OpMapPut, Obj: "map:0", Key: keys[i%len(keys)], Arg: int64(i)} }
	for _, mode := range []string{"run", "one-by-one"} {
		b.Run(mode, func(b *testing.B) {
			s, seq := st, prev.Seq
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += DedupDepth {
				burst := min(DedupDepth, b.N-i)
				if mode == "run" {
					c := s.Clone()
					r := NewRun(benchWindow)
					for j := 0; j < burst; j++ {
						seq++
						sinkOutcome = r.Step(&c, 1, seq, put(i+j))
					}
					r.End(&c)
					s = c
					continue
				}
				for j := 0; j < burst; j++ {
					seq++
					c := s.Clone()
					sinkOutcome = StepOp(&c, benchWindow, 1, seq, put(i+j))
					s = c
				}
			}
		})
	}
}

// BenchmarkStepOpEvict is the cost evictOldest leaves on the books:
// every op comes from a session new to a full window, so every op
// scans the window for its oldest entry.
func BenchmarkStepOpEvict(b *testing.B) {
	sh := benchShapes[1]
	st := benchState(sh.name, sh.sessions, sh.objects, sh.mapKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := st.Clone()
		sinkOutcome = StepOp(&c, benchWindow, uint64(1<<40+i), 1, rootAdd(1))
		st = c
	}
	if st.Dedup.Len() != benchWindow {
		b.Fatalf("window holds %d sessions, want %d", st.Dedup.Len(), benchWindow)
	}
}

var sinkRecords []Record

// BenchmarkReadRecordsTail is a caught-up follower's pull: the last 8
// records of the active segment. Its time and allocation must not
// depend on how full the segment is, and its diskB/op (bytes read off
// disk per pull) is 0: the active segment decodes from memory. Every
// size leaves the tail half a stride past an index entry, so the three
// rows read the same window.
func BenchmarkReadRecordsTail(b *testing.B) {
	const tail = 8
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64KiB", 64 << 10}, {"1MiB", 1 << 20}, {"4MiB", 4<<20 - 64<<10}} {
		b.Run(size.name, func(b *testing.B) {
			l, _, err := Open(Options{Dir: b.TempDir(), Policy: SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			frame := len(encodeOp(Record{Kind: OpRegAdd, Ver: 1, OK: true}))
			records := size.bytes/frame/indexStride*indexStride + indexStride/2
			for ver := uint64(1); l.End() < uint64(records); ver++ {
				if _, err := l.Append(Record{Session: 1, Seq: ver, Kind: OpRegAdd, Arg: 1, Val: int64(ver), Ver: ver, OK: true}); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.WaitDurable(l.End()); err != nil { // a record is readable once written
				b.Fatal(err)
			}
			from := l.End() - tail
			read0 := l.ReadBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, pos, err := l.ReadRecords(from, tail)
				if err != nil || len(recs) != tail || pos != l.End() {
					b.Fatalf("%d records to pos %d, err %v", len(recs), pos, err)
				}
				sinkRecords = recs
			}
			b.ReportMetric(float64(l.ReadBytes()-read0)/float64(b.N), "diskB/op")
		})
	}
}

// BenchmarkGroupCommit is two sessions flushing depth-8 pipelines at a
// durable log — append 8, wait once — with a caught-up follower pulling
// the tail beside them. One op is one round of both sessions. ops/fsync
// is what group commit buys (8 with no overlap between the sessions, up
// to 16 with); reads/fsync above 1 is the follower's pulls going through
// while the disk is busy. "always" and "interval" run the same engine
// and must read the same: no ack waits for the 50 ms tick.
func BenchmarkGroupCommit(b *testing.B) {
	const appenders, depth = 2, 8
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval} {
		b.Run(policy.String(), func(b *testing.B) {
			l, _, err := Open(Options{Dir: b.TempDir(), Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()

			stop := make(chan struct{})
			pulls := make(chan int)
			go func() {
				n, from := 0, l.End()
				for {
					select {
					case <-stop:
						pulls <- n
						return
					default:
					}
					l.WaitEnd(from+1, time.Millisecond)
					recs, pos, err := l.ReadRecords(from, depth)
					if err != nil {
						b.Error(err)
					}
					if len(recs) > 0 {
						n++
					}
					from = pos
				}
			}()

			syncs0 := l.Syncs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func(shard uint32) {
					defer wg.Done()
					for ver := uint64(1); ver <= uint64(b.N*depth); ver++ {
						lsn, err := l.Append(Record{Shard: shard, Kind: OpRegAdd, Arg: 1, Val: int64(ver), Ver: ver, OK: true})
						if err == nil && ver%depth == 0 {
							err = l.WaitDurable(lsn)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(uint32(a))
			}
			wg.Wait()
			b.StopTimer()
			close(stop)
			syncs := float64(l.Syncs() - syncs0)
			b.ReportMetric(float64(appenders*depth*b.N)/syncs, "ops/fsync")
			b.ReportMetric(float64(<-pulls)/syncs, "reads/fsync")
		})
	}
}
