package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"kexclusion/internal/core"
	"kexclusion/internal/durable"
	"kexclusion/internal/object"
	"kexclusion/internal/renaming"
	"kexclusion/internal/resilient"
	"kexclusion/internal/wire"
)

// The ledger pass calls each layer's public functions on the
// workloads' operations, outside the server, in the order the server
// calls them for one map_put: encode -> parse -> assign (k-exclusion +
// name) -> Shared.Apply(StepOp) -> Log.Append -> WaitDurable -> encode
// response -> parse response. One goroutine, except the two probes
// that exist to have two.

const (
	probeIters  = 100_000
	probeWarmup = 10_000
)

var sink any // keeps probed results alive

// probe times fn: up to probeWarmup calls to warm up, then up to
// probeIters timed calls, each stage cut short when its share of
// budget runs out (a 100 µs clone does not get 100 000 calls).
// allocs is mallocs per call over the timed stage.
func probe(budget time.Duration, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	run := func(max int, d time.Duration, from int) (int, time.Duration) {
		start := time.Now()
		n := 0
		for n < max {
			for end := n + 64; n < end; n++ {
				fn(from + n)
			}
			if time.Since(start) > d {
				break
			}
		}
		return n, time.Since(start)
	}
	warm, _ := run(probeWarmup, budget/10, 0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, took := run(probeIters, budget, warm)
	runtime.ReadMemStats(&m1)
	return float64(took.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// ledgerState builds a shard state of the given shape through StepOp,
// the way the server would have: one map of keys entries, registers
// further objects, sessions dedup entries.
func ledgerState(keys, registers, sessions int) (durable.ShardState, []string) {
	var st durable.ShardState
	seq := uint64(0)
	step := func(session uint64, op durable.Op) {
		seq++
		durable.StepOp(&st, 1024, session, seq, op)
	}
	step(1, durable.Op{Kind: durable.OpCreate, Obj: "map:0", Arg: int64(object.TypeMap)})
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("k%06d", k)
		step(1, durable.Op{Kind: durable.OpMapPut, Obj: "map:0", Key: names[k], Arg: int64(k)})
	}
	for r := 0; r < registers; r++ {
		step(1, durable.Op{Kind: durable.OpCreate, Obj: fmt.Sprintf("r:%d", r), Arg: int64(object.TypeRegister)})
	}
	for s := 2; s <= sessions; s++ {
		step(uint64(s), durable.Op{Kind: durable.OpRegAdd, Obj: "r:0"})
	}
	return st, names
}

// runLedger runs every probe and returns the per-layer metrics that do
// not depend on the workload's traffic.
func runLedger(budget time.Duration, tmpRoot string, seed int64) (map[string]float64, error) {
	led := map[string]float64{}
	var err error
	if led["env.fsync_us"], err = probeFsync(tmpRoot); err != nil {
		return nil, err
	}

	// --- wire ---------------------------------------------------------
	names := make([]string, 1024)
	for k := range names {
		names[k] = fmt.Sprintf("k%06d", k)
	}
	reqs := make([]wire.Request, 1024)
	for i := range reqs {
		reqs[i] = wire.Request{ID: uint64(i + 1), Kind: wire.KindMapPut, Shard: uint32(i % shards),
			Session: 1 << 32, Seq: uint64(i + 1), Obj: "map:0", Key: names[(int(seed)+i*7)%len(names)], Arg: int64(i)}
	}
	payloads := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := wire.EncodeObjRequest(r)
		if err != nil {
			return nil, err
		}
		payloads[i] = b
	}
	resp := wire.Response{ID: 7, Status: wire.StatusOK, Flags: wire.FlagFound, Value: 42}
	respBytes := resp.Encode()
	var allocs, a float64
	led["wire.encode_req_ns"], a = probe(budget, func(i int) { sink, _ = wire.EncodeObjRequest(reqs[i%len(reqs)]) })
	allocs += a
	led["wire.parse_req_ns"], a = probe(budget, func(i int) { sink, _ = wire.ParseRequestFrame(payloads[i%len(payloads)]) })
	allocs += a
	led["wire.encode_resp_ns"], a = probe(budget, func(i int) { sink = resp.Encode() })
	allocs += a
	led["wire.parse_resp_ns"], a = probe(budget, func(i int) { sink, _ = wire.ParseResponse(respBytes) })
	allocs += a
	led["wire.allocs_per_op"] = allocs
	resps8 := make([]wire.Response, 8)
	for i := range resps8 {
		resps8[i] = resp
	}
	led["wire.batch8_roundtrip_ns"], _ = probe(budget, func(i int) {
		at := (i * 8) % (len(reqs) - 8)
		b, _ := wire.ObjBatch{Reqs: reqs[at : at+8]}.Encode()
		wire.ParseRequestFrame(b)
		rb := wire.BatchResponse{Resps: resps8}.Encode()
		sink, _ = wire.ParseBatchResponse(rb)
	})

	// --- core, renaming -----------------------------------------------
	n := 4
	asg := renaming.New(n, kSlots)
	led["renaming.assign_ns"], _ = probe(budget, func(int) { asg.Release(0, asg.Acquire(0)) })
	fp := core.NewFastPath(n, kSlots)
	led["core.acquire_ns.c1"], _ = probe(budget, func(int) { fp.Acquire(0); fp.Release(0) })
	// Two goroutines on one slot: the only contended number here. The
	// partner runs for as long as the probe does.
	one := core.NewFastPath(n, 1)
	stop := make(chan struct{})
	var partner sync.WaitGroup
	partner.Add(1)
	go func() {
		defer partner.Done()
		for {
			select {
			case <-stop:
				return
			default:
				one.Acquire(1)
				one.Release(1)
			}
		}
	}()
	led["core.acquire_ns.c2k1"], _ = probe(budget, func(int) { one.Acquire(0); one.Release(0) })
	close(stop)
	partner.Wait()

	// --- durable state, resilient -------------------------------------
	small, smallKeys := ledgerState(1024, 2, 2)
	large, largeKeys := ledgerState(16384, 63, 1024)
	led["durable.clone_ns.small"], _ = probe(budget, func(int) { sink = small.Clone() })
	led["durable.clone_ns.large"], led["durable.clone_allocs.large"] = probe(budget, func(int) { sink = large.Clone() })
	put := func(keys []string, i int) durable.Op {
		return durable.Op{Kind: durable.OpMapPut, Obj: "map:0", Key: keys[(i*7)%len(keys)], Arg: int64(i)}
	}
	scratch := small.Clone()
	led["durable.stepop_ns"], _ = probe(budget, func(i int) {
		sink = durable.StepOp(&scratch, 1024, 1, uint64(1<<40+i), put(smallKeys, i))
	})
	for _, c := range []struct {
		name string
		st   durable.ShardState
		keys []string
	}{{"resilient.apply_ns.small", small, smallKeys}, {"resilient.apply_ns.large", large, largeKeys}} {
		sh := resilient.NewShared[durable.ShardState](n, kSlots, c.st, durable.ShardState.Clone)
		led[c.name], _ = probe(budget, func(i int) {
			op := put(c.keys, i)
			sink = sh.Apply(0, func(s durable.ShardState) (durable.ShardState, any) {
				out := durable.StepOp(&s, 1024, 1, uint64(1<<40+i), op)
				return s, out
			})
		})
	}

	// --- object.Map ---------------------------------------------------
	for _, c := range []struct {
		tag  string
		keys int
	}{{"1k", 1 << 10}, {"64k", 1 << 16}} {
		var m object.Map
		keys := make([]string, c.keys)
		for k := range keys {
			keys[k] = fmt.Sprintf("k%06d", k)
			m.Put(keys[k], int64(k))
		}
		led["object.map_put_ns."+c.tag], _ = probe(budget, func(i int) { m.Put(keys[(i*7)%len(keys)], int64(i)) })
		led["object.map_get_ns."+c.tag], _ = probe(budget, func(i int) { sink, _ = m.Get(keys[(i*7)%len(keys)]) })
	}

	// --- durable.Log --------------------------------------------------
	dir, err := os.MkdirTemp(tmpRoot, "ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rec := func(i int) durable.Record {
		return durable.Record{Session: 1 << 32, Seq: uint64(i + 1), Shard: 0, Kind: durable.OpMapPut,
			Obj: "map:0", Key: names[i%len(names)], Arg: int64(i), Val: int64(i), Ver: uint64(i + 1), OK: true}
	}
	log, _, err := durable.Open(durable.Options{Dir: dir + "/append", Policy: durable.SyncAlways})
	if err != nil {
		return nil, err
	}
	before := dirBytes(dir + "/append")
	appended := 0
	led["durable.append_ns"], _ = probe(budget, func(i int) { log.Append(rec(i)); appended++ })
	// One sync, so that the sizes on disk are the sizes written.
	if err := log.WaitDurable(log.End()); err != nil {
		return nil, err
	}
	led["durable.record_bytes"] = float64(dirBytes(dir+"/append")-before) / float64(appended)
	if err := log.Close(); err != nil {
		return nil, err
	}

	// Group commit: two appenders, eight records each, then the wait the
	// session loop makes once per pipeline.
	log, _, err = durable.Open(durable.Options{Dir: dir + "/always", Policy: durable.SyncAlways})
	if err != nil {
		return nil, err
	}
	rounds := int(budget / (400 * time.Microsecond))
	rounds = min(max(rounds, 8), 400)
	syncs0 := log.Syncs()
	waits := make([][]float64, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var lsn uint64
				for j := 0; j < 8; j++ {
					lsn, _ = log.Append(rec(g<<20 + r*8 + j))
				}
				start := time.Now()
				if err := log.WaitDurable(lsn); err != nil {
					return
				}
				waits[g] = append(waits[g], float64(time.Since(start).Nanoseconds())/1e3)
			}
		}(g)
	}
	wg.Wait()
	if len(waits[0]) != rounds || len(waits[1]) != rounds {
		return nil, fmt.Errorf("WaitDurable failed under SyncAlways")
	}
	led["durable.wait_durable_us.always"] = median(append(waits[0], waits[1]...))
	led["durable.ops_per_sync"] = float64(2*8*rounds) / float64(log.Syncs()-syncs0)
	if err := log.Close(); err != nil {
		return nil, err
	}

	// The tick: one appender waiting for the interval syncer.
	log, _, err = durable.Open(durable.Options{Dir: dir + "/tick", Policy: durable.SyncInterval})
	if err != nil {
		return nil, err
	}
	ticks := min(max(int(budget/(50*time.Millisecond)), 3), 10)
	var tickWaits []float64
	for i := 0; i < ticks; i++ {
		lsn, _ := log.Append(rec(i))
		start := time.Now()
		if err := log.WaitDurable(lsn); err != nil {
			return nil, err
		}
		tickWaits = append(tickWaits, float64(time.Since(start).Nanoseconds())/1e6)
	}
	led["durable.tick_wait_ms"] = median(tickWaits)
	return led, log.Close()
}

// probeFsync is the disk's own floor: 200 writes of 4 KiB, each
// followed by Sync, in the directory the servers will write to.
func probeFsync(dir string) (medianUS float64, err error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	sort.Float64s(us)
	return quantile(us, 0.5), nil
}

type ledgerRow struct {
	name string
	ns   float64
}

// putLedger lists, for one map_put on workload w, the layers it passes
// through and what each costs by the ledger, with their sum.
func putLedger(w spec, led map[string]float64) (rows []ledgerRow, sum float64) {
	add := func(name string, ns float64) {
		rows = append(rows, ledgerRow{name, ns})
		sum += ns
	}
	add("wire.encode_req_ns", led["wire.encode_req_ns"])
	add("wire.parse_req_ns", led["wire.parse_req_ns"])
	add("renaming.assign_ns", led["renaming.assign_ns"])
	apply := "resilient.apply_ns.small"
	if w.DedupFill > 0 {
		apply = "resilient.apply_ns.large"
	}
	// Apply acquires a slot and a name itself, so the assignment above
	// is inside it: list it, count it once.
	add(apply+" - assign", led[apply]-led["renaming.assign_ns"])
	if w.Durable {
		add("durable.append_ns", led["durable.append_ns"])
		if w.Fsync == durable.SyncInterval {
			add("durable.tick_wait_ms", led["durable.tick_wait_ms"]*1e6)
		} else {
			add("durable.wait_durable_us.always", led["durable.wait_durable_us.always"]*1e3)
		}
	}
	add("wire.encode_resp_ns", led["wire.encode_resp_ns"])
	add("wire.parse_resp_ns", led["wire.parse_resp_ns"])
	return rows, sum
}
