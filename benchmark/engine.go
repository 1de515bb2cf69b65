package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kexclusion/internal/cluster"
	"kexclusion/internal/object"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// Operation kinds of the generated stream, also the index of the
// per-kind latency samples.
const (
	opGet = iota
	opPut
	opXfer
	opAdd
	numKinds
)

var kindNames = [numKinds]string{"map_get", "map_put", "xfer", "add"}

// genOp is one pre-generated operation. Nothing about it is computed in
// the timed loop: names and keys are indices into tables built before.
type genOp struct {
	kind     uint8
	m        uint8  // map (and shard) index
	from, to uint8  // xfer: register indices
	key      uint32 // index into world.keys
}

// world is what every connection of a run shares: the servers and the
// name tables.
type world struct {
	w       spec
	conns   int
	dir     string // "" for an in-memory server
	servers []*server.Server
	primary int
	addr    string

	mapNames []string // one per shard
	keys     []string // KeysPerMap key strings, the same in every map
	regNames []string // shards*Registers names; regShard[i] = ShardFor(name)
	regShard []uint32
}

// sample is one completed operation of the timed phase.
type sample struct {
	lat  uint32 // ns, saturating
	kind uint8
	win  uint8
}

// opSpan is one traced operation: the boundaries of the benchmark's
// own calls into the client. Times are ns since the run's origin.
type opSpan struct {
	id         uint64
	kind       uint8
	due        int64 // open loop only
	start      int64 // before GoObj / Go / Atomic
	enqEnd     int64 // after it
	flushStart int64
	flushEnd   int64
	end        int64 // after Pending.Wait
}

// phase is the timing plan every connection reads.
type phase struct {
	clk        wallPacer
	timedStart int64
	winLen     int64
	end        int64
	traceFrom  int64 // operations starting at or after this are traced; never when < 0
}

func (ph *phase) window(t int64) int {
	if t < ph.timedStart {
		return -1
	}
	return int((t - ph.timedStart) / ph.winLen)
}

// conn is one connection and the goroutine that drives it.
type conn struct {
	id     int
	c      *client.Client
	wd     *world
	stream []genOp
	pos    int

	// mine is the key indices this connection owns: every connection
	// writes a disjoint slice of every map (key index mod connections),
	// so its last acknowledged put is what a read must return.
	mine    []uint32
	last    [][]int64 // [map][key] value of the last acknowledged put
	nextVal int64
	lastAdd int64 // value the last acknowledged add returned
	adds    int64 // acknowledged adds

	attempted, failed int64
	mutAcked          int64 // acknowledged mutations, set-up included
	burstOps, flushes int64 // operations sent through burst, and the flushes that carried them
	firstErr          error

	samples []sample
	// firstDone and lastDone bound each window's completions, for a
	// rate that does not depend on where the window's edges fall.
	firstDone, lastDone [numWindows]int64
	spans               []opSpan
	spanID              uint64

	// open loop
	due          []int64
	genLate      []uint32
	backlogAtEnd int

	// scratch for one burst
	ops   []genOp
	vals  []int64
	pend  []*client.Pending
	group [2]client.AtomicOp
}

func (cn *conn) fail(err error) {
	cn.failed++
	if cn.firstErr == nil && err != nil {
		cn.firstErr = err
	}
}

func (cn *conn) next() genOp {
	op := cn.stream[cn.pos]
	cn.pos++
	if cn.pos == len(cn.stream) {
		cn.pos = 0
	}
	return op
}

func (cn *conn) record(ph *phase, kind uint8, from, to int64) {
	w := ph.window(to)
	if w < 0 || w >= numWindows {
		return
	}
	lat := to - from
	if lat > int64(^uint32(0)) {
		lat = int64(^uint32(0))
	}
	cn.samples = append(cn.samples, sample{lat: uint32(lat), kind: kind, win: uint8(w)})
	if cn.firstDone[w] == 0 {
		cn.firstDone[w] = to
	}
	cn.lastDone[w] = to
}

// steadyRate is the connection's completion rate over windows
// [lo, hi), measured between its first and its last completion there.
func (cn *conn) steadyRate(lo, hi int) float64 {
	n := 0
	for _, s := range cn.samples {
		if int(s.win) >= lo && int(s.win) < hi {
			n++
		}
	}
	var first, last int64
	for w := lo; w < hi; w++ {
		if first == 0 {
			first = cn.firstDone[w]
		}
		if cn.lastDone[w] != 0 {
			last = cn.lastDone[w]
		}
	}
	if n < 2 || last <= first {
		return 0
	}
	return float64(n-1) / (float64(last-first) / 1e9)
}

// genStream draws streamLen operations for one connection from r.
func genStream(w spec, cn *conn, r *rand.Rand) []genOp {
	wd := cn.wd
	out := make([]genOp, streamLen)
	for i := range out {
		if w.RegisterAdd {
			out[i] = genOp{kind: opAdd}
			continue
		}
		roll := r.Intn(100)
		switch {
		case roll < w.XferPct:
			from := r.Intn(len(wd.regNames))
			to := r.Intn(len(wd.regNames))
			for wd.regShard[to] == wd.regShard[from] {
				to = r.Intn(len(wd.regNames))
			}
			out[i] = genOp{kind: opXfer, from: uint8(from), to: uint8(to)}
		default:
			kind := uint8(opPut)
			if roll < w.XferPct+w.GetPct {
				kind = opGet
			}
			out[i] = genOp{kind: kind, m: uint8(r.Intn(shards)), key: cn.mine[r.Intn(len(cn.mine))]}
		}
	}
	return out
}

// --- set-up -----------------------------------------------------------

func reserveAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func (wd *world) serverConfig(dataDir string) server.Config {
	return server.Config{
		N: wd.conns + 2, K: kSlots, Shards: shards,
		AdmitTimeout: 5 * time.Second,
		DataDir:      dataDir,
		Fsync:        wd.w.Fsync,
		Logf:         func(string, ...any) {},
	}
}

// startServers builds and starts the workload's server(s) on wd.dir.
// On a restart (the recovery check) the same call reopens the same
// directory.
func (wd *world) startServers() error {
	if wd.w.Nodes <= 1 {
		srv, err := server.New(wd.serverConfig(wd.dir))
		if err != nil {
			return err
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve()
		wd.servers, wd.primary, wd.addr = []*server.Server{srv}, 0, addr.String()
		return nil
	}

	// A reserved port can be taken before its server binds it; start
	// over with fresh ports when that happens.
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = wd.startCluster(); err == nil {
			return nil
		}
		wd.stopServers()
	}
	return err
}

// startCluster reserves addresses and then builds, binds and starts the
// members one after the other, as kexbench -cluster does: every
// member's address must be in every member's peer list before any
// member exists. (Binding all before starting any would close the
// window in which a started member's outgoing dials can land on a later
// member's reserved port, but a member's start-time catch-up then waits
// out its timeouts on peers that are bound and not yet accepting.)
func (wd *world) startCluster() error {
	peers := make([]cluster.Peer, wd.w.Nodes)
	for i := range peers {
		var err error
		peers[i].ID = fmt.Sprintf("node-%d", i)
		if peers[i].ClientAddr, err = reserveAddr(); err != nil {
			return err
		}
		if peers[i].ReplAddr, err = reserveAddr(); err != nil {
			return err
		}
	}
	wd.servers = make([]*server.Server, wd.w.Nodes)
	for i, p := range peers {
		cfg := wd.serverConfig(filepath.Join(wd.dir, p.ID))
		cfg.Cluster = &server.ClusterConfig{
			NodeID: p.ID, Peers: peers,
			Quorum:   server.MajorityQuorum(wd.w.Nodes),
			PullWait: 50 * time.Millisecond,
		}
		var err error
		if wd.servers[i], err = server.New(cfg); err != nil {
			return err
		}
		if _, err := wd.servers[i].Listen(p.ClientAddr); err != nil {
			return err
		}
		go wd.servers[i].Serve()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		for i, s := range wd.servers {
			if s.Node().Owns(0) {
				wd.primary, wd.addr = i, peers[i].ClientAddr
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no member claimed shard 0 within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (wd *world) stopServers() error {
	var first error
	for _, s := range wd.servers {
		if s == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	wd.servers = nil
	return first
}

// driverSession is connection id's dedup session: above every id the
// large-state set-up rotates through, and stable across the restart.
func driverSession(id int) uint64 { return 1<<32 + uint64(id) }

func (wd *world) dial(id int) (*client.Client, error) {
	c, err := client.DialTimeout(wd.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c.SetOpTimeout(30 * time.Second)
	c.SetSession(driverSession(id))
	return c, nil
}

// buildNames fills the name tables. Registers are named so that the
// client's ShardFor convention puts exactly Registers of them on every
// shard — the placement Client.Atomic assumes for shard 0.
func (wd *world) buildNames(c *client.Client) {
	for s := 0; s < shards; s++ {
		wd.mapNames = append(wd.mapNames, fmt.Sprintf("map:%d", s))
	}
	for k := 0; k < wd.w.KeysPerMap; k++ {
		wd.keys = append(wd.keys, fmt.Sprintf("k%06d", k))
	}
	have := make([]int, shards)
	for n := 0; len(wd.regNames) < shards*wd.w.Registers; n++ {
		name := fmt.Sprintf("r:%d", n)
		if s := c.ShardFor(name); have[s] < wd.w.Registers {
			have[s]++
			wd.regNames = append(wd.regNames, name)
			wd.regShard = append(wd.regShard, s)
		}
	}
}

// pipelined issues n operations through enqueue in bursts of openBurst
// and hands every reply to reply; the first error from either ends it.
func pipelined(n int, enqueue func(i int) (*client.Pending, error), reply func(i int, resp wire.Response, err error) error) error {
	pend := make([]*client.Pending, 0, openBurst)
	for i := 0; i < n; {
		first := i
		pend = pend[:0]
		for ; i < n && len(pend) < openBurst; i++ {
			p, err := enqueue(i)
			if err != nil {
				return err
			}
			pend = append(pend, p)
		}
		for j, p := range pend {
			resp, err := p.Wait()
			if err := reply(first+j, resp, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// acked is the set-up's reply handler: anything but an OK ends it.
func acked(_ int, _ wire.Response, err error) error { return err }

// createObjects is the first step of the set-up, connection 0's alone:
// the maps and registers, or on a cluster the wait for its first
// acknowledged write.
func (cn *conn) createObjects() error {
	wd, c := cn.wd, cn.c
	if wd.w.RegisterAdd {
		// The cluster serves once the primary holds a witnessed lease:
		// probe with a mutation that changes nothing until one is
		// acknowledged at quorum.
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, err := c.AddOp(0, 0, c.NextSeq())
			if err == nil {
				cn.mutAcked++
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster never acknowledged a write: %w", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for s := 0; s < shards; s++ {
		res, err := c.CreateOn(uint32(s), wd.mapNames[s], object.TypeMap, 0, c.NextSeq())
		if err != nil || !res.Found {
			return fmt.Errorf("create %s: %+v %v", wd.mapNames[s], res, err)
		}
		cn.mutAcked++
	}
	err := pipelined(len(wd.regNames), func(i int) (*client.Pending, error) {
		return c.GoObj(wire.KindCreate, wd.regNames[i], "", wd.regShard[i], int64(object.TypeRegister), 0, c.NextSeq())
	}, acked)
	if err != nil {
		return fmt.Errorf("create registers: %w", err)
	}
	cn.mutAcked += int64(len(wd.regNames))
	return nil
}

// preload is every connection's share of the set-up, once the objects
// exist: each key it owns written once, so that reads hit from the
// first operation, and its share of the dedup fill.
func (cn *conn) preload() error {
	wd, c := cn.wd, cn.c
	for s := 0; s < shards; s++ {
		err := pipelined(len(cn.mine), func(i int) (*client.Pending, error) {
			cn.nextVal++
			cn.last[s][cn.mine[i]] = cn.nextVal
			return c.GoObj(wire.KindMapPut, wd.mapNames[s], wd.keys[cn.mine[i]], uint32(s), cn.nextVal, 0, c.NextSeq())
		}, acked)
		if err != nil {
			return fmt.Errorf("load %s: %w", wd.mapNames[s], err)
		}
		cn.mutAcked += int64(len(cn.mine))
	}
	// Dedup fill, last so that the load above ran on a small state: the
	// shards this connection fills get DedupFill foreign sessions, one
	// register add each. The window then holds 1024 sessions for good —
	// the two driver sessions evict the two oldest.
	for s := cn.id; s < shards && wd.w.DedupFill > 0; s += wd.conns {
		target := -1
		for i, rs := range wd.regShard {
			if int(rs) == s {
				target = i
				break
			}
		}
		err := pipelined(wd.w.DedupFill, func(i int) (*client.Pending, error) {
			c.SetSession(uint64(i + 1))
			return c.GoObj(wire.KindRegAdd, wd.regNames[target], "", uint32(s), 0, 0, 1)
		}, acked)
		c.SetSession(driverSession(cn.id))
		if err != nil {
			return fmt.Errorf("dedup fill shard %d: %w", s, err)
		}
		cn.mutAcked += int64(wd.w.DedupFill)
	}
	return nil
}

// setUp builds one instance of the workload: servers, connections,
// preloaded state. seconds is server.New to the last preload ack.
func setUp(w spec, conns int, seed int64, tmpRoot string) (*world, []*conn, float64, error) {
	wd := &world{w: w, conns: conns}
	var cs []*conn
	fail := func(err error) (*world, []*conn, float64, error) {
		tearDown(wd, cs)
		return nil, nil, 0, err
	}
	if w.Durable {
		var err error
		if wd.dir, err = os.MkdirTemp(tmpRoot, w.Name+"-"); err != nil {
			return fail(err)
		}
	}
	start := time.Now()
	if err := wd.startServers(); err != nil {
		return fail(err)
	}
	for id := 0; id < conns; id++ {
		c, err := wd.dial(id)
		if err != nil {
			return fail(err)
		}
		if id == 0 {
			wd.buildNames(c)
		}
		cn := &conn{id: id, c: c, wd: wd, nextVal: int64(id+1) << 40}
		for k := id; k < len(wd.keys); k += conns {
			cn.mine = append(cn.mine, uint32(k))
		}
		for s := 0; s < shards; s++ {
			cn.last = append(cn.last, make([]int64, len(wd.keys)))
		}
		cs = append(cs, cn)
	}
	if err := cs[0].createObjects(); err != nil {
		return fail(err)
	}
	if err := eachConn(cs, (*conn).preload); err != nil {
		return fail(err)
	}
	seconds := time.Since(start).Seconds()
	for _, cn := range cs {
		cn.stream = genStream(w, cn, rand.New(rand.NewSource(seed*7919+int64(cn.id))))
	}
	return wd, cs, seconds, nil
}

// eachConn runs f on every connection at once and returns the first
// error.
func eachConn(cs []*conn, f func(*conn) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, cn := range cs {
		wg.Add(1)
		go func(i int, cn *conn) {
			defer wg.Done()
			errs[i] = f(cn)
		}(i, cn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func tearDown(wd *world, cs []*conn) {
	for _, cn := range cs {
		if cn != nil && cn.c != nil {
			cn.c.Close()
		}
	}
	if wd == nil {
		return
	}
	wd.stopServers()
	if wd.dir != "" {
		os.RemoveAll(wd.dir)
	}
}

// --- the timed loops --------------------------------------------------

// burst sends ops (single operations, never an xfer) as one pipelined
// flush and waits for every reply. t0 is when the burst's first
// operation was taken up; each operation's latency runs from from[i].
func (cn *conn) burst(ph *phase, ops []genOp, from []int64) {
	wd, c := cn.wd, cn.c
	traced := ph.traceFrom >= 0 && from[0] >= ph.traceFrom && len(cn.spans)+len(ops) <= cap(cn.spans)
	base := len(cn.spans)
	cn.pend = cn.pend[:0]
	cn.vals = cn.vals[:0]
	for i, op := range ops {
		var p *client.Pending
		var err error
		var t0 int64
		if traced {
			t0 = ph.clk.now()
		}
		switch op.kind {
		case opGet:
			p, err = c.GoObj(wire.KindMapGet, wd.mapNames[op.m], wd.keys[op.key], uint32(op.m), 0, 0, 0)
			cn.vals = append(cn.vals, 0)
		case opPut:
			cn.nextVal++
			p, err = c.GoObj(wire.KindMapPut, wd.mapNames[op.m], wd.keys[op.key], uint32(op.m), cn.nextVal, 0, c.NextSeq())
			cn.vals = append(cn.vals, cn.nextVal)
		case opAdd:
			p, err = c.Go(wire.KindAdd, 0, 1, c.NextSeq())
			cn.vals = append(cn.vals, 0)
		}
		if traced {
			cn.spanID++
			cn.spans = append(cn.spans, opSpan{id: cn.spanID, kind: op.kind, due: from[i], start: t0, enqEnd: ph.clk.now()})
		}
		cn.attempted++
		if err != nil {
			cn.fail(err)
		}
		cn.pend = append(cn.pend, p)
	}
	var f0 int64
	if traced {
		f0 = ph.clk.now()
	}
	if err := c.Flush(); err != nil {
		cn.fail(err)
	}
	cn.burstOps += int64(len(ops))
	cn.flushes++
	var f1 int64
	if traced {
		f1 = ph.clk.now()
	}
	for i, p := range cn.pend {
		if p == nil {
			continue
		}
		resp, err := p.Wait()
		done := ph.clk.now()
		op := ops[i]
		switch {
		case err != nil:
			cn.fail(err)
		case resp.Flags&wire.FlagDuplicate != 0:
			cn.fail(fmt.Errorf("%s answered as a duplicate", kindNames[op.kind]))
		case op.kind == opGet:
			if want := cn.last[op.m][op.key]; resp.Flags&wire.FlagFound == 0 || resp.Value != want {
				cn.fail(fmt.Errorf("get %s/%s = %d (found %v), last acknowledged put was %d",
					wd.mapNames[op.m], wd.keys[op.key], resp.Value, resp.Flags&wire.FlagFound != 0, want))
			}
		case op.kind == opPut:
			cn.last[op.m][op.key] = cn.vals[i]
			cn.mutAcked++
		case op.kind == opAdd:
			if resp.Value <= cn.lastAdd {
				cn.fail(fmt.Errorf("add returned %d after %d", resp.Value, cn.lastAdd))
			}
			cn.lastAdd = resp.Value
			cn.adds++
			cn.mutAcked++
		}
		cn.record(ph, op.kind, from[i], done)
		if traced {
			sp := &cn.spans[base+i]
			sp.flushStart, sp.flushEnd, sp.end = f0, f1, done
		}
	}
}

// xfer moves one unit between two registers on different shards as one
// atomic group.
func (cn *conn) xfer(ph *phase, op genOp, from int64) {
	wd, c := cn.wd, cn.c
	cn.group[0] = client.AtomicOp{Kind: wire.KindRegAdd, Obj: wd.regNames[op.from], Shard: wd.regShard[op.from], Arg: -1, Seq: c.NextSeq()}
	cn.group[1] = client.AtomicOp{Kind: wire.KindRegAdd, Obj: wd.regNames[op.to], Shard: wd.regShard[op.to], Arg: 1, Seq: c.NextSeq()}
	cn.attempted++
	res, err := c.Atomic(cn.group[:])
	done := ph.clk.now()
	switch {
	case err != nil:
		cn.fail(err)
	case !res[0].Found || !res[1].Found || res[0].WasDuplicate || res[1].WasDuplicate:
		cn.fail(fmt.Errorf("xfer %s -> %s: %+v", wd.regNames[op.from], wd.regNames[op.to], res))
	default:
		cn.mutAcked += 2
	}
	cn.record(ph, opXfer, from, done)
	if ph.traceFrom >= 0 && from >= ph.traceFrom && len(cn.spans) < cap(cn.spans) {
		cn.spanID++
		cn.spans = append(cn.spans, opSpan{id: cn.spanID, kind: opXfer, due: from, start: from, enqEnd: from, flushStart: from, flushEnd: from, end: done})
	}
}

// closedLoop keeps Depth operations in flight until the phase ends.
func (cn *conn) closedLoop(ph *phase) {
	depth := cn.wd.w.Depth
	from := make([]int64, depth)
	for {
		now := ph.clk.now()
		if now >= ph.end {
			return
		}
		cn.ops = cn.ops[:0]
		for len(cn.ops) < depth {
			op := cn.next()
			if op.kind == opXfer {
				// Only depth-1 workloads mix transfers in, so there is
				// never a half-built burst to send first.
				cn.xfer(ph, op, now)
				now = ph.clk.now()
				continue
			}
			from[len(cn.ops)] = now
			cn.ops = append(cn.ops, op)
		}
		cn.burst(ph, cn.ops, from)
		if cn.failed > 1000 {
			return // a dead connection fails every operation at once: stop counting
		}
	}
}

// openLoopRun sends the connection's pre-drawn arrivals on schedule,
// with latency from each arrival's due time.
func (cn *conn) openLoopRun(ph *phase) {
	from := make([]int64, openBurst)
	send := func(first, n int) {
		cn.ops = cn.ops[:0]
		for i := 0; i < n; i++ {
			cn.ops = append(cn.ops, cn.next())
			from[i] = cn.due[first+i]
		}
		cn.burst(ph, cn.ops, from[:n])
	}
	report := func(i int, a arrival) {
		if w := ph.window(a.doneAt); w >= 0 && w < numWindows {
			late := a.genLate
			if late > int64(^uint32(0)) {
				late = int64(^uint32(0))
			}
			cn.genLate = append(cn.genLate, uint32(late))
		}
	}
	var unsent int
	cn.backlogAtEnd, unsent = openLoop(ph.clk, cn.due, openBurst, ph.end, ph.end+int64(time.Second), send, report)
	// Arrivals never sent were attempted and not answered.
	cn.attempted += int64(unsent)
	cn.failed += int64(unsent)
}

// --- verification -----------------------------------------------------

// readBack checks every key this connection owns against its last
// acknowledged put.
func (cn *conn) readBack() error {
	wd, c := cn.wd, cn.c
	for s := 0; s < shards; s++ {
		err := pipelined(len(cn.mine), func(i int) (*client.Pending, error) {
			return c.GoObj(wire.KindMapGet, wd.mapNames[s], wd.keys[cn.mine[i]], uint32(s), 0, 0, 0)
		}, func(i int, resp wire.Response, err error) error {
			cn.attempted++
			k := cn.mine[i]
			if err != nil {
				cn.fail(err)
			} else if want := cn.last[s][k]; resp.Flags&wire.FlagFound == 0 || resp.Value != want {
				cn.fail(fmt.Errorf("read-back %s/%s = %d, last acknowledged put was %d", wd.mapNames[s], wd.keys[k], resp.Value, want))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
