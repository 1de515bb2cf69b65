package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"kexclusion/internal/obs"
	"kexclusion/internal/wire"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of kexserved sees, on every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"setup_s", "s"},
}

// perLayer is the outside-in ledger. A metric whose layer is absent
// from a workload (cluster.* on one node, gen.* on a closed loop,
// get_p50_us where nothing is read) reads 0 there.
var perLayer = []metricDef{
	{"tail.p99_us", "us"},
	{"get_p50_us", "us"}, {"put_p50_us", "us"}, {"xfer_p50_us", "us"},
	{"wire.encode_req_ns", "ns"}, {"wire.parse_req_ns", "ns"}, {"wire.encode_resp_ns", "ns"},
	{"wire.parse_resp_ns", "ns"}, {"wire.batch8_roundtrip_ns", "ns"}, {"wire.allocs_per_op", "count"},
	{"client.enqueue_ns", "ns"}, {"client.flush_ns", "ns"}, {"client.wait_ns", "ns"}, {"client.ops_per_flush", "count"},
	{"server.unaccounted_ns", "ns"}, {"server.read_fastpath_share", "share"}, {"server.batch_atomic_share", "share"},
	{"server.applied_dupes", "count"}, {"server.xfer_extra_ns", "ns"},
	{"renaming.assign_ns", "ns"}, {"core.acquire_ns.c1", "ns"}, {"core.acquire_ns.c2k1", "ns"},
	{"core.fast_path_share", "share"}, {"core.spin_polls_per_acquire", "count"}, {"core.cas_retries_per_acquire", "count"},
	{"core.acquire_p50_ns", "ns"}, {"core.peak_holders", "count"}, {"renaming.tas_failures_per_name", "count"},
	{"resilient.apply_ns.small", "ns"}, {"resilient.apply_ns.large", "ns"}, {"resilient.helping_share", "share"},
	{"durable.clone_ns.small", "ns"}, {"durable.clone_ns.large", "ns"}, {"durable.clone_allocs.large", "count"},
	{"durable.stepop_ns", "ns"},
	{"object.map_put_ns.1k", "ns"}, {"object.map_put_ns.64k", "ns"}, {"object.map_get_ns.1k", "ns"}, {"object.map_get_ns.64k", "ns"},
	{"durable.append_ns", "ns"}, {"durable.record_bytes", "B"}, {"durable.wal_bytes_per_op", "B"},
	{"durable.wait_durable_us.always", "us"}, {"durable.ops_per_sync", "count"}, {"durable.tick_wait_ms", "ms"},
	{"durable.recover_s", "s"}, {"durable.recovered_ops", "count"},
	{"env.fsync_us", "us"},
	{"cluster.quorum_ack_share", "share"}, {"cluster.replica_lag_lsn_p50", "count"},
	{"cluster.notprimary_redirects", "count"}, {"cluster.extra_us", "us"},
	{"runtime.allocs_per_op", "count"}, {"runtime.bytes_per_op", "B"}, {"runtime.gc_cpu_share", "share"},
	{"gen.late_p99_us", "us"}, {"gen.backlog_end", "count"},
	{"trace.overhead_share", "share"},
}

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set stores a declared metric; an undeclared name is a bug here.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// options shapes one run of one workload.
type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Conns   int
	TmpRoot string
	OutDir  string // "" writes no trace file
	// SetupRepeats is how many times the untraced pass sets the workload
	// up at least; a cheap set-up is repeated further, up to maxSetups
	// times, until SetupBudget is spent. The last instance is the one
	// that runs. The traced pass sets up once: setup_s is not its to
	// report.
	SetupRepeats int
	SetupBudget  time.Duration
	ProbeBudget  time.Duration // per ledger probe
	Out          io.Writer     // the human-readable report
}

const (
	// warmShare is the warm-up as a share of the timed phase: 3 s before
	// 20 s in the issue, 1.5 s before the 10 s the time cap allows.
	warmShare = 0.15
	// untracedWindows is how many of a traced run's ten windows run with
	// tracing off; they give the run's own untraced throughput, against
	// which the traced windows' throughput is the tracing overhead.
	untracedWindows = 4
	// minPerWindow is what a window must hold for its own p99 (ten
	// samples beyond it) and for its count to carry three digits.
	// Thinner windows are pooled: the statistic is taken once over the
	// whole timed phase.
	minPerWindow = 1000
	maxSetups    = 15
	// streamLen operations are drawn per connection; a faster loop wraps.
	streamLen = 1 << 18
	// Capacities per connection and second of timed phase, above what
	// the fastest workload reaches. Samples grow past theirs; a trace
	// stops at its own and says so.
	sampleCap = 100_000
	spanCap   = 40_000
)

// runWorkload sets the workload up, runs warm-up and timed phase,
// verifies every output and returns the metrics of the requested pass.
func runWorkload(w spec, o options) (*result, error) {
	if o.Conns > runtime.NumCPU() {
		return nil, fmt.Errorf("%d connections on %d CPUs: the load generator would compete with itself; use at most nproc", o.Conns, runtime.NumCPU())
	}
	if err := os.MkdirAll(o.TmpRoot, 0o755); err != nil {
		return nil, err
	}

	// Set-up, several times over: one set-up is a single sample of a
	// time the acceptance rule compares between commits.
	if o.Trace {
		o.SetupRepeats, o.SetupBudget = 1, 0
	}
	var (
		wd     *world
		cs     []*conn
		setups []float64
		spent  float64
	)
	defer func() { tearDown(wd, cs) }()
	for i := 0; i < o.SetupRepeats || (i < maxSetups && spent < o.SetupBudget.Seconds()); i++ {
		tearDown(wd, cs)
		var s float64
		var err error
		if wd, cs, s, err = setUp(w, o.Conns, o.Seed, o.TmpRoot); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
		spent += s
	}

	ph := newPhase(w, o, cs)
	counted := drive(w, wd, cs, ph, o.Trace)
	v, err := verify(w, wd, cs)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}, Attempted: v.attempted, Failed: v.failed}
	for _, cn := range cs {
		res.Attempted += cn.attempted
		res.Failed += cn.failed
		if v.firstErr == nil {
			v.firstErr = cn.firstErr
		}
	}
	res.Correct = res.Failed == 0

	win := reduce(cs, float64(ph.winLen)/1e9)
	lastUntraced := numWindows
	if o.Trace {
		lastUntraced = untracedWindows
	}
	opsPerS := win.rate(0, lastUntraced)
	p50, samples, pooled := windowStat(win.all, 0, lastUntraced, minPerWindow, atQuantile(0.5))
	p99, _, _ := windowStat(win.all, 0, lastUntraced, minPerWindow, atQuantile(0.99))

	out := o.Out
	fmt.Fprintf(out, "\n== %s  (seed %d, %d connections, warm-up %v, timed %v, trace %v)\n",
		w.Name, o.Seed, o.Conns, time.Duration(ph.timedStart), time.Duration(ph.end-ph.timedStart), o.Trace)
	fmt.Fprintf(out, "   %s\n", w.Why)
	fmt.Fprintf(out, "   set-ups %d   samples %d   attempted %d   failed %d   error_share %.6f\n",
		len(setups), samples, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	fmt.Fprintf(out, "   per window ops/s, p50 us:")
	for i := 0; i < numWindows; i++ {
		fmt.Fprintf(out, " %.0f/%.1f", float64(len(win.all[i]))/win.winSec, quantile(win.all[i], 0.5)/1e3)
	}
	fmt.Fprintln(out)
	if v.firstErr != nil {
		fmt.Fprintf(out, "   first failure: %v\n", v.firstErr)
	}
	if pooled {
		fmt.Fprintf(out, "   windows hold fewer than %d samples: rate and percentiles are taken over the whole timed phase\n", minPerWindow)
	}
	fmt.Fprintf(out, "   p99 %.1f us", p99/1e3)
	if w.LimitP99us > 0 {
		verdict := "met"
		if p99/1e3 > w.LimitP99us {
			verdict = "MISSED: the run is invalid, not slow"
		}
		fmt.Fprintf(out, "   (limit %.0f us: %s)", w.LimitP99us, verdict)
	}
	fmt.Fprintln(out)

	if !o.Trace {
		res.set("ops_per_s", opsPerS)
		res.set("p50_us", p50/1e3)
		res.set("setup_s", median(setups))
		printMetrics(out, endToEnd, res.Metrics)
		return res, nil
	}

	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{Unit: d.Unit}
	}
	res.set("tail.p99_us", p99/1e3)
	res.set("durable.recover_s", v.recoverSeconds)
	res.set("durable.recovered_ops", float64(v.recoveredOps))
	if traced := win.rate(untracedWindows, numWindows); opsPerS > 0 {
		res.set("trace.overhead_share", (opsPerS-traced)/opsPerS)
	}
	putP50 := perKindMetrics(res, w, win)
	enqFlushNS := clientSpanMetrics(res, cs, out)
	counterMetrics(res, w, wd, win, counted)
	if w.Nodes > 1 {
		// The single-node baseline: the same traffic against one node.
		base, bo := w, o
		base.Name, base.Nodes = w.Name+"-baseline", 1
		bo.Trace, bo.SetupRepeats, bo.SetupBudget, bo.Out, bo.OutDir = false, 1, 0, io.Discard, ""
		bo.Seconds = max(o.Seconds/5, 0.2)
		br, err := runWorkload(base, bo)
		if err != nil {
			return nil, fmt.Errorf("single-node baseline: %w", err)
		}
		res.set("cluster.extra_us", p50/1e3-br.Metrics["p50_us"].Value)
	}
	if w.OpenRate > 0 {
		var late []uint32
		backlog := 0
		for _, cn := range cs {
			late = append(late, cn.genLate...)
			backlog += cn.backlogAtEnd
		}
		sortU32(late)
		res.set("gen.late_p99_us", quantile(late, 0.99)/1e3)
		res.set("gen.backlog_end", float64(backlog))
	}

	// The ledger pass: the layers' own functions, called in the order
	// the server calls them.
	led, err := runLedger(o.ProbeBudget, o.TmpRoot, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("ledger pass: %w", err)
	}
	for name, v := range led {
		res.set(name, v)
	}
	rows, sum := putLedger(w, led)
	unaccounted := putP50 - enqFlushNS - sum
	res.set("server.unaccounted_ns", unaccounted)

	printMetrics(out, perLayer, res.Metrics)
	fmt.Fprintf(out, "   ledger for one %s on %s:\n", kindNames[opPut], w.Name)
	for _, r := range append(rows,
		ledgerRow{"sum of layers", sum},
		ledgerRow{"client.enqueue_ns + client.flush_ns", enqFlushNS},
		ledgerRow{"put_p50_us (end to end)", putP50},
		ledgerRow{"server.unaccounted_ns", unaccounted}) {
		fmt.Fprintf(out, "     %-36s %12.0f ns\n", r.name, r.ns)
	}
	if o.OutDir != "" {
		path, err := writeTrace(o.OutDir, w.Name, cs)
		if err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
		fmt.Fprintf(out, "   trace: %s\n", path)
	}
	return res, nil
}

// newPhase lays out warm-up, windows and the traced stretch, and gives
// every connection its buffers (and, on an open loop, its arrivals).
func newPhase(w spec, o options, cs []*conn) *phase {
	timed := int64(o.Seconds * float64(time.Second))
	ph := &phase{timedStart: int64(float64(timed) * warmShare), winLen: timed / numWindows, traceFrom: -1}
	ph.end = ph.timedStart + ph.winLen*numWindows
	if o.Trace {
		ph.traceFrom = ph.timedStart + untracedWindows*ph.winLen
	}
	for _, cn := range cs {
		cn.samples = make([]sample, 0, int(sampleCap*o.Seconds))
		if o.Trace {
			cn.spans = make([]opSpan, 0, int(spanCap*o.Seconds))
		}
		if w.OpenRate > 0 {
			r := rand.New(rand.NewSource(o.Seed*104729 + int64(cn.id)))
			cn.due = poissonArrivals(r, w.OpenRate/float64(len(cs)), ph.end)
			cn.genLate = make([]uint32, 0, len(cn.due))
		}
	}
	return ph
}

// counters is what the traced pass reads at both ends of the timed
// phase and samples in between.
type counters struct {
	stats    [2]wire.Stats
	mem      [2]runtime.MemStats
	gcCPU    [2]float64
	allCPU   [2]float64
	lag      []float64 // primary's replica lag in LSNs, every 100 ms
	walBytes int64     // growth of the data directory, summed over the samples
}

func (c *counters) read(i int, wd *world) {
	c.stats[i] = wd.servers[wd.primary].Stats()
	runtime.ReadMemStats(&c.mem[i])
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU[i], c.allCPU[i] = s[0].Value.Float64(), s[1].Value.Float64()
	}
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// drive runs every connection's loop through warm-up and timed phase.
// The traced pass also reads the counters: the two readings stop the
// world for a moment each and the samples in between take a little
// CPU, which the untraced pass is spared.
func drive(w spec, wd *world, cs []*conn, ph *phase, trace bool) *counters {
	runtime.GC() // the set-up's garbage is not the timed phase's to collect
	ph.clk = wallPacer{origin: time.Now()}
	c := &counters{}
	var monitor sync.WaitGroup
	if trace {
		monitor.Add(1)
		go func() {
			defer monitor.Done()
			time.Sleep(time.Duration(ph.timedStart - ph.clk.now()))
			c.read(0, wd)
			// Sum the data directory's growth between samples: snapshots
			// prune segments, so end minus start would undercount.
			prev := dirBytes(wd.dir)
			for ph.clk.now() < ph.end-int64(100*time.Millisecond) {
				time.Sleep(100 * time.Millisecond)
				if w.Nodes > 1 {
					c.lag = append(c.lag, float64(wd.servers[wd.primary].Stats().ReplicaLagLSN))
				}
				if wd.dir != "" {
					cur := dirBytes(wd.dir)
					c.walBytes += max(cur-prev, 0)
					prev = cur
				}
			}
			time.Sleep(time.Duration(ph.end - ph.clk.now()))
			c.read(1, wd)
		}()
	}
	loop := (*conn).closedLoop
	if w.OpenRate > 0 {
		loop = (*conn).openLoopRun
	}
	eachConn(cs, func(cn *conn) error { loop(cn, ph); return nil })
	monitor.Wait()
	return c
}

// windows is the timed phase's latencies, ascending within each window.
type windows struct {
	all    [][]uint32
	byKind [numKinds][][]uint32
	winSec float64
	cs     []*conn
}

func reduce(cs []*conn, winSec float64) *windows {
	win := &windows{all: make([][]uint32, numWindows), winSec: winSec, cs: cs}
	for k := range win.byKind {
		win.byKind[k] = make([][]uint32, numWindows)
	}
	for _, cn := range cs {
		for _, s := range cn.samples {
			win.all[s.win] = append(win.all[s.win], s.lat)
			win.byKind[s.kind][s.win] = append(win.byKind[s.kind][s.win], s.lat)
		}
	}
	for i := 0; i < numWindows; i++ {
		sortU32(win.all[i])
		for k := range win.byKind {
			sortU32(win.byKind[k][i])
		}
	}
	return win
}

func sortU32(s []uint32) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

func atQuantile(q float64) func([]uint32) float64 {
	return func(sorted []uint32) float64 { return quantile(sorted, q) }
}

// rate is acknowledged operations per second over windows [lo, hi).
func (win *windows) rate(lo, hi int) float64 {
	v, _, pooled := windowStat(win.all, lo, hi, minPerWindow, func(s []uint32) float64 { return float64(len(s)) / win.winSec })
	if !pooled {
		return v
	}
	// Too few completions for a window's count to carry digits: each
	// connection's rate between its first and last completion.
	v = 0
	for _, cn := range win.cs {
		v += cn.steadyRate(lo, hi)
	}
	return v
}

// completed counts the operations of kind k the timed phase completed —
// what the counters' deltas over the same phase are shares of.
func (win *windows) completed(k int) float64 {
	n := 0
	for _, w := range win.byKind[k] {
		n += len(w)
	}
	return float64(n)
}

// perKindMetrics reports the per-operation-type medians of the untraced
// windows and returns the put's, in ns.
func perKindMetrics(res *result, w spec, win *windows) (putP50 float64) {
	p50 := func(k int) float64 {
		v, _, _ := windowStat(win.byKind[k], 0, untracedWindows, minPerWindow, atQuantile(0.5))
		return v
	}
	getP50, xferP50 := p50(opGet), p50(opXfer)
	putP50 = p50(opPut)
	if w.RegisterAdd {
		putP50 = p50(opAdd)
	}
	res.set("get_p50_us", getP50/1e3)
	res.set("put_p50_us", putP50/1e3)
	res.set("xfer_p50_us", xferP50/1e3)
	if xferP50 > 0 {
		res.set("server.xfer_extra_ns", xferP50-putP50)
	}
	return putP50
}

// clientSpanMetrics reports the medians of the client spans (single
// operations only: an atomic group is one call) and returns enqueue +
// flush, in ns.
func clientSpanMetrics(res *result, cs []*conn, out io.Writer) (enqFlushNS float64) {
	var enq, flush, wait []int64
	var ops, flushes int64
	for _, cn := range cs {
		for _, sp := range cn.spans {
			if sp.kind == opXfer || sp.end == 0 {
				continue
			}
			enq = append(enq, sp.enqEnd-sp.start)
			flush = append(flush, sp.flushEnd-sp.flushStart)
			wait = append(wait, sp.end-sp.flushEnd)
		}
		ops += cn.burstOps
		flushes += cn.flushes
		if len(cn.spans) == cap(cn.spans) {
			fmt.Fprintf(out, "   trace: connection %d filled its %d spans before the phase ended; later operations ran untraced\n", cn.id, cap(cn.spans))
		}
	}
	for _, s := range [][]int64{enq, flush, wait} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	enqNS, flushNS := quantile(enq, 0.5), quantile(flush, 0.5)
	res.set("client.enqueue_ns", enqNS)
	res.set("client.flush_ns", flushNS)
	res.set("client.wait_ns", quantile(wait, 0.5))
	if flushes > 0 {
		res.set("client.ops_per_flush", float64(ops)/float64(flushes))
	}
	return enqNS + flushNS
}

// counterMetrics reports what the server's, the core's and the
// runtime's own counters say about the timed phase.
func counterMetrics(res *result, w spec, wd *world, win *windows, c *counters) {
	delta := func(f func(wire.Stats) int64) float64 { return float64(f(c.stats[1]) - f(c.stats[0])) }
	if n := win.completed(opGet); n > 0 {
		res.set("server.read_fastpath_share", delta(func(s wire.Stats) int64 { return s.ReadFastpath })/n)
	}
	if n := win.completed(opXfer); n > 0 {
		res.set("server.batch_atomic_share", delta(func(s wire.Stats) int64 { return s.BatchAtomic })/n)
	}
	res.set("server.applied_dupes", delta(func(s wire.Stats) int64 { return s.AppliedDupes }))

	core := shardDelta(c.stats[0].PerShard, c.stats[1].PerShard)
	if core.Acquires > 0 {
		res.set("core.fast_path_share", float64(core.FastPathTakes)/float64(max(core.FastPathTakes+core.SlowPathTakes, 1)))
		res.set("core.spin_polls_per_acquire", float64(core.SpinPolls)/float64(core.Acquires))
		res.set("core.cas_retries_per_acquire", float64(core.CASRetries)/float64(core.Acquires))
		res.set("core.acquire_p50_ns", float64(core.QuantileAcquire(0.5)))
	}
	res.set("core.peak_holders", float64(core.PeakHolders))
	if core.NameAttempts > 0 {
		res.set("renaming.tas_failures_per_name", float64(core.TASFailures)/float64(core.NameAttempts))
	}
	if core.AppliedOps > 0 {
		res.set("resilient.helping_share", float64(core.HelpingEvents)/float64(core.AppliedOps))
	}

	ops := 0.0
	for k := 0; k < numKinds; k++ {
		ops += win.completed(k)
	}
	if ops > 0 {
		res.set("runtime.allocs_per_op", float64(c.mem[1].Mallocs-c.mem[0].Mallocs)/ops)
		res.set("runtime.bytes_per_op", float64(c.mem[1].TotalAlloc-c.mem[0].TotalAlloc)/ops)
	}
	if cpu := c.allCPU[1] - c.allCPU[0]; cpu > 0 {
		res.set("runtime.gc_cpu_share", (c.gcCPU[1]-c.gcCPU[0])/cpu)
	}

	muts := win.completed(opPut) + win.completed(opAdd) + 2*win.completed(opXfer)
	if wd.dir != "" && muts > 0 {
		res.set("durable.wal_bytes_per_op", float64(c.walBytes)/muts)
	}
	if w.Nodes > 1 {
		res.set("cluster.quorum_ack_share", delta(func(s wire.Stats) int64 { return s.QuorumAcks })/max(muts, 1))
		res.set("cluster.replica_lag_lsn_p50", median(c.lag))
		res.set("cluster.notprimary_redirects", delta(func(s wire.Stats) int64 { return s.NotPrimaryRedirects }))
	}
}

func printMetrics(out io.Writer, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		fmt.Fprintf(out, "   metric %-34s %16.4f %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

// shardDelta sums every shard's sink over the timed phase. Peak
// holders is a high-water mark, not a counter: the larger end wins.
func shardDelta(a, b []obs.Snapshot) obs.Snapshot {
	var d obs.Snapshot
	for i := range b {
		var from obs.Snapshot
		if i < len(a) {
			from = a[i]
		}
		d.Acquires += b[i].Acquires - from.Acquires
		d.FastPathTakes += b[i].FastPathTakes - from.FastPathTakes
		d.SlowPathTakes += b[i].SlowPathTakes - from.SlowPathTakes
		d.SpinPolls += b[i].SpinPolls - from.SpinPolls
		d.CASRetries += b[i].CASRetries - from.CASRetries
		d.NameAttempts += b[i].NameAttempts - from.NameAttempts
		d.TASFailures += b[i].TASFailures - from.TASFailures
		d.AppliedOps += b[i].AppliedOps - from.AppliedOps
		d.HelpingEvents += b[i].HelpingEvents - from.HelpingEvents
		for j := range d.LatencyNSPow2 {
			d.LatencyNSPow2[j] += b[i].LatencyNSPow2[j] - from.LatencyNSPow2[j]
		}
		d.PeakHolders = max(d.PeakHolders, b[i].PeakHolders)
	}
	return d
}
