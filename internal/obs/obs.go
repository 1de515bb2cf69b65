// Package obs is the acquisition-metrics observability layer for the
// native (goroutine) stack. The paper counts remote memory references
// per acquisition; the simulator reproduces that metric exactly, but the
// sync/atomic implementations in internal/core run on real cache
// hardware where the analogous costs — spin polls, scheduler yields, CAS
// retries, slow-path takes — are invisible unless counted. A Metrics
// sink makes them visible: every counter lives alone on its cache line,
// every write is a plain atomic add, and a nil *Metrics is a valid sink
// whose every method is a no-op, so uninstrumented code paths keep their
// current cost (the nil-sink zero-overhead contract; see
// BenchmarkObsOverhead in internal/core).
//
// Snapshot is safe to call concurrently with writers: each counter is
// read atomically, though the cut across counters is not a consistent
// global state (a reader racing an Acquired call may see the acquisition
// counted but its latency bucket not yet incremented). Snapshots marshal
// to deterministic JSON — fixed field order, fixed-length histogram — so
// reports built from them have a stable schema across runs.
package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is an atomic counter alone on its cache line, preventing
// false sharing between independently-updated metrics.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reads the counter.
func (c *Counter) Load() int64 { return c.v.Load() }

// LatencyBuckets is the fixed number of power-of-two latency histogram
// buckets: bucket i counts acquisitions whose latency in nanoseconds
// has bit-length i (i.e. lies in [2^(i-1), 2^i) for i >= 1; bucket 0 is
// sub-nanosecond). 63 bits of nanoseconds is ~292 years, so the last
// bucket also absorbs any overflow.
const LatencyBuckets = 32

// Metrics is a sink of acquisition metrics shared by every layer of the
// native stack: internal/core feeds the acquisition, path, spin and CAS
// counters; internal/renaming the name counters; internal/resilient the
// applied/helping counters; internal/faultinject the crash charges. All
// methods are safe for concurrent use and are no-ops on a nil receiver,
// so a single `m *obs.Metrics` field, left nil, costs one predicted
// branch per call site.
type Metrics struct {
	acquires   Counter
	releases   Counter
	fastPath   Counter
	slowPath   Counter
	spinPolls  Counter
	yields     Counter
	casRetries Counter

	nameAttempts Counter
	tasFailures  Counter

	appliedOps    Counter
	helpingEvents Counter

	crashCharges Counter

	aborts    Counter
	deadlines Counter
	dupeHits  Counter

	holders Counter
	peak    Counter

	latency [LatencyBuckets]Counter
}

// New creates an empty metrics sink.
func New() *Metrics { return &Metrics{} }

// latencyBucket maps a duration to its power-of-two histogram bucket.
func latencyBucket(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d))
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	return b
}

// Acquired records one completed acquisition with its entry latency:
// the acquisition count, the latency histogram, and current/peak slot
// occupancy.
func (m *Metrics) Acquired(d time.Duration) {
	if m == nil {
		return
	}
	m.acquires.Add(1)
	m.latency[latencyBucket(d)].Add(1)
	cur := m.holders.v.Add(1)
	for {
		p := m.peak.v.Load()
		if cur <= p || m.peak.v.CompareAndSwap(p, cur) {
			return
		}
	}
}

// Released records one release. Call it before the slot is given up (as
// Acquired is called after it is taken), so the holders gauge and its
// peak never read above the true occupancy: a release counted after the
// fact lets the next holder be counted first, and the peak reads k+1.
func (m *Metrics) Released() {
	if m == nil {
		return
	}
	m.releases.Add(1)
	m.holders.v.Add(-1)
}

// Path records which path a fast-path composition took: slow=false is a
// bounded-decrement fast take, slow=true paid the arbitration-tree (or
// nested-level) slow path.
func (m *Metrics) Path(slow bool) {
	if m == nil {
		return
	}
	if slow {
		m.slowPath.Add(1)
	} else {
		m.fastPath.Add(1)
	}
}

// Spun records one busy-wait: polls condition evaluations, of which
// yields handed the processor back via runtime.Gosched. Call once per
// wait with locally-accumulated totals, not per poll.
func (m *Metrics) Spun(polls, yields int64) {
	if m == nil {
		return
	}
	m.spinPolls.Add(polls)
	if yields != 0 {
		m.yields.Add(yields)
	}
}

// CASRetried records n failed compare-and-swap attempts of a bounded
// decrement (the paper's footnote-2 primitive) — the native analogue of
// the coherence traffic a contended counter generates.
func (m *Metrics) CASRetried(n int64) {
	if m == nil || n == 0 {
		return
	}
	m.casRetries.Add(n)
}

// NameAcquired records one long-lived renaming acquisition that observed
// tasFailures failed test&set probes before settling on a name.
func (m *Metrics) NameAcquired(tasFailures int64) {
	if m == nil {
		return
	}
	m.nameAttempts.Add(1)
	if tasFailures != 0 {
		m.tasFailures.Add(tasFailures)
	}
}

// OpApplied records one operation applied through the wait-free
// universal construction on behalf of its caller.
func (m *Metrics) OpApplied() {
	if m == nil {
		return
	}
	m.appliedOps.Add(1)
}

// Helped records n operations a process applied on behalf of *other*
// processes while installing a new version — the helping that makes the
// construction wait-free.
func (m *Metrics) Helped(n int64) {
	if m == nil || n == 0 {
		return
	}
	m.helpingEvents.Add(n)
}

// CrashCharged records one injected crash that permanently consumed a
// slot (entry, holding and mid-renaming crashes; exit crashes cost
// none).
func (m *Metrics) CrashCharged() {
	if m == nil {
		return
	}
	m.crashCharges.Add(1)
}

// Aborted records one bounded withdrawal from an entry section: an
// AcquireCtx whose context expired, or a TryAcquire that found no free
// slot, gave up before a slot was granted. Unlike a crash charge a
// withdrawal costs no slot — the entry section's bookkeeping is undone.
func (m *Metrics) Aborted() {
	if m == nil {
		return
	}
	m.aborts.Add(1)
}

// DeadlineExpired records one operation cut short by a deadline at the
// serving edge: a per-op timeout, or the idle watchdog reclaiming a
// silent session's identity.
func (m *Metrics) DeadlineExpired() {
	if m == nil {
		return
	}
	m.deadlines.Add(1)
}

// DupeHit records one mutation answered from the dedup window at the
// serving edge: a retried operation whose first application was
// already linearized, re-acknowledged with its original result instead
// of being applied again.
func (m *Metrics) DupeHit() {
	if m == nil {
		return
	}
	m.dupeHits.Add(1)
}

// Snapshot is a point-in-time copy of a Metrics sink. Field order (and
// therefore JSON key order) is fixed, and the latency histogram always
// has LatencyBuckets entries, so the marshalled schema is deterministic.
type Snapshot struct {
	// Acquires and Releases count completed slot acquisitions and
	// returns across every instrumented object sharing the sink.
	Acquires int64 `json:"acquires"`
	Releases int64 `json:"releases"`
	// FastPathTakes and SlowPathTakes split acquisitions of fast-path
	// compositions by the path taken.
	FastPathTakes int64 `json:"fast_path_takes"`
	SlowPathTakes int64 `json:"slow_path_takes"`
	// SpinPolls counts busy-wait condition evaluations; Yields counts
	// the runtime.Gosched calls interleaved among them.
	SpinPolls int64 `json:"spin_polls"`
	Yields    int64 `json:"yields"`
	// CASRetries counts failed bounded-decrement CAS attempts.
	CASRetries int64 `json:"cas_retries"`
	// NameAttempts counts long-lived renaming acquisitions; TASFailures
	// the failed test&set probes they paid.
	NameAttempts int64 `json:"name_attempts"`
	TASFailures  int64 `json:"tas_failures"`
	// AppliedOps counts operations applied through the universal
	// construction; HelpingEvents those applied on behalf of others.
	AppliedOps    int64 `json:"applied_ops"`
	HelpingEvents int64 `json:"helping_events"`
	// CrashCharges counts injected slot-costing crashes.
	CrashCharges int64 `json:"crash_charges"`
	// Aborts counts bounded withdrawals from entry sections (expired
	// AcquireCtx contexts and failed TryAcquires); DeadlineExpirations
	// counts operations cut short by serving-edge deadlines.
	Aborts              int64 `json:"aborts"`
	DeadlineExpirations int64 `json:"deadline_expirations"`
	// DupeHits counts mutations answered from the dedup window (retried
	// ops re-acknowledged without re-applying).
	DupeHits int64 `json:"dupe_hits"`
	// CurrentHolders and PeakHolders track slot occupancy.
	CurrentHolders int64 `json:"current_holders"`
	PeakHolders    int64 `json:"peak_holders"`
	// LatencyNSPow2[i] counts acquisitions whose entry latency in
	// nanoseconds has bit-length i (power-of-two buckets).
	LatencyNSPow2 [LatencyBuckets]int64 `json:"latency_ns_pow2"`
}

// Snapshot copies the sink's counters. Safe to call concurrently with
// writers; a nil receiver yields the zero Snapshot.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	s.Acquires = m.acquires.Load()
	s.Releases = m.releases.Load()
	s.FastPathTakes = m.fastPath.Load()
	s.SlowPathTakes = m.slowPath.Load()
	s.SpinPolls = m.spinPolls.Load()
	s.Yields = m.yields.Load()
	s.CASRetries = m.casRetries.Load()
	s.NameAttempts = m.nameAttempts.Load()
	s.TASFailures = m.tasFailures.Load()
	s.AppliedOps = m.appliedOps.Load()
	s.HelpingEvents = m.helpingEvents.Load()
	s.CrashCharges = m.crashCharges.Load()
	s.Aborts = m.aborts.Load()
	s.DeadlineExpirations = m.deadlines.Load()
	s.DupeHits = m.dupeHits.Load()
	s.CurrentHolders = m.holders.Load()
	s.PeakHolders = m.peak.Load()
	for i := range s.LatencyNSPow2 {
		s.LatencyNSPow2[i] = m.latency[i].Load()
	}
	return s
}

// JSON marshals the snapshot to its deterministic encoding.
func (s Snapshot) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Snapshot contains only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("obs: snapshot encoding failed: %v", err))
	}
	return b
}

// String renders a compact human-readable summary.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "acquires=%d releases=%d fast=%d slow=%d", s.Acquires, s.Releases, s.FastPathTakes, s.SlowPathTakes)
	fmt.Fprintf(&b, " spin_polls=%d yields=%d cas_retries=%d", s.SpinPolls, s.Yields, s.CASRetries)
	fmt.Fprintf(&b, " names=%d tas_failures=%d", s.NameAttempts, s.TASFailures)
	fmt.Fprintf(&b, " applied=%d helped=%d crash_charges=%d", s.AppliedOps, s.HelpingEvents, s.CrashCharges)
	fmt.Fprintf(&b, " aborts=%d deadlines=%d dupe_hits=%d", s.Aborts, s.DeadlineExpirations, s.DupeHits)
	fmt.Fprintf(&b, " holders=%d peak=%d p50_acquire=%s", s.CurrentHolders, s.PeakHolders, s.QuantileAcquire(0.5))
	return b.String()
}

// QuantileAcquire reports an upper bound on the q-quantile acquisition
// latency from the power-of-two histogram (the upper edge of the bucket
// the quantile falls in). Zero when nothing was recorded.
func (s Snapshot) QuantileAcquire(q float64) time.Duration {
	total := int64(0)
	for _, c := range s.LatencyNSPow2 {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := int64(float64(total) * q)
	if target < 1 {
		target = 1
	}
	seen := int64(0)
	for i, c := range s.LatencyNSPow2 {
		seen += c
		if seen >= target {
			return time.Duration(int64(1) << uint(i))
		}
	}
	return time.Duration(int64(1) << (LatencyBuckets - 1))
}
