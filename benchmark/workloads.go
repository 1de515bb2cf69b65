package main

import "kexclusion/internal/durable"

// spec is one workload: which server it builds and what traffic it
// sends. Everything not named here is at its kexserved default
// (SnapshotEvery 1024, DedupWindow 1024, FsyncInterval 50 ms) with
// N = connections + 2, K = 2 and 4 shards.
type spec struct {
	Name string
	Why  string

	// Durable gives the server a DataDir; Fsync is then its policy
	// (the zero value is SyncAlways, kexserved's default).
	Durable bool
	Fsync   durable.SyncPolicy
	// Nodes > 1 builds an in-process cluster at majority quorum and
	// sends every operation to shard 0's primary.
	Nodes int

	// Depth is the closed loop's pipeline depth. OpenRate > 0 makes the
	// loop open instead: Poisson arrivals at that total rate, bursts of
	// at most durable.DedupDepth.
	Depth    int
	OpenRate float64
	// LimitP99us is the latency limit an open-loop run must meet.
	LimitP99us float64

	// GetPct and XferPct split the operations; the rest are puts.
	// RegisterAdd replaces the whole mix with legacy Add(0, 1).
	GetPct, XferPct int
	RegisterAdd     bool

	// KeysPerMap sizes the one map each shard holds. Registers is the
	// number of further objects per shard, DedupFill the number of
	// foreign sessions written into each shard's dedup window at set-up.
	KeysPerMap int
	Registers  int
	DedupFill  int
}

const (
	shards     = 4
	kSlots     = 2
	openBurst  = durable.DedupDepth // deeper pipelining onto one shard loses exactly-once cover
	numWindows = 10
)

var workloads = []spec{
	{
		Name: "mem-mix",
		Why: "In-memory 45/45/10 get/put/two-shard atomic transfer at depth 1: the cheapest op served, mostly wire, session " +
			"loop and sockets; gets bypass the k-exclusion slot, puts and groups do not.",
		Depth: 1, GetPct: 45, XferPct: 10,
		KeysPerMap: 1024, Registers: 2,
	},
	{
		Name: "large-state",
		Why: "In-memory 30/70 get/put on 16384-key maps, 64 objects and a full 1024-session dedup window per shard: " +
			"ShardState.Clone and bucket copies are most of a put and none of a get.",
		Depth: 1, GetPct: 30,
		KeysPerMap: 16384, Registers: 63, DedupFill: 1024,
	},
	{
		Name: "wal-group",
		Why: "fsync=always (the kexserved default), closed loop of depth-8 pipelined puts: saturation throughput of group " +
			"commit and the single Log mutex; the slot path does almost nothing.",
		Durable: true, Depth: 8,
		KeysPerMap: 1024,
	},
	{
		Name: "wal-open",
		Why: "wal-group's server under open-loop Poisson arrivals at 8000 puts/s, latency from the due time, limit p99 <= 5 " +
			"ms: what a durable write costs when arrivals do not wait for replies.",
		Durable: true, OpenRate: 8000, LimitP99us: 5000,
		KeysPerMap: 1024,
	},
	{
		Name: "wal-tick",
		Why: "fsync=interval 50 ms, closed loop of depth-1 puts: every ack waits for the next tick (~40 ops/s, p50 ~50 ms); " +
			"a commit-when-ready change must move this and leave wal-group and wal-open alone.",
		Durable: true, Fsync: durable.SyncInterval, Depth: 1,
		KeysPerMap: 64, // every preload burst waits one tick
	},
	{
		Name: "quorum-put",
		Why: "3 in-process nodes, majority quorum, fsync=always on each, no injected delay, depth-8 register adds at shard " +
			"0's primary: the only workload with pull, quorum wait and lease gate on the ack path.",
		Durable: true, Nodes: 3, Depth: 8, RegisterAdd: true,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}
