package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"kexclusion/internal/wire"
)

// promPhaseNames is the label set of the kexserved_phase one-hot gauge:
// every lifecycle phase, alphabetically sorted. A phase_test keeps it in
// lock-step with the Phase enum.
var promPhaseNames = []string{"degraded", "draining", "recovering", "running", "starting", "stopped"}

// renderMetrics renders a stats snapshot in the Prometheus text
// exposition format (version 0.0.4). It is a pure function of its
// arguments — the process-level gauges (goroutines, open fds) are
// parameters, not sampled here — so a golden test can pin the output
// byte-for-byte.
//
// Metric families are emitted in strict alphabetical order and every
// family carries HELP and TYPE lines, so scrapes diff cleanly and the
// order never depends on map iteration. Counters end in _total;
// instantaneous values are gauges. Per-shard families carry a shard
// label and one sample per shard, in shard order.
func renderMetrics(st wire.Stats, goroutines, openFDs int) []byte {
	var b strings.Builder
	scalar := func(name, typ, help string, v any) { // v: int64, or float64 seconds
		fmt.Fprintf(&b, "# HELP kexserved_%s %s\n# TYPE kexserved_%s %s\nkexserved_%s %v\n",
			name, help, name, typ, name, v)
	}
	gauge := func(name, help string, v int64) { scalar(name, "gauge", help, v) }
	counter := func(name, help string, v int64) { scalar(name, "counter", help, v) }
	shardFamily := func(name, typ, help string, val func(s wire.Stats, i int) string) {
		fmt.Fprintf(&b, "# HELP kexserved_shard_%s %s\n# TYPE kexserved_shard_%s %s\n",
			name, help, name, typ)
		for i := range st.PerShard {
			fmt.Fprintf(&b, "kexserved_shard_%s{shard=%q} %s\n", name, strconv.Itoa(i), val(st, i))
		}
	}
	shardCounter := func(name, help string, field func(wire.Stats, int) int64) {
		shardFamily(name, "counter", help, func(s wire.Stats, i int) string {
			return strconv.FormatInt(field(s, i), 10)
		})
	}
	shardGauge := func(name, help string, field func(wire.Stats, int) int64) {
		shardFamily(name, "gauge", help, func(s wire.Stats, i int) string {
			return strconv.FormatInt(field(s, i), 10)
		})
	}
	quantileGauge := func(name, help string, q float64) {
		shardFamily(name, "gauge", help, func(s wire.Stats, i int) string {
			return strconv.FormatFloat(s.PerShard[i].QuantileAcquire(q).Seconds(), 'g', -1, 64)
		})
	}
	b01 := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}

	gauge("active_sessions", "Currently leased process identities.", st.ActiveSessions)
	gauge("admit_queue", "Connections parked waiting for an identity (the shed watermarks' input).", st.AdmitQueue)
	counter("admitted_total", "Connections granted an identity lease.", st.Admitted)
	counter("applied_dupes_total", "Mutations answered from the dedup window without re-applying.", st.AppliedDupes)
	counter("apply_run_ops_total", "Mutations carried by the runs apply_runs_total counts; over it, the mean run length.", st.ApplyRunOps)
	counter("apply_runs_total", "Runs of one pipeline's consecutive same-shard mutations, each applied through the universal construction as one operation.", st.ApplyRuns)
	counter("batch_atomic_total", "Atomic groups committed all-or-nothing under one WAL record.", st.BatchAtomic)
	gauge("draining", "1 while graceful shutdown is in progress.", b01(st.Draining))
	gauge("goroutines", "Goroutines in the server process.", int64(goroutines))
	counter("idle_reclaims_total", "Sessions torn down by the idle watchdog.", st.IdleReclaims)
	gauge("inflight_ops", "Object operations currently executing (the shed ceiling's input).", st.InflightOps)
	gauge("k", "Resiliency level: concurrent holders per shard.", int64(st.K))
	scalar("last_promotion_seconds", "gauge", "Catch-up plus epoch bump of the most recent shard takeover (0 before one, and off-cluster).", st.LastPromotion.Seconds())
	counter("lease_demotions_total", "Shards self-demoted on leader lease expiry (0 off-cluster).", st.LeaseDemotions)
	counter("lease_expirations_total", "Leader lease held-to-expired transitions (0 off-cluster).", st.LeaseExpirations)
	gauge("lease_held", "1 while a quorum of peers witnesses this node's leader lease (vacuously 1 off-cluster and at quorum 1).", b01(st.LeaseHeld))
	scalar("lease_margin_seconds", "gauge", "Time until the quorum-th youngest lease witness ages out (0 when the lease is not held or vacuous).", st.LeaseMargin.Seconds())
	gauge("n", "Process identities (max concurrent sessions).", int64(st.N))
	counter("notprimary_redirects_total", "Operations refused with the owning primary's address (never applied here).", st.NotPrimaryRedirects)
	counter("obj_map_ops_total", "Completed operations on map objects.", st.ObjMapOps)
	counter("obj_queue_ops_total", "Completed operations on queue objects.", st.ObjQueueOps)
	counter("obj_register_ops_total", "Completed operations on named register objects.", st.ObjRegisterOps)
	counter("obj_snapshot_ops_total", "Completed operations on k-slot snapshot objects.", st.ObjSnapshotOps)
	counter("op_deadlines_total", "Operations withdrawn on per-op deadline expiry (never applied).", st.OpDeadlines)
	gauge("open_fds", "Open file descriptors in the server process (-1 if unreadable).", int64(openFDs))

	peers := make([]string, 0, len(st.PeerContactAge))
	for id, age := range st.PeerContactAge {
		peers = append(peers, fmt.Sprintf("kexserved_peer_last_contact_age_seconds{peer=%q} %v\n", id, age.Seconds()))
	}
	sort.Strings(peers)
	fmt.Fprintf(&b, "# HELP kexserved_peer_last_contact_age_seconds Time since each cluster peer last reached this node; since start for a peer not heard from (no samples off-cluster).\n# TYPE kexserved_peer_last_contact_age_seconds gauge\n%s", strings.Join(peers, ""))
	fmt.Fprintf(&b, "# HELP kexserved_phase Server lifecycle phase as a one-hot gauge.\n# TYPE kexserved_phase gauge\n")
	for _, name := range promPhaseNames {
		fmt.Fprintf(&b, "kexserved_phase{phase=%q} %d\n", name, b01(st.Phase == name))
	}

	counter("quorum_acks_total", "Client acks released by the replication quorum gate.", st.QuorumAcks)
	counter("read_fastpath_total", "Object reads served from committed state without touching slot, WAL, or quorum.", st.ReadFastpath)

	ready := st.Phase == PhaseRunning.String() || st.Phase == PhaseDegraded.String()
	gauge("ready", "1 when the server passes its readiness probe (running or degraded).", b01(ready))
	counter("reclaimed_total", "Identity leases returned to the pool.", st.Reclaimed)
	gauge("recovered_ops", "Mutations reconstructed from the data directory at startup.", st.RecoveredOps)
	counter("rejected_total", "Connections rejected by admission backpressure.", st.Rejected)
	counter("repl_pulls_served_total", "Replication pulls answered from this node's WAL (0 off-cluster).", st.ReplPullsServed)
	counter("repl_records_served_total", "Records those pulls shipped: each of this node's own records once per follower (0 off-cluster).", st.ReplRecordsServed)
	gauge("replica_lag_lsn", "Worst follower lag behind this node's WAL end, in records (0 off-cluster).", st.ReplicaLagLSN)
	gauge("restart_count", "Prior incarnations that opened this data directory.", st.RestartCount)

	shardCounter("aborts_total", "Bounded withdrawals from entry sections.", func(s wire.Stats, i int) int64 { return s.PerShard[i].Aborts })
	quantileGauge("acquire_latency_p50_seconds", "Median slot-acquisition latency (upper bucket edge).", 0.5)
	quantileGauge("acquire_latency_p99_seconds", "99th-percentile slot-acquisition latency (upper bucket edge).", 0.99)
	shardCounter("acquires_total", "Completed slot acquisitions.", func(s wire.Stats, i int) int64 { return s.PerShard[i].Acquires })
	shardCounter("applied_ops_total", "Universal-construction applications, not mutations: one per run (apply_runs_total), per atomic-group shard install and per replicated record or state install.", func(s wire.Stats, i int) int64 { return s.PerShard[i].AppliedOps })
	shardCounter("cas_retries_total", "Failed bounded-decrement CAS attempts.", func(s wire.Stats, i int) int64 { return s.PerShard[i].CASRetries })
	shardCounter("crash_charges_total", "Injected slot-costing crashes.", func(s wire.Stats, i int) int64 { return s.PerShard[i].CrashCharges })
	shardGauge("current_holders", "Slots currently held.", func(s wire.Stats, i int) int64 { return s.PerShard[i].CurrentHolders })
	shardCounter("deadline_expirations_total", "Operations cut short by serving-edge deadlines.", func(s wire.Stats, i int) int64 { return s.PerShard[i].DeadlineExpirations })
	shardCounter("dupe_hits_total", "Mutations answered from the dedup window.", func(s wire.Stats, i int) int64 { return s.PerShard[i].DupeHits })
	shardCounter("fast_path_takes_total", "Acquisitions that took the bounded-decrement fast path.", func(s wire.Stats, i int) int64 { return s.PerShard[i].FastPathTakes })
	shardCounter("helping_events_total", "Operations applied on behalf of other processes.", func(s wire.Stats, i int) int64 { return s.PerShard[i].HelpingEvents })
	shardCounter("name_attempts_total", "Long-lived renaming acquisitions.", func(s wire.Stats, i int) int64 { return s.PerShard[i].NameAttempts })
	shardGauge("peak_holders", "Peak concurrent slot holders.", func(s wire.Stats, i int) int64 { return s.PerShard[i].PeakHolders })
	shardCounter("releases_total", "Slot returns.", func(s wire.Stats, i int) int64 { return s.PerShard[i].Releases })
	shardCounter("slow_path_takes_total", "Acquisitions that paid the arbitration-tree slow path.", func(s wire.Stats, i int) int64 { return s.PerShard[i].SlowPathTakes })
	shardCounter("spin_polls_total", "Busy-wait condition evaluations.", func(s wire.Stats, i int) int64 { return s.PerShard[i].SpinPolls })
	shardCounter("tas_failures_total", "Failed test&set probes during renaming.", func(s wire.Stats, i int) int64 { return s.PerShard[i].TASFailures })
	shardCounter("yields_total", "Scheduler yields during busy waits.", func(s wire.Stats, i int) int64 { return s.PerShard[i].Yields })

	gauge("shards", "Independent objects in the table.", int64(st.Shards))
	counter("shed_admissions_total", "Connections refused by the load-shedding watermark policy.", st.ShedAdmissions)
	counter("shed_ops_total", "Operations refused by the in-flight ceiling (never applied).", st.ShedOps)
	scalar("wal_fsync_seconds_total", "counter", "Time spent inside WAL fsyncs; over wal_fsyncs_total it is the mean fsync.", time.Duration(st.WALFsyncNanos).Seconds())
	counter("wal_fsyncs_total", "Fsyncs the WAL has issued (0 without a data directory).", st.WALFsyncs)
	counter("wal_read_bytes_total", "Bytes log readers (replication pulls) have read off disk from sealed WAL segments; a caught-up follower costs none.", st.WALReadBytes)

	return []byte(b.String())
}
