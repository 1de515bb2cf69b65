package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"kexclusion/internal/obs"
)

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, Status: StatusOK, Value: 99},
		{ID: 2, Status: StatusBadShard, Value: 0, Data: []byte("shard 9 out of range")},
		{ID: 3, Status: StatusOK, Data: []byte(`{"n":4}`)},
		{ID: 4, Status: StatusDraining, Value: -7},
		{ID: 5, Status: StatusOK, Flags: FlagDuplicate, Value: 12},
	}
	var buf bytes.Buffer
	for _, want := range cases {
		buf.Reset()
		if err := WriteResponse(&buf, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got.ID != want.ID || got.Status != want.Status || got.Flags != want.Flags || got.Value != want.Value || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	cases := []Hello{
		{Status: StatusOK, Identity: 3, N: 64, K: 8, Shards: 16},
		{Status: StatusBusy, Msg: "all 64 identities leased"},
		{Status: StatusBusy, RetryAfterMillis: 750, Msg: "all leased; come back"},
		{Status: StatusOK, Identity: 1, N: 4, K: 2, Shards: 1, RetryAfterMillis: 1 << 31},
	}
	var buf bytes.Buffer
	for _, want := range cases {
		buf.Reset()
		if err := WriteHello(&buf, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadHello(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestHelloRejectsBadMagic(t *testing.T) {
	h := Hello{Status: StatusOK}
	b := h.Encode()
	binary.BigEndian.PutUint32(b[0:], 0xdeadbeef)
	if _, err := ParseHello(b); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want magic error, got %v", err)
	}
}

func TestFrameLimits(t *testing.T) {
	// Oversized announcement is rejected before allocation, with the
	// typed sentinel so a server can answer before hanging up.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame announcement: got %v, want ErrFrameTooLarge", err)
	}
	// Oversized write is rejected.
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame write not rejected")
	}
	// Truncated payload is an error, not a short read.
	var buf bytes.Buffer
	binary.BigEndian.PutUint32(hdr[:], 10)
	buf.Write(hdr[:])
	buf.WriteString("short")
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame not rejected")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseResponse(make([]byte, 5)); err == nil {
		t.Error("short response accepted")
	}
	// Response with a data length that disagrees with the payload.
	r := Response{ID: 1, Data: []byte("abc")}
	b := r.Encode()
	binary.BigEndian.PutUint32(b[18:], 99)
	if _, err := ParseResponse(b); err == nil {
		t.Error("inconsistent data length accepted")
	}
}

func TestErrorModel(t *testing.T) {
	if err := (Response{Status: StatusOK}).Err(); err != nil {
		t.Fatalf("OK response produced error %v", err)
	}
	// Every acknowledged op goes through Err: the OK path must not build
	// (and heap-allocate) the error it is about to discard.
	ok := Response{Status: StatusOK, Data: []byte("a stats payload")}
	if n := testing.AllocsPerRun(100, func() { _ = ok.Err() }); n != 0 {
		t.Fatalf("Err on an OK response allocates %v times, want 0", n)
	}
	err := (Response{Status: StatusBusy, Data: []byte("park elsewhere")}).Err()
	var we *Error
	if !errors.As(err, &we) {
		t.Fatalf("want *wire.Error, got %T", err)
	}
	if we.Status != StatusBusy || !strings.Contains(we.Error(), "busy") || !strings.Contains(we.Error(), "park elsewhere") {
		t.Errorf("bad error: %v", we)
	}
	// A busy response's Value carries the Retry-After hint; Err lifts it.
	err = (Response{Status: StatusBusy, Value: 250, Data: []byte("shed")}).Err()
	if !errors.As(err, &we) || we.RetryAfterMillis != 250 {
		t.Errorf("busy hint not lifted: %v", err)
	}
	// Non-busy statuses never grow a hint, whatever Value holds.
	err = (Response{Status: StatusDraining, Value: 99}).Err()
	if !errors.As(err, &we) || we.RetryAfterMillis != 0 {
		t.Errorf("non-busy error grew a hint: %v", err)
	}
	// Every named status has a stable string (no fallthrough to the
	// numeric form).
	for _, s := range []Status{StatusOK, StatusBusy, StatusBadRequest, StatusBadShard, StatusDraining, StatusInternal, StatusTimeout, StatusNotPrimary} {
		if strings.HasPrefix(s.String(), "status(") {
			t.Errorf("status %d has no name", s)
		}
	}
	for _, k := range []Kind{KindPing, KindGet, KindAdd, KindSet, KindStats} {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	m := obs.New()
	m.Acquired(5)
	m.Released()
	s := Stats{
		N: 8, K: 2, Shards: 4, Impl: "fastpath",
		ActiveSessions: 3, Admitted: 10, Rejected: 2, Reclaimed: 7,
		IdleReclaims: 4, OpDeadlines: 6,
		AppliedDupes: 5, RecoveredOps: 11, RestartCount: 1,
		AdmitQueue: 12, InflightOps: 13, ShedAdmissions: 14, ShedOps: 15,
		NotPrimaryRedirects: 16, QuorumAcks: 17, ReplicaLagLSN: 18,
		LeaseHeld: true, LeaseExpirations: 19, LeaseDemotions: 20,
		LeaseMargin: 21, LastPromotion: 22, PeerContactAge: map[string]time.Duration{"b": 23, "c": 24},
		Phase:    "degraded",
		Draining: true,
		PerShard: []obs.Snapshot{m.Snapshot()},
	}
	got, err := ParseStats(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 8 || got.Impl != "fastpath" || !got.Draining || len(got.PerShard) != 1 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.IdleReclaims != 4 || got.OpDeadlines != 6 {
		t.Errorf("watchdog counters lost: %+v", got)
	}
	if got.AppliedDupes != 5 || got.RecoveredOps != 11 || got.RestartCount != 1 {
		t.Errorf("durability counters lost: %+v", got)
	}
	if got.AdmitQueue != 12 || got.InflightOps != 13 || got.ShedAdmissions != 14 || got.ShedOps != 15 || got.Phase != "degraded" {
		t.Errorf("lifecycle/shed fields lost: %+v", got)
	}
	if got.NotPrimaryRedirects != 16 || got.QuorumAcks != 17 || got.ReplicaLagLSN != 18 {
		t.Errorf("cluster counters lost: %+v", got)
	}
	if !got.LeaseHeld || got.LeaseExpirations != 19 || got.LeaseDemotions != 20 {
		t.Errorf("lease fields lost: %+v", got)
	}
	if got.LeaseMargin != 21 || got.LastPromotion != 22 || got.PeerContactAge["b"] != 23 || got.PeerContactAge["c"] != 24 {
		t.Errorf("contact fields lost: %+v", got)
	}
	for _, key := range []string{"idle_reclaims", "op_deadlines", "applied_dupes", "recovered_ops", "restart_count", "admit_queue", "inflight_ops", "phase", "shed_admissions", "shed_ops", "notprimary_redirects", "quorum_acks", "replica_lag_lsn", "lease_held", "lease_expirations", "lease_demotions"} {
		if !bytes.Contains(s.JSON(), []byte(`"`+key+`"`)) {
			t.Errorf("stats JSON missing %q", key)
		}
	}
	if got.PerShard[0].Acquires != 1 || got.PerShard[0].Releases != 1 {
		t.Errorf("snapshot not preserved: %+v", got.PerShard[0])
	}
	if _, err := ParseStats([]byte("{")); err == nil {
		t.Error("bad stats payload accepted")
	}
}

// TestStatsJSONGolden pins the stats schema byte-for-byte: keys are
// alphabetically sorted (the struct declares fields in key order), so
// tooling that diffs or greps dumps sees a stable layout. Adding a
// field means updating this golden string — deliberately.
func TestStatsJSONGolden(t *testing.T) {
	s := Stats{
		ActiveSessions: 1, AdmitQueue: 10, Admitted: 2, AppliedDupes: 3,
		ApplyRunOps: 34, ApplyRuns: 33, BatchAtomic: 19, Draining: true, IdleReclaims: 4, Impl: "fastpath",
		InflightOps: 11, K: 2, LastPromotion: 29, LeaseDemotions: 18, LeaseExpirations: 17,
		LeaseHeld: true, LeaseMargin: 30, N: 8, NotPrimaryRedirects: 14,
		ObjMapOps: 20, ObjQueueOps: 21, ObjRegisterOps: 22, ObjSnapshotOps: 23,
		OpDeadlines: 5, PeerContactAge: map[string]time.Duration{"node-b": 31}, PerShard: nil,
		Phase: "running", QuorumAcks: 15, ReadFastpath: 24, Reclaimed: 6,
		RecoveredOps: 7, Rejected: 8, ReplPullsServed: 25, ReplRecordsServed: 32, ReplicaLagLSN: 16,
		RestartCount: 9, Shards: 4, ShedAdmissions: 12, ShedOps: 13,
		WALFsyncNanos: 28, WALFsyncs: 26, WALReadBytes: 27,
	}
	const want = `{"active_sessions":1,"admit_queue":10,"admitted":2,"applied_dupes":3,` +
		`"apply_run_ops":34,"apply_runs":33,"batch_atomic":19,` +
		`"draining":true,"idle_reclaims":4,"impl":"fastpath","inflight_ops":11,` +
		`"k":2,"last_promotion_ns":29,"lease_demotions":18,"lease_expirations":17,"lease_held":true,` +
		`"lease_margin_ns":30,"n":8,"notprimary_redirects":14,` +
		`"obj_map_ops":20,"obj_queue_ops":21,"obj_register_ops":22,"obj_snapshot_ops":23,` +
		`"op_deadlines":5,"peer_contact_age_ns":{"node-b":31},"per_shard":null,` +
		`"phase":"running","quorum_acks":15,"read_fastpath":24,"reclaimed":6,` +
		`"recovered_ops":7,` +
		`"rejected":8,"repl_pulls_served":25,"repl_records_served":32,"replica_lag_lsn":16,` +
		`"restart_count":9,"shards":4,"shed_admissions":12,"shed_ops":13,` +
		`"wal_fsync_ns":28,"wal_fsyncs":26,"wal_read_bytes":27}`
	if got := string(s.JSON()); got != want {
		t.Fatalf("stats JSON drifted from golden schema:\n got  %s\n want %s", got, want)
	}
	// Belt and braces: top-level keys must appear in sorted order.
	var keys []string
	for _, part := range strings.Split(want[1:len(want)-1], ",") {
		keys = append(keys, strings.SplitN(part, ":", 2)[0])
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("golden keys are not sorted: %v", keys)
	}
}
