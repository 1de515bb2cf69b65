package server

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"kexclusion/internal/obs"
	"kexclusion/internal/wire"
)

// Regenerate the golden with:
//
//	go test ./internal/server -run RenderMetricsGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenStats builds a fully-populated stats snapshot with fixed values
// so renderMetrics' output is a pure constant.
func goldenStats() wire.Stats {
	var snap obs.Snapshot
	snap.Acquires = 100
	snap.Releases = 99
	snap.FastPathTakes = 90
	snap.SlowPathTakes = 10
	snap.SpinPolls = 1234
	snap.Yields = 56
	snap.CASRetries = 7
	snap.NameAttempts = 100
	snap.TASFailures = 3
	snap.AppliedOps = 80
	snap.HelpingEvents = 4
	snap.Aborts = 2
	snap.DeadlineExpirations = 1
	snap.DupeHits = 5
	snap.CurrentHolders = 1
	snap.PeakHolders = 2
	// p50 lands in bucket 10 (2^10 ns), p99 in bucket 20 (2^20 ns).
	snap.LatencyNSPow2[10] = 98
	snap.LatencyNSPow2[20] = 2
	var idle obs.Snapshot // second shard: untouched
	return wire.Stats{
		ActiveSessions: 3, AdmitQueue: 1, Admitted: 42, AppliedDupes: 5,
		ApplyRunOps: 71, ApplyRuns: 12, BatchAtomic: 6, Draining: false, IdleReclaims: 2, Impl: "fastpath",
		InflightOps: 4, K: 2, LastPromotion: 7500 * time.Microsecond,
		LeaseDemotions: 2, LeaseExpirations: 1,
		LeaseHeld: true, LeaseMargin: 850 * time.Millisecond,
		N: 8, ObjMapOps: 21, ObjQueueOps: 13,
		ObjRegisterOps: 8, ObjSnapshotOps: 2, OpDeadlines: 1,
		PeerContactAge: map[string]time.Duration{"node-c": 2 * time.Second, "node-b": 150 * time.Millisecond},
		PerShard:       []obs.Snapshot{snap, idle},
		Phase:          "degraded", ReadFastpath: 33, Reclaimed: 39,
		RecoveredOps: 17, Rejected: 6, ReplPullsServed: 14, ReplRecordsServed: 28, RestartCount: 3,
		Shards: 2, ShedAdmissions: 11, ShedOps: 9,
		WALFsyncNanos: 3_250_000, WALFsyncs: 15, WALReadBytes: 4096,
	}
}

// TestRenderMetricsGolden pins the Prometheus exposition byte-for-byte:
// family order, HELP/TYPE text, label layout, and number formatting are
// all part of the contract a scraper and its dashboards depend on.
// Adding a metric means regenerating the golden — deliberately.
func TestRenderMetricsGolden(t *testing.T) {
	got := renderMetrics(goldenStats(), 12, 34)
	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("metrics output drifted from golden at line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
		t.Fatal("metrics output drifted from golden (length only)")
	}
}

// TestRenderMetricsFamiliesSortedAndComplete: families appear in strict
// alphabetical order, each exactly once, each with HELP and TYPE.
func TestRenderMetricsFamiliesSortedAndComplete(t *testing.T) {
	out := string(renderMetrics(goldenStats(), 12, 34))
	var families []string
	typed := map[string]bool{}
	helped := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			if helped[name] {
				t.Fatalf("family %s has two HELP lines", name)
			}
			helped[name] = true
			families = append(families, name)
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if parts[1] != "gauge" && parts[1] != "counter" {
				t.Fatalf("family %s has type %q", parts[0], parts[1])
			}
			typed[parts[0]] = true
		case line == "":
		default:
			name := strings.SplitN(line, "{", 2)[0]
			name = strings.SplitN(name, " ", 2)[0]
			if !helped[name] || !typed[name] {
				t.Fatalf("sample %q precedes its HELP/TYPE", line)
			}
			if !strings.HasPrefix(name, "kexserved_") {
				t.Fatalf("sample %q lacks the kexserved_ namespace", line)
			}
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Fatalf("families not alphabetically sorted:\n%s", strings.Join(families, "\n"))
	}
	if len(families) == 0 {
		t.Fatal("no families rendered")
	}
	for name := range typed {
		if !helped[name] {
			t.Fatalf("family %s has TYPE but no HELP", name)
		}
	}
}

func opsGet(t *testing.T, o *Ops, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestOpsHealthzAlwaysOK(t *testing.T) {
	lc := NewLifecycle()
	o := NewOps(lc)
	for _, p := range []Phase{PhaseRecovering, PhaseRunning, PhaseDraining, PhaseStopped} {
		lc.advance(p)
		if code, body := opsGet(t, o, "/healthz"); code != http.StatusOK || body != "ok\n" {
			t.Fatalf("in %v: /healthz = %d %q, want 200 ok", p, code, body)
		}
	}
}

// TestOpsReadyzTracksPhase pins the readiness contract: not-ready while
// starting, recovering, draining and stopped; ready while running AND
// degraded (a degraded server still serves admitted sessions). The body
// always names the phase so an operator can read the probe.
func TestOpsReadyzTracksPhase(t *testing.T) {
	lc := NewLifecycle()
	o := NewOps(lc)
	steps := []struct {
		to   Phase
		code int
	}{
		{PhaseStarting, http.StatusServiceUnavailable},
		{PhaseRecovering, http.StatusServiceUnavailable},
		{PhaseRunning, http.StatusOK},
		{PhaseDegraded, http.StatusOK},
		{PhaseRunning, http.StatusOK},
		{PhaseDraining, http.StatusServiceUnavailable},
		{PhaseStopped, http.StatusServiceUnavailable},
	}
	for _, st := range steps {
		lc.advance(st.to)
		code, body := opsGet(t, o, "/readyz")
		if code != st.code {
			t.Fatalf("in %v: /readyz = %d, want %d", st.to, code, st.code)
		}
		if body != st.to.String()+"\n" {
			t.Fatalf("in %v: /readyz body = %q, want the phase name", st.to, body)
		}
	}
}

// TestOpsMetricsBeforeAttach: the ops listener answers /metrics during
// the recovery window, before any Server exists — phase and process
// gauges only, zero server stats.
func TestOpsMetricsBeforeAttach(t *testing.T) {
	lc := NewLifecycle()
	lc.advance(PhaseRecovering)
	o := NewOps(lc)
	code, body := opsGet(t, o, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	for _, want := range []string{
		`kexserved_phase{phase="recovering"} 1`,
		`kexserved_phase{phase="running"} 0`,
		"kexserved_ready 0\n",
		"kexserved_goroutines ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics before attach missing %q:\n%s", want, body)
		}
	}
}

// TestOpsEndToEnd runs a real server with a real ops listener: probes
// flip with the lifecycle and /metrics reflects live server stats.
func TestOpsEndToEnd(t *testing.T) {
	lc := NewLifecycle()
	o := NewOps(lc)
	opsAddr, err := o.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	s, err := New(Config{N: 4, K: 2, Shards: 2, Lifecycle: lc})
	if err != nil {
		t.Fatal(err)
	}
	o.Attach(s)
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Shutdown(t.Context())

	httpGet := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", opsAddr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	waitReady := func(want int) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if code, _ := httpGet("/readyz"); code == want {
				return
			}
		}
		code, body := httpGet("/readyz")
		t.Fatalf("/readyz stuck at %d %q, want %d", code, body, want)
	}
	waitReady(http.StatusOK)

	if code, body := httpGet("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := httpGet("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"kexserved_n 4\n", "kexserved_k 2\n", "kexserved_shards 2\n",
		`kexserved_phase{phase="running"} 1`,
		`kexserved_shard_acquires_total{shard="1"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	waitReady(http.StatusServiceUnavailable)
	if _, body := httpGet("/readyz"); body != "stopped\n" {
		t.Fatalf("/readyz after shutdown = %q, want stopped", body)
	}
}
