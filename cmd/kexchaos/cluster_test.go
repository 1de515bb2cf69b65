package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"syscall"
	"testing"
)

// TestRetryBind: a boot whose member lost its reserved port starts over,
// three attempts at most; any other failure ends the boot at once.
func TestRetryBind(t *testing.T) {
	taken := fmt.Errorf("member 1: kexserved exited before binding: listen tcp 127.0.0.1:4100: %w",
		os.NewSyscallError("bind", syscall.EADDRINUSE))
	other := errors.New("member 0: kexserved never announced its address")
	for _, tc := range []struct {
		name  string
		fails []error // the answers of successive attempts; nil after them
		calls int
		want  error
	}{
		{"first attempt boots", nil, 1, nil},
		{"taken twice, then boots", []error{taken, taken}, 3, nil},
		{"taken every time", []error{taken, taken, taken, taken}, 3, taken},
		{"another failure is not retried", []error{other, taken}, 1, other},
	} {
		calls := 0
		err := retryBind(func() error {
			calls++
			if calls <= len(tc.fails) {
				return tc.fails[calls-1]
			}
			return nil
		})
		if calls != tc.calls || err != tc.want {
			t.Errorf("%s: %d attempts ending in %v, want %d ending in %v", tc.name, calls, err, tc.calls, tc.want)
		}
	}
}

// TestClusterChaosFailoverRun: boot three real kexserved members,
// SIGKILL the shard 0 primary mid-load, and every acknowledged write
// must survive the failover exactly once.
func TestClusterChaosFailoverRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real subprocesses")
	}
	bin := buildServed(t)
	var b strings.Builder
	err := run([]string{"-cluster", "-served-bin", bin, "-n", "4", "-k", "2",
		"-ops", "25", "-seed", "7", "-fail-after", "500ms"}, &b)
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "counter=100 (want 100)") {
		t.Fatalf("acknowledged writes lost or doubled:\n%s", out)
	}
	if !strings.Contains(out, "verdict: failover") {
		t.Fatalf("expected failover verdict:\n%s", out)
	}
}

// TestClusterChaosJSON: the JSON verdict carries the exactly-once
// counter check and both survivors' replication stats.
func TestClusterChaosJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real subprocesses")
	}
	bin := buildServed(t)
	var b strings.Builder
	err := run([]string{"-cluster", "-served-bin", bin, "-n", "3", "-k", "2",
		"-ops", "10", "-seed", "11", "-fail-after", "500ms", "-json"}, &b)
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	var got struct {
		Completed int   `json:"completed_clients"`
		Counter   int64 `json:"counter"`
		Want      int64 `json:"want_counter"`
		Redirects int64 `json:"redirects"`
		Failures  int   `json:"violations"`
		Survivors map[string]struct {
			QuorumAcks int64 `json:"quorum_acks"`
		} `json:"survivors"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("bad JSON output: %v\n%s", err, b.String())
	}
	if got.Completed != 3 || got.Counter != 30 || got.Counter != got.Want || got.Failures != 0 {
		t.Fatalf("completed=%d counter=%d want=%d violations=%d:\n%s",
			got.Completed, got.Counter, got.Want, got.Failures, b.String())
	}
	if got.Redirects == 0 {
		t.Fatalf("follower-homed clients saw no redirects:\n%s", b.String())
	}
	if len(got.Survivors) != 2 {
		t.Fatalf("survivors=%d, want 2:\n%s", len(got.Survivors), b.String())
	}
	var acks int64
	for _, st := range got.Survivors {
		acks += st.QuorumAcks
	}
	if acks == 0 {
		t.Fatalf("no survivor reports quorum acks:\n%s", b.String())
	}
}

// TestClusterChaosFlagValidation: -cluster is its own mode with its
// own shape.
func TestClusterChaosFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cluster"}, "needs -served-bin"},
		{[]string{"-cluster", "-served-bin", "x", "-net"}, "excludes"},
		{[]string{"-cluster", "-served-bin", "x", "-restart"}, "excludes"},
		{[]string{"-cluster", "-served-bin", "x", "-all"}, "excludes"},
		{[]string{"-cluster", "-served-bin", "x", "-crashes", "2"}, "excludes"},
		{[]string{"-cluster", "-served-bin", "x", "-fsync", "never"}, "legally die"},
		{[]string{"-cluster", "-served-bin", "x", "-ops", "1"}, "need ops >= 2"},
		{[]string{"-cluster", "-served-bin", "x", "-fail-after", "0s"}, "need fail-after > 0"},
	} {
		var b strings.Builder
		err := run(tc.args, &b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): got %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}
