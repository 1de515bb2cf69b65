package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// declared is the part of ../BENCHMARK.json the smoke test holds the
// program to.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs both passes of every workload for 300 ms with
// verification on, and checks that what comes out is what
// BENCHMARK.json says comes out.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}

	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, options{
				Seed: 1, Seconds: 0.3, Trace: trace, Conns: min(runtime.NumCPU(), 2),
				TmpRoot: t.TempDir(), OutDir: t.TempDir(), SetupRepeats: 1,
				ProbeBudget: 2 * time.Millisecond, Out: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s is declared and not emitted", w.Name, trace, d.Name)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, declared %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				case !nameOK.MatchString(d.Name):
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestRefusesMoreConnectionsThanCPUs(t *testing.T) {
	_, err := runWorkload(workloads[0], options{Seconds: 0.1, Conns: runtime.NumCPU() + 1, TmpRoot: t.TempDir(), SetupRepeats: 1, Out: io.Discard})
	if err == nil {
		t.Fatal("ran with more connections than CPUs")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) == [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{9, 1, 20, 2, 8, 3, 7, 4, 6, 5})
	if want := (8.25 - 2.75) / 5.5; got != want {
		t.Fatalf("spread %v, want %v", got, want)
	}
}
