// Command benchmark is the repository's benchmark: six kexserved
// workloads driven over loopback TCP through internal/server/client
// from one process, reporting client-observed throughput and latency
// (the end-to-end metrics) and, in a second traced pass, an outside-in
// ledger of what each layer costs (the per-layer metrics). README.md
// in this directory says what each workload and metric is for.
//
// With -workload it runs one pass of one workload and ends its output
// with one JSON line — the form the repository's BENCHMARK.json
// command takes. Without, it runs both passes of every workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one pass of this workload and end with the JSON result line (default: every workload, both passes)")
		seed     = flag.Int64("seed", 1, "seed for keys, operation streams and arrival times")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = traced pass and ledger, per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run the untraced pass of every workload this many times (seed, seed+1, ...) and print min/median/max and spread per metric")
		conns    = flag.Int("conns", min(runtime.NumCPU(), 4), "connections, each with its own driver goroutine; at most nproc")
		tmp      = flag.String("tmp", ".bench_build/tmp", "directory for the servers' data directories")
		out      = flag.String("out", "benchmark/out", "directory for trace-<workload>.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	o := options{
		Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Conns: *conns,
		TmpRoot: *tmp, OutDir: *out, SetupRepeats: 3, SetupBudget: time.Second,
		ProbeBudget: 120 * time.Millisecond, Out: os.Stdout,
	}
	if err := os.MkdirAll(o.TmpRoot, 0o755); err != nil {
		fatal(err)
	}
	printEnvironment(os.Stdout, o)

	switch {
	case *workload != "":
		w, ok := workloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runWorkload(w, o)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	case *repeat > 0:
		if err := runRepeat(*repeat, o); err != nil {
			fatal(err)
		}
	default:
		correct := true
		for _, tr := range []bool{false, true} {
			for _, w := range workloads {
				o.Trace = tr
				res, err := runWorkload(w, o)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.Name, err))
				}
				correct = correct && res.Correct
			}
		}
		if !correct {
			fatal(fmt.Errorf("some output did not verify; see the failures above"))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printEnvironment records what the numbers depend on besides the code.
func printEnvironment(out io.Writer, o options) {
	fmt.Fprintf(out, "environment: nproc=%d GOMAXPROCS=%d go=%s connections=%d tmp=%s (%s) seed=%d timed_phase=%gs warm_up=%gs\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.Conns, o.TmpRoot, fsName(o.TmpRoot),
		o.Seed, o.Seconds, o.Seconds*warmShare)
	if us, err := probeFsync(o.TmpRoot); err == nil {
		fmt.Fprintf(out, "environment: env.fsync_us=%.1f (median of 200 x 4 KiB write+fsync in tmp)\n", us)
	}
}

// fsName names the filesystem holding dir, as far as statfs tells.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs type %#x", uint32(st.Type))
}

// runRepeat runs the untraced pass of every workload n times and prints
// how far each end-to-end metric moves between runs of the same code.
func runRepeat(n int, o options) error {
	type key struct{ workload, metric string }
	vals := map[key][]float64{}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			ro := o
			ro.Seed, ro.Trace = o.Seed+int64(i), false
			res, err := runWorkload(w, ro)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", w.Name, ro.Seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s (seed %d): %d of %d operations failed", w.Name, ro.Seed, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				vals[key{w.Name, name}] = append(vals[key{w.Name, name}], m.Value)
			}
		}
	}
	fmt.Fprintf(o.Out, "\n== repeatability over %d runs (spread = (Q3-Q1)/median, quartiles as Python's statistics.quantiles(n=4))\n", n)
	fmt.Fprintf(o.Out, "%-12s %-10s %14s %14s %14s %8s %9s\n", "workload", "metric", "min", "median", "max", "spread", "max-min")
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := sortedCopy(vals[key{w.Name, d.Name}])
			med := median(v)
			fmt.Fprintf(o.Out, "%-12s %-10s %14.4f %14.4f %14.4f %7.2f%% %8.2f%%\n",
				w.Name, d.Name, v[0], med, v[len(v)-1], 100*quartileSpread(v), 100*(v[len(v)-1]-v[0])/med)
		}
	}
	return nil
}
