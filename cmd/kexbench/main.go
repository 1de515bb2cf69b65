// Command kexbench regenerates the paper's evaluation artifacts on the
// simulated CC and DSM machines: the Table 1 algorithm comparison, the
// Theorem 1-10 complexity sweeps, and the Figure 3(b) contention sweep.
//
// Usage:
//
//	kexbench -table1            reproduce Table 1 (default N=32, k=4)
//	kexbench -theorems          sweep every theorem against its bound
//	kexbench -fig3b             tree vs fast path vs graceful sweep
//	kexbench -all               everything above (simulated machines)
//	kexbench -native            drive the real goroutine implementations
//	kexbench -native -json      ... emitting the metrics report as JSON
//	                            (redirect to BENCH_native.json)
//	kexbench -cluster -json     price the replication ack quorum, 1 vs
//	                            majority vs all (redirect to BENCH_cluster.json)
//	kexbench -objects -json     YCSB-style typed-object matrix: A/B/C mixes
//	                            plus atomic transfers × uniform/zipfian/
//	                            hot-shard (redirect to BENCH_objects.json)
//	kexbench -n 64 -k 8 ...     change the configuration
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"kexclusion/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kexbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kexbench", flag.ContinueOnError)
	var (
		table1   = fs.Bool("table1", false, "reproduce Table 1")
		theorems = fs.Bool("theorems", false, "sweep Theorems 1-10 against their bounds")
		fig3b    = fs.Bool("fig3b", false, "contention sweep comparing tree, fast path and graceful (Figure 3)")
		k1       = fs.Bool("k1", false, "k=1 comparison against the MCS and ticket spin locks (concluding remarks)")
		all      = fs.Bool("all", false, "run every simulated-machine experiment")
		native   = fs.Bool("native", false, "run the fixed seeded workload on the real goroutine implementations")
		asJSON   = fs.Bool("json", false, "with -native: emit the metrics report as JSON")
		n        = fs.Int("n", 32, "number of processes")
		k        = fs.Int("k", 4, "critical-section slots")
		seeds    = fs.Int("seeds", 8, "adversarial scheduler seeds per measurement")
		acqs     = fs.Int("acqs", 4, "acquisitions per process per run")
		seed     = fs.Int64("seed", 1, "workload seed for -native")
		model    = fs.String("model", "cc", "machine model for -fig3b (cc or dsm)")
		netMode  = fs.Bool("net", false, "sweep the network hot path (connections × pipeline depth × fsync) over a loopback server")
		conns    = fs.String("conns", "1,4", "with -net: comma-separated connection counts")
		depths   = fs.String("depths", "1,8", "with -net: comma-separated pipeline depths")
		fsyncs   = fs.String("fsync", "always,interval", "with -net: comma-separated fsync policies to sweep")
		netOps   = fs.Int("net-ops", 512, "with -net, -cluster, or -objects: operations per connection per cell")
		clMode   = fs.Bool("cluster", false, "sweep the replication ack quorum (1 vs majority vs all) over an in-process 3-node cluster")
		objMode  = fs.Bool("objects", false, "YCSB-style workload matrix over the typed-object store (mixes × key distributions)")
		objDists = fs.String("obj-dists", "uniform,zipfian,hotshard", "with -objects: comma-separated key distributions")
		objKeys  = fs.Int("obj-keys", 256, "with -objects: size of the key space")
		short    = fs.Bool("short", false, "with -net, -cluster, or -objects: minimal smoke sweep (fewer drivers and ops)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *all {
		*table1, *theorems, *fig3b, *k1 = true, true, true, true
	}
	if !*table1 && !*theorems && !*fig3b && !*k1 && !*native && !*netMode && !*clMode && !*objMode {
		fs.Usage()
		return fmt.Errorf("pick at least one of -table1, -theorems, -fig3b, -k1, -native, -net, -cluster, -objects, -all")
	}
	if *asJSON && !*native && !*netMode && !*clMode && !*objMode {
		return fmt.Errorf("-json applies only to -native, -net, -cluster, and -objects")
	}
	if *objMode {
		oc := objConfig{Mixes: objMixes, Conns: 4, OpsPerConn: *netOps,
			Keys: *objKeys, Shards: 4, K: 4, Depth: 8, Seed: *seed}
		for _, d := range strings.Split(*objDists, ",") {
			if d = strings.TrimSpace(d); d != "" {
				oc.Dists = append(oc.Dists, d)
			}
		}
		if len(oc.Dists) == 0 {
			return fmt.Errorf("-obj-dists: empty list")
		}
		if *short {
			oc.Conns, oc.Dists, oc.Keys = 2, []string{"zipfian"}, 64
			if oc.OpsPerConn > 64 {
				oc.OpsPerConn = 64
			}
		}
		return runObjects(oc, out, *asJSON)
	}
	if *clMode {
		cc := clusterBenchConfig{Nodes: 3, Conns: 4, Depth: 8, OpsPerConn: *netOps, Shards: 4, K: 4}
		if *short {
			cc.Conns = 2
			if cc.OpsPerConn > 64 {
				cc.OpsPerConn = 64
			}
		}
		return runClusterBench(cc, out, *asJSON)
	}
	if *netMode {
		nc := netConfig{OpsPerConn: *netOps, Shards: 4, K: 4}
		var err error
		if nc.Conns, err = parseIntList("conns", *conns); err != nil {
			return err
		}
		if nc.Depths, err = parseIntList("depths", *depths); err != nil {
			return err
		}
		nc.Fsyncs = nil
		for _, f := range strings.Split(*fsyncs, ",") {
			if f = strings.TrimSpace(f); f != "" {
				nc.Fsyncs = append(nc.Fsyncs, f)
			}
		}
		if len(nc.Fsyncs) == 0 {
			return fmt.Errorf("-fsync: empty list")
		}
		if *short {
			nc.Conns, nc.Depths, nc.Fsyncs = []int{1}, []int{1, 8}, []string{"always"}
			if nc.OpsPerConn > 128 {
				nc.OpsPerConn = 128
			}
		}
		return runNet(nc, out, *asJSON)
	}
	if *k < 1 {
		return fmt.Errorf("need k >= 1, got k=%d", *k)
	}
	if *n < *k {
		return fmt.Errorf("need n >= k, got n=%d k=%d", *n, *k)
	}
	opt := bench.Options{Seeds: *seeds, Acquisitions: *acqs}

	if *table1 {
		rows := bench.Table1(*n, *k, opt)
		fmt.Fprintln(out, bench.FormatTable1(rows, *n, *k))
	}
	if *theorems {
		fmt.Fprintln(out, bench.AllTheorems(opt))
	}
	if *fig3b {
		m, err := bench.ModelByName(*model)
		if err != nil {
			return err
		}
		cs := bench.ContentionLevels(*n, *k)
		for _, s := range bench.Fig3bSweep(m, *n, *k, cs, opt) {
			fmt.Fprintln(out, s.Format())
		}
	}
	if *k1 {
		fmt.Fprintln(out, bench.K1Comparison(*n, opt))
	}
	if *native {
		rep := bench.RunNative(bench.NativeConfig{N: *n, K: *k, OpsPerProc: *acqs, Seed: *seed})
		if *asJSON {
			out.Write(rep.JSON())
		} else {
			fmt.Fprint(out, rep)
		}
	}
	return nil
}
