package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"kexclusion/internal/durable"
	"kexclusion/internal/object"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// The -objects sweep is a YCSB-style workload matrix over the
// typed-object store: the classic A/B/C read/update mixes plus an X
// mix of cross-shard atomic transfers, each crossed with a key
// distribution — uniform, zipfian (the YCSB default skew), and
// hot-shard (every key lives on one shard, the worst placement). Reads
// are map gets (the fast path), updates are map puts; X is pairs of
// register adds issued as 0xC2 atomic groups. Each cell runs against a
// fresh loopback server and also reports the server's read_fastpath
// and batch_atomic counters, so the report shows not just throughput
// but which machinery served it.

// objMix is one YCSB-style operation mix.
type objMix struct {
	Name string
	// ReadFraction of non-atomic ops that are reads; ignored for
	// atomic mixes.
	ReadFraction float64
	// Atomic marks the transfer mix: every op is a two-shard atomic
	// group.
	Atomic bool
}

var objMixes = []objMix{
	{Name: "A", ReadFraction: 0.5},
	{Name: "B", ReadFraction: 0.95},
	{Name: "C", ReadFraction: 1.0},
	{Name: "X", Atomic: true},
}

// objConfig shapes one -objects sweep.
type objConfig struct {
	Mixes      []objMix
	Dists      []string // "uniform", "zipfian", "hotshard"
	Conns      int
	OpsPerConn int
	Keys       int
	Shards     int
	K          int
	Depth      int
	Seed       int64
}

// objRow is one measured cell. The JSON field set is the BENCH_objects
// schema (kexbench/objects/v1) — append fields if needed, never rename
// or remove.
type objRow struct {
	Mix          string  `json:"mix"`
	Dist         string  `json:"dist"`
	Conns        int     `json:"conns"`
	Ops          int     `json:"ops"`
	Errors       int     `json:"errors"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	ReadFastpath int64   `json:"read_fastpath"`
	BatchAtomic  int64   `json:"batch_atomic"`
}

type objReport struct {
	Schema     string   `json:"schema"`
	Conns      int      `json:"conns"`
	OpsPerConn int      `json:"ops_per_conn"`
	Keys       int      `json:"keys"`
	Shards     int      `json:"shards"`
	K          int      `json:"k"`
	Rows       []objRow `json:"rows"`
	// Verdict is "objects" when every cell completed error-free, the
	// read-bearing cells took the fast path, and the atomic cells
	// committed groups; anything else is "degraded".
	Verdict string `json:"verdict"`
}

const objSchema = "kexbench/objects/v1"

// objKeyPicker returns a deterministic key-index generator for one
// driver. Zipfian uses the stdlib generator with the YCSB-ish skew
// s=1.1; hotshard collapses placement, not the key space, so it reuses
// the uniform picker.
func objKeyPicker(dist string, r *rand.Rand, keys int) (func() int, error) {
	switch dist {
	case "uniform", "hotshard":
		return func() int { return r.Intn(keys) }, nil
	case "zipfian":
		z := rand.NewZipf(r, 1.1, 1, uint64(keys-1))
		return func() int { return int(z.Uint64()) }, nil
	default:
		return nil, fmt.Errorf("-obj-dists: unknown distribution %q (want uniform, zipfian, hotshard)", dist)
	}
}

// objObjectFor maps a key index onto its owning object (and that
// object onto a shard): one map object per shard, keys striped across
// them — except hotshard, which pins everything onto object 0.
func objObjectFor(dist string, keyIdx, shards int) (name string, shard uint32) {
	s := keyIdx % shards
	if dist == "hotshard" {
		s = 0
	}
	return fmt.Sprintf("ycsb:%d", s), uint32(s)
}

// runObjects drives the matrix and emits the report (text or JSON).
func runObjects(cfg objConfig, out io.Writer, asJSON bool) error {
	rep := objReport{Schema: objSchema, Conns: cfg.Conns, OpsPerConn: cfg.OpsPerConn,
		Keys: cfg.Keys, Shards: cfg.Shards, K: cfg.K}
	for _, dist := range cfg.Dists {
		if _, err := objKeyPicker(dist, rand.New(rand.NewSource(1)), cfg.Keys); err != nil {
			return err
		}
		for _, mix := range cfg.Mixes {
			row, err := objCell(cfg, mix, dist)
			if err != nil {
				return fmt.Errorf("cell mix=%s dist=%s: %w", mix.Name, dist, err)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Verdict = objVerdict(rep.Rows)

	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(out, "typed-object workload matrix (%d conns, %d ops/conn, %d keys, %d shards, k=%d)\n",
		cfg.Conns, cfg.OpsPerConn, cfg.Keys, cfg.Shards, cfg.K)
	fmt.Fprintf(out, "%-4s %-10s %8s %6s %12s %14s %13s\n", "mix", "dist", "ops", "errs", "ops/sec", "read_fastpath", "batch_atomic")
	for _, r := range rep.Rows {
		fmt.Fprintf(out, "%-4s %-10s %8d %6d %12.0f %14d %13d\n",
			r.Mix, r.Dist, r.Ops, r.Errors, r.OpsPerSec, r.ReadFastpath, r.BatchAtomic)
	}
	fmt.Fprintf(out, "verdict: %s\n", rep.Verdict)
	return nil
}

// objCell measures one (mix, dist) cell against a fresh server.
func objCell(cfg objConfig, mix objMix, dist string) (objRow, error) {
	dir, err := os.MkdirTemp("", "kexbench-obj-")
	if err != nil {
		return objRow{}, err
	}
	defer os.RemoveAll(dir)

	n := cfg.Conns + 2
	k := cfg.K
	if k > n {
		k = n
	}
	srv, err := server.New(server.Config{
		N: n, K: k, Shards: cfg.Shards,
		AdmitTimeout: 5 * time.Second,
		DataDir:      dir,
		Fsync:        durable.SyncInterval,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		return objRow{}, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return objRow{}, err
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := shutdownCtx()
		defer cancel()
		srv.Shutdown(ctx)
	}()

	clients := make([]*client.Client, cfg.Conns)
	for i := range clients {
		c, err := client.DialTimeout(addr.String(), 5*time.Second)
		if err != nil {
			return objRow{}, err
		}
		defer c.Close()
		c.SetOpTimeout(30 * time.Second)
		clients[i] = c
	}

	// Seed the objects: one map per shard for A/B/C, a pool of account
	// registers for the transfer mix. Accounts are placed by ShardFor
	// (the convention Atomic uses to fill in a zero Shard), so the group
	// members route to wherever their register actually lives; hotshard
	// keeps only names that hash onto shard 0.
	setup := clients[0]
	var accts []string
	if mix.Atomic {
		if dist == "hotshard" {
			for n := 0; len(accts) < 2; n++ {
				name := fmt.Sprintf("acct:%d", n)
				if setup.ShardFor(name) == 0 {
					accts = append(accts, name)
				}
			}
		} else {
			for n := 0; n < 2*cfg.Shards; n++ {
				accts = append(accts, fmt.Sprintf("acct:%d", n))
			}
		}
		for _, name := range accts {
			if res, err := setup.Create(name, object.TypeRegister, 0); err != nil || !res.Found {
				return objRow{}, fmt.Errorf("create %s: %+v %v", name, res, err)
			}
		}
	} else {
		for s := 0; s < cfg.Shards; s++ {
			name := fmt.Sprintf("ycsb:%d", s)
			if res, err := setup.CreateOn(uint32(s), name, object.TypeMap, 0, setup.NextSeq()); err != nil || !res.Found {
				return objRow{}, fmt.Errorf("create %s: %+v %v", name, res, err)
			}
		}
		// Load phase: every key written once so C-mix reads hit.
		for key := 0; key < cfg.Keys; key++ {
			name, shard := objObjectFor(dist, key, cfg.Shards)
			if _, err := setup.MapPutOp(shard, name, fmt.Sprintf("k%05d", key), int64(key), setup.NextSeq()); err != nil {
				return objRow{}, fmt.Errorf("load key %d: %w", key, err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]int, cfg.Conns)
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			pick, _ := objKeyPicker(dist, r, cfg.Keys)
			if mix.Atomic {
				for op := 0; op < cfg.OpsPerConn; op++ {
					from := pick() % len(accts)
					to := (from + 1) % len(accts)
					group := c.AtomicSeqs([]client.AtomicOp{
						{Kind: wire.KindRegAdd, Obj: accts[from], Arg: -1},
						{Kind: wire.KindRegAdd, Obj: accts[to], Arg: 1},
					})
					if _, err := c.Atomic(group); err != nil {
						errs[i]++
					}
				}
				return
			}
			pend := make([]*client.Pending, 0, cfg.Depth)
			drain := func() {
				for _, p := range pend {
					if _, err := p.Wait(); err != nil {
						errs[i]++
					}
				}
				pend = pend[:0]
			}
			for op := 0; op < cfg.OpsPerConn; op++ {
				key := pick()
				name, shard := objObjectFor(dist, key, cfg.Shards)
				kstr := fmt.Sprintf("k%05d", key)
				var p *client.Pending
				var err error
				if r.Float64() < mix.ReadFraction {
					p, err = c.GoObj(wire.KindMapGet, name, kstr, shard, 0, 0, 0)
				} else {
					p, err = c.GoObj(wire.KindMapPut, name, kstr, shard, int64(op), 0, c.NextSeq())
				}
				if err != nil {
					errs[i] += cfg.OpsPerConn - op
					break
				}
				pend = append(pend, p)
				if len(pend) >= cfg.Depth {
					drain()
				}
			}
			drain()
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := srv.Stats()
	total := cfg.Conns * cfg.OpsPerConn
	nerr := 0
	for _, e := range errs {
		nerr += e
	}
	row := objRow{
		Mix: mix.Name, Dist: dist, Conns: cfg.Conns,
		Ops: total, Errors: nerr,
		ElapsedMS:    float64(elapsed.Microseconds()) / 1000,
		ReadFastpath: st.ReadFastpath,
		BatchAtomic:  st.BatchAtomic,
	}
	if elapsed > 0 {
		row.OpsPerSec = float64(total-nerr) / elapsed.Seconds()
	}
	return row, nil
}

// objVerdict: error-free, reads actually took the fast path, atomics
// actually committed groups.
func objVerdict(rows []objRow) string {
	for _, r := range rows {
		if r.Errors > 0 {
			return "degraded"
		}
		switch {
		case r.Mix == "X" && r.BatchAtomic < int64(r.Ops):
			return "degraded"
		case r.Mix != "X" && r.Mix != "A" && r.ReadFastpath == 0:
			return "degraded"
		}
	}
	if len(rows) == 0 {
		return "degraded"
	}
	return "objects"
}
