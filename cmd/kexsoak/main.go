// Command kexsoak is the rolling-restart soak harness: the production
// claim of this repo — (k-1)-resilient objects behind an exactly-once
// durable server — exercised the way an operator would actually hit it.
//
// The harness spawns a real kexserved with a WAL and an ops listener,
// parks a netfault proxy in front of it so the dial address survives
// the server's death, and drives a mixed workload (idempotent reads and
// pings, op-ID-carrying adds) through retrying clients while it
// SIGKILLs and restarts the server over and over — a rolling restart
// performed with crash faults instead of graceful drains.
//
// The soak FAILS if any of the following is observed:
//
//   - An acknowledged add is lost or applied twice (per-shard counters
//     must equal the acknowledged-add tallies exactly), or any client
//     reads a counter going backwards (a linearizable counter only
//     grows; regression means recovery dropped acknowledged state).
//   - A client exhausts its retry budget (availability loss: the whole
//     point of the retry/dedup machinery is riding out a restart).
//   - /readyz lies about the phase: answering ready with a non-serving
//     phase in the body, or disagreeing with /metrics.
//   - The server process leaks goroutines or file descriptors across
//     the soak (self-reported via its own /metrics gauges).
//
// Usage:
//
//	kexsoak -served-bin ./kexserved                 soak with defaults (~3 min)
//	kexsoak -served-bin ./kexserved -short          CI smoke: ~45s, 2 restarts
//	kexsoak -served-bin ./kexserved -restarts 8 -duration 10m -clients 8
//
// On success the last line is "verdict: soaked ..." — CI greps for it.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kexclusion/internal/netfault"
	"kexclusion/internal/server/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kexsoak:", err)
		os.Exit(1)
	}
}

type soakConfig struct {
	servedBin string
	impl      string
	n, k      int
	shards    int
	clients   int
	restarts  int
	duration  time.Duration
	seed      int64
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kexsoak", flag.ContinueOnError)
	var (
		servedBin = fs.String("served-bin", "", "path to the kexserved binary to soak (required)")
		implName  = fs.String("impl", "fastpath", "k-exclusion implementation for the server")
		n         = fs.Int("n", 8, "server identities")
		k         = fs.Int("k", 2, "server resiliency level")
		shards    = fs.Int("shards", 4, "server shards")
		clients   = fs.Int("clients", 4, "concurrent reconnecting clients")
		restarts  = fs.Int("restarts", 4, "rolling SIGKILL+restart cycles")
		duration  = fs.Duration("duration", 3*time.Minute, "total soak length (restarts are spread across it)")
		seed      = fs.Int64("seed", 1, "seed for workload mix and client identities")
		short     = fs.Bool("short", false, "CI smoke shape: ~45s with 2 restarts (explicit -duration/-restarts/-clients still win)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *short {
		// Shrink only what the caller left at its default.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["duration"] {
			*duration = 45 * time.Second
		}
		if !set["restarts"] {
			*restarts = 2
		}
		if !set["clients"] {
			*clients = 3
		}
	}
	if *servedBin == "" {
		return fmt.Errorf("soaking needs -served-bin (the real binary gets SIGKILLed; an in-process server cannot stand in)")
	}
	if *clients < 1 {
		return fmt.Errorf("need clients >= 1, got %d", *clients)
	}
	if *restarts < 1 {
		return fmt.Errorf("need restarts >= 1, got %d", *restarts)
	}
	if *duration <= 0 {
		return fmt.Errorf("need duration > 0, got %v", *duration)
	}
	if *shards < 1 {
		return fmt.Errorf("need shards >= 1, got %d", *shards)
	}
	return soak(out, soakConfig{
		servedBin: *servedBin, impl: *implName, n: *n, k: *k, shards: *shards,
		clients: *clients, restarts: *restarts, duration: *duration, seed: *seed,
	})
}

// incarnation is one spawned kexserved process with its ops listener.
type incarnation struct {
	cmd     *exec.Cmd
	addr    string // object-protocol address
	opsAddr string // /healthz, /readyz, /metrics
	stderr  *bytes.Buffer
	exited  chan struct{}
	exitErr error
}

// startIncarnation spawns kexserved on the given addresses (port 0 on
// the first boot; the concrete ports thereafter, so the proxy and the
// probes survive restarts) and waits for both listen announcements.
func startIncarnation(cfg soakConfig, addr, opsAddr, dataDir string) (*incarnation, error) {
	cmd := exec.Command(cfg.servedBin,
		"-addr", addr, "-ops-addr", opsAddr,
		"-n", fmt.Sprint(cfg.n), "-k", fmt.Sprint(cfg.k),
		"-shards", fmt.Sprint(cfg.shards), "-impl", cfg.impl, "-quiet",
		"-data-dir", dataDir, "-fsync", "interval",
		"-admit-timeout", "500ms", "-idle-timeout", "30s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	inc := &incarnation{cmd: cmd, stderr: &bytes.Buffer{}, exited: make(chan struct{})}
	cmd.Stderr = inc.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() { inc.exitErr = cmd.Wait(); close(inc.exited) }()

	type bound struct{ addr, ops string }
	boundCh := make(chan bound, 1)
	go func() {
		var b bound
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "kexserved: ops listening on "); ok {
				b.ops = strings.Fields(rest)[0]
			}
			if rest, ok := strings.CutPrefix(line, "kexserved: listening on "); ok {
				b.addr = strings.Fields(rest)[0]
			}
			if b.addr != "" && b.ops != "" {
				select {
				case boundCh <- b:
				default:
				}
				b = bound{} // announce once; keep draining the pipe
			}
		}
	}()
	select {
	case b := <-boundCh:
		inc.addr, inc.opsAddr = b.addr, b.ops
		return inc, nil
	case <-inc.exited:
		return nil, fmt.Errorf("kexserved exited before binding: %v\n%s", inc.exitErr, inc.stderr.String())
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("kexserved never announced both addresses")
	}
}

// kill SIGKILLs the incarnation — a whole-process crash fault — and
// reaps it. Safe to call more than once.
func (inc *incarnation) kill() {
	inc.cmd.Process.Signal(syscall.SIGKILL)
	<-inc.exited
}

// httpGet fetches an ops endpoint with a short timeout.
func httpGet(opsAddr, path string) (int, string, error) {
	c := http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get("http://" + opsAddr + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(b), nil
}

// servingPhases is what a 200 /readyz body may name. Anything else in a
// ready answer means the probe is lying about the phase.
var servingPhases = map[string]bool{"running": true, "degraded": true}

// awaitReady polls /readyz until it answers ready, checking every
// answer for honesty: a 200 must name a serving phase. Returns how many
// honest not-ready answers were observed on the way (the recovery
// window made visible) and any lie found.
func awaitReady(opsAddr string, deadline time.Duration) (notReadySeen int, lie string, err error) {
	until := time.Now().Add(deadline)
	for {
		code, body, gerr := httpGet(opsAddr, "/readyz")
		phase := strings.TrimSpace(body)
		switch {
		case gerr != nil:
			// Listener not up yet (or process between incarnations):
			// honest in the crudest way.
		case code == http.StatusOK:
			if !servingPhases[phase] {
				return notReadySeen, fmt.Sprintf("/readyz answered 200 while naming phase %q", phase), nil
			}
			return notReadySeen, "", nil
		case servingPhases[phase]:
			return notReadySeen, fmt.Sprintf("/readyz answered %d while naming serving phase %q", code, phase), nil
		default:
			notReadySeen++
		}
		if time.Now().After(until) {
			return notReadySeen, "", fmt.Errorf("server not ready after %v (last: %d %q %v)", deadline, code, phase, gerr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// crossCheckReady compares /readyz against /metrics: the kexserved_ready
// gauge and the phase one-hot must tell the same story the probe does.
func crossCheckReady(opsAddr string) string {
	code, _, err := httpGet(opsAddr, "/readyz")
	if err != nil {
		return ""
	}
	_, metrics, err := httpGet(opsAddr, "/metrics")
	if err != nil {
		return ""
	}
	readyGauge := strings.Contains(metrics, "kexserved_ready 1\n")
	probeReady := code == http.StatusOK
	// The phase can legitimately flip between the two fetches (e.g.
	// running → draining), but this harness only calls the check in
	// steady state, where a disagreement is a rendering bug.
	if probeReady != readyGauge {
		return fmt.Sprintf("/readyz says %d but /metrics says kexserved_ready=%v", code, readyGauge)
	}
	return ""
}

// procGauges scrapes the server's self-reported goroutine and fd counts.
func procGauges(opsAddr string) (goroutines, fds int64, err error) {
	_, metrics, err := httpGet(opsAddr, "/metrics")
	if err != nil {
		return 0, 0, err
	}
	get := func(name string) (int64, error) {
		for _, line := range strings.Split(metrics, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				return strconv.ParseInt(rest, 10, 64)
			}
		}
		return 0, fmt.Errorf("metric %s not found", name)
	}
	if goroutines, err = get("kexserved_goroutines"); err != nil {
		return 0, 0, err
	}
	if fds, err = get("kexserved_open_fds"); err != nil {
		return 0, 0, err
	}
	return goroutines, fds, nil
}

func soak(out io.Writer, cfg soakConfig) error {
	dir, err := os.MkdirTemp("", "kexsoak-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	inc, err := startIncarnation(cfg, "127.0.0.1:0", "127.0.0.1:0", dir)
	if err != nil {
		return err
	}
	defer inc.kill()
	fmt.Fprintf(out, "kexsoak: serving on %s, ops on %s (impl=%s n=%d k=%d shards=%d)\n",
		inc.addr, inc.opsAddr, cfg.impl, cfg.n, cfg.k, cfg.shards)
	fmt.Fprintf(out, "kexsoak: %d clients, %d rolling restarts across %v\n",
		cfg.clients, cfg.restarts, cfg.duration)

	violations := 0
	complain := func(format string, args ...any) {
		violations++
		fmt.Fprintf(out, "SOAK VIOLATION: "+format+"\n", args...)
	}

	if _, lie, err := awaitReady(inc.opsAddr, 15*time.Second); err != nil {
		return err
	} else if lie != "" {
		complain("%s", lie)
	}
	if lie := crossCheckReady(inc.opsAddr); lie != "" {
		complain("%s", lie)
	}
	baseGoroutines, baseFDs, err := procGauges(inc.opsAddr)
	if err != nil {
		return fmt.Errorf("scraping baseline process gauges: %w", err)
	}

	// The proxy pins the dial address across every restart.
	px, err := netfault.New(inc.addr, netfault.Plan{Seed: cfg.seed})
	if err != nil {
		return err
	}
	defer px.Close()

	// Workload: every client tracks its acknowledged adds per shard and
	// checks that the counters it reads never regress.
	acked := make([]atomic.Int64, cfg.shards)
	var stop atomic.Bool
	errs := make([]error, cfg.clients)
	conns := make([]*client.Client, cfg.clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		c, err := client.DialRetry(px.Addr(), client.RetryPolicy{
			Seed:        cfg.seed + int64(i) + 1,
			MaxAttempts: 30,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    500 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("client %d admission: %w", i, err)
		}
		c.SetOpTimeout(5 * time.Second)
		defer c.Close()
		c.SetSession(uint64(cfg.seed+int64(i))<<1 | 1)
		conns[i] = c
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(i)*7919))
			lastSeen := make([]int64, cfg.shards)
			for op := 0; !stop.Load(); op++ {
				shard := rng.Intn(cfg.shards)
				switch op % 5 {
				case 3: // idempotent control traffic
					if err := c.Ping(); err != nil {
						errs[i] = fmt.Errorf("op %d ping: %w", op, err)
						return
					}
				case 4: // idempotent read, with a regression check
					v, err := c.Get(uint32(shard))
					if err != nil {
						errs[i] = fmt.Errorf("op %d get: %w", op, err)
						return
					}
					if v < lastSeen[shard] {
						errs[i] = fmt.Errorf("op %d: shard %d regressed %d -> %d (acknowledged state lost)",
							op, shard, lastSeen[shard], v)
						return
					}
					lastSeen[shard] = v
				default: // non-idempotent add under an op ID
					if _, err := c.Add(uint32(shard), 1); err != nil {
						errs[i] = fmt.Errorf("op %d add: %w", op, err)
						return
					}
					acked[shard].Add(1)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(i, c)
	}

	// Rolling restarts, spread across the soak: kill, restart on the
	// same ports, require an honest not-ready window and a truthful
	// ready answer, and sample the fresh incarnation's process gauges.
	interval := cfg.duration / time.Duration(cfg.restarts+1)
	lastGoroutines, lastFDs := baseGoroutines, baseFDs
	for r := 1; r <= cfg.restarts; r++ {
		time.Sleep(interval)
		killedAt := time.Now()
		inc.kill()
		// The recovery window must be visibly not-ready. With the process
		// dead this probe can only fail to connect or answer non-ready —
		// a ready answer here means the probe is reading something stale
		// and every later honesty check is worthless.
		if code, body, err := httpGet(inc.opsAddr, "/readyz"); err == nil && code == http.StatusOK {
			complain("restart %d: /readyz answered 200 %q with the server process dead", r, strings.TrimSpace(body))
		}
		next, err := startIncarnation(cfg, inc.addr, inc.opsAddr, dir)
		if err != nil {
			return fmt.Errorf("restart %d: %w", r, err)
		}
		inc = next
		notReady, lie, err := awaitReady(inc.opsAddr, 15*time.Second)
		if err != nil {
			return fmt.Errorf("restart %d: %w", r, err)
		}
		if lie != "" {
			complain("restart %d: %s", r, lie)
		}
		if lie := crossCheckReady(inc.opsAddr); lie != "" {
			complain("restart %d: %s", r, lie)
		}
		g, f, err := procGauges(inc.opsAddr)
		if err != nil {
			return fmt.Errorf("restart %d gauges: %w", r, err)
		}
		fmt.Fprintf(out, "kexsoak: restart %d/%d: ready %v after SIGKILL (%d honest not-ready answers), goroutines=%d fds=%d\n",
			r, cfg.restarts, time.Since(killedAt).Round(time.Millisecond), notReady, g, f)
		// Fresh incarnations of the same server must not cost more and
		// more descriptors (e.g. WAL segments left open, growing with
		// each recovery).
		if f > baseFDs+16 {
			complain("restart %d: open fds grew from %d at baseline to %d", r, baseFDs, f)
		}
		if g > baseGoroutines+int64(cfg.n)+16 {
			complain("restart %d: goroutines grew from %d at baseline to %d", r, baseGoroutines, g)
		}
		lastGoroutines, lastFDs = g, f
	}
	time.Sleep(interval)

	// Stop the load and take the verdict.
	stop.Store(true)
	wg.Wait()
	clientFailures := 0
	for i, e := range errs {
		if e != nil {
			clientFailures++
			complain("client %d: %v", i, e)
		}
	}

	var totalAcked, counterSum, dupeAcks, reconnects int64
	verifier := conns[0]
	for shard := 0; shard < cfg.shards; shard++ {
		want := acked[shard].Load()
		got, err := verifier.Get(uint32(shard))
		if err != nil {
			return fmt.Errorf("verdict read of shard %d: %w", shard, err)
		}
		if got != want {
			complain("shard %d: counter=%d, want exactly %d acknowledged adds (lost or doubled)", shard, got, want)
		}
		totalAcked += want
		counterSum += got
	}
	st, err := verifier.Stats()
	if err != nil {
		return fmt.Errorf("verdict stats: %w", err)
	}
	for _, c := range conns {
		dupeAcks += c.DupeAcks()
		reconnects += c.Reconnects()
	}
	if st.RestartCount < int64(cfg.restarts) {
		complain("restart_count=%d, want >= %d", st.RestartCount, cfg.restarts)
	}
	if st.Phase != "running" && st.Phase != "degraded" {
		complain("final phase %q is not a serving phase", st.Phase)
	}

	// Goroutine/fd drain check: with every client closed, the final
	// incarnation must fall back toward its fresh-boot footprint.
	for _, c := range conns {
		c.Close()
	}
	time.Sleep(time.Second)
	finalGoroutines, finalFDs, err := procGauges(inc.opsAddr)
	if err != nil {
		return fmt.Errorf("final gauges: %w", err)
	}
	if finalGoroutines > lastGoroutines+8 {
		complain("goroutines grew during the soak tail: %d -> %d with all clients closed", lastGoroutines, finalGoroutines)
	}
	if finalFDs > lastFDs+8 {
		complain("open fds grew during the soak tail: %d -> %d with all clients closed", lastFDs, finalFDs)
	}

	// Drain the survivor so its WAL close is orderly.
	inc.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-inc.exited:
	case <-time.After(10 * time.Second):
		inc.kill()
	}

	fmt.Fprintf(out, "kexsoak: ops acked=%d counter=%d dupe_acks=%d reconnects=%d recovered_ops=%d restart_count=%d\n",
		totalAcked, counterSum, dupeAcks, reconnects, st.RecoveredOps, st.RestartCount)
	fmt.Fprintf(out, "kexsoak: process goroutines %d -> %d, fds %d -> %d\n",
		baseGoroutines, finalGoroutines, baseFDs, finalFDs)
	if violations > 0 {
		return fmt.Errorf("%d soak violation(s)", violations)
	}
	fmt.Fprintf(out, "verdict: soaked (%d acknowledged ops survived %d rolling SIGKILL restarts; none lost, none doubled)\n",
		totalAcked, cfg.restarts)
	return nil
}
