package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kexclusion/internal/netfault"
	"kexclusion/internal/object"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// restartConfig is the -restart mode's shape, pre-validated by run.
type restartConfig struct {
	impl      string
	n, k      int
	ops       int
	seed      int64
	deadline  time.Duration
	asJSON    bool
	servedBin string
	dataDir   string
	fsync     string
	// restarts is how many kill+restart cycles the mode performs; the
	// verdict asserts the surviving server saw AT LEAST this many prior
	// incarnations. At-least, not exactly: a caller-supplied -data-dir
	// may carry restarts from earlier runs, which are history, not a
	// contract violation.
	restarts int
}

// served is one spawned kexserved process.
type served struct {
	cmd     *exec.Cmd
	addr    string
	stderr  *bytes.Buffer
	exited  chan struct{} // closed when the process is reaped
	exitErr error         // valid after exited is closed
}

// startServed spawns a standalone single-shard kexserved and waits for
// it to bind.
func startServed(bin, addr, dataDir, fsync, impl string, n, k int) (*served, error) {
	return startServedArgs(bin,
		"-addr", addr, "-n", fmt.Sprint(n), "-k", fmt.Sprint(k),
		"-shards", "1", "-impl", impl, "-quiet",
		"-data-dir", dataDir, "-fsync", fsync)
}

// startServedArgs spawns the binary with the given argument list, waits
// for its "listening on" line, and keeps draining stdout so the child
// never blocks on a full pipe.
func startServedArgs(bin string, args ...string) (*served, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &served{cmd: cmd, stderr: &bytes.Buffer{}, exited: make(chan struct{})}
	cmd.Stderr = s.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.exitErr = cmd.Wait(); close(s.exited) }()

	bound := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "kexserved: listening on "); ok {
				select {
				case bound <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case s.addr = <-bound:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("kexserved exited before binding: %v\n%s", s.exitErr, s.stderr.String())
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("kexserved never announced its address")
	}
}

// kill SIGKILLs the process — the paper's crash fault applied to the
// whole server — and reaps it. Safe to call more than once.
func (s *served) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
}

// runRestart drives the durability contract end to end against a real
// process: n reconnecting clients write through a chaos proxy at a
// kexserved with a WAL, the server is SIGKILLed mid-load, a new process
// recovers from the same data directory on the same address, and the
// clients ride the outage on their retry budgets — re-issuing any
// in-flight write under its original op ID, so the recovered dedup
// window answers retries of already-applied writes instead of applying
// them again.
//
// The contract checked: the final counter equals EXACTLY n×ops — an
// acknowledged write was neither lost to the crash (durability) nor
// applied twice by a retry (exactly-once) — with restart_count 1 and a
// nonzero recovered_ops backing the story up.
func runRestart(out io.Writer, cfg restartConfig) error {
	dir := cfg.dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "kexchaos-restart-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	first, err := startServed(cfg.servedBin, "127.0.0.1:0", dir, cfg.fsync, cfg.impl, cfg.n, cfg.k)
	if err != nil {
		return err
	}
	defer first.kill() // idempotent; the happy path has already killed it

	// Queue exactly-once setup, against the FIRST incarnation: enqueue
	// three values and pop one under a pinned session/seq. Dequeue is
	// the non-idempotent op the dedup window exists for — after the
	// SIGKILL the same pop is re-issued verbatim and must be answered
	// from the recovered window with the original value, not pop again.
	const qName = "chaos:q"
	qSession := uint64(cfg.seed)<<8 | 0x51
	const qDeqSeq = 1_000_000
	// A busy admission (the restarted server leases exactly n identities
	// and releases one only when it notices a closed connection) is
	// ridden out on the client's own budget.
	qPolicy := client.RetryPolicy{Seed: cfg.seed, MaxAttempts: 40, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	var qFirst int64
	{
		qc, err := client.DialRetry(first.addr, qPolicy)
		if err != nil {
			return fmt.Errorf("queue setup dial: %w", err)
		}
		qc.SetOpTimeout(2 * time.Second)
		qc.SetSession(qSession)
		if res, err := qc.CreateOn(0, qName, object.TypeQueue, 0, 1); err != nil || !res.Found {
			qc.Close()
			return fmt.Errorf("queue setup create: %+v %v", res, err)
		}
		for i, v := range []int64{11, 22, 33} {
			if _, err := qc.QEnqOp(0, qName, v, uint64(2+i)); err != nil {
				qc.Close()
				return fmt.Errorf("queue setup enqueue %d: %w", v, err)
			}
		}
		popped, err := qc.QDeqOp(0, qName, qDeqSeq)
		qc.Close()
		if err != nil || !popped.Found {
			return fmt.Errorf("queue setup dequeue: %+v %v", popped, err)
		}
		qFirst = popped.Value
	}

	// The proxy pins the dial address across the restart: clients keep
	// dialing it while the server behind it dies and comes back. An
	// empty plan is a clean relay — the injected fault here is SIGKILL.
	px, err := netfault.New(first.addr, netfault.Plan{Seed: cfg.seed})
	if err != nil {
		return err
	}
	defer px.Close()

	conns := make([]*client.Client, cfg.n)
	for i := range conns {
		c, err := client.DialRetry(px.Addr(), client.RetryPolicy{
			Seed:        cfg.seed + int64(i) + 1,
			MaxAttempts: 12,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    250 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("client %d admission: %w", i, err)
		}
		c.SetOpTimeout(2 * time.Second)
		defer c.Close()
		// Deterministic, per-client-distinct op-ID identities keep the
		// run reproducible; |1 keeps them nonzero.
		c.SetSession(uint64(cfg.seed+int64(i))<<1 | 1)
		conns[i] = c
	}

	// Workers count acknowledged writes; the coordinator SIGKILLs the
	// server once half the total load is acked, so the crash lands with
	// durable state behind it and live traffic on top of it.
	var acked atomic.Int64
	killAt := int64(cfg.n*cfg.ops) / 2
	errs := make([]error, cfg.n)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for op := 0; op < cfg.ops; op++ {
				if _, err := c.Add(0, 1); err != nil {
					errs[i] = fmt.Errorf("op %d: %w", op, err)
					return
				}
				acked.Add(1)
			}
		}(i, c)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	type restartResult struct {
		s   *served
		err error
	}
	restarted := make(chan restartResult, 1)
	go func() {
		for acked.Load() < killAt {
			select {
			case <-done:
				// Workers stopped (all errored out) before the threshold;
				// killing now would just hang the verdict reads.
				restarted <- restartResult{err: fmt.Errorf(
					"workers stopped at %d/%d acked writes before the kill threshold", acked.Load(), killAt)}
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
		first.kill()
		s2, err := startServed(cfg.servedBin, first.addr, dir, cfg.fsync, cfg.impl, cfg.n, cfg.k)
		restarted <- restartResult{s: s2, err: err}
	}()

	select {
	case <-done:
	case <-time.After(cfg.deadline):
		return fmt.Errorf("loss of progress: clients still running after the %v deadline", cfg.deadline)
	}
	res := <-restarted
	if res.err != nil {
		return fmt.Errorf("restart: %w", res.err)
	}
	srv := res.s
	defer srv.kill()

	counter, err := conns[0].Get(0)
	if err != nil {
		return fmt.Errorf("verdict read: %w", err)
	}
	sstats, err := conns[0].Stats()
	if err != nil {
		return fmt.Errorf("verdict stats: %w", err)
	}

	completed, failures := 0, 0
	for i, e := range errs {
		if e == nil {
			completed++
		} else {
			failures++
			fmt.Fprintf(out, "client %d failed: %v\n", i, e)
		}
	}
	dupeAcks := int64(0)
	for _, c := range conns {
		dupeAcks += c.DupeAcks()
	}
	want := int64(cfg.n * cfg.ops)
	if counter != want {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: counter=%d, want exactly %d (lost or doubled acknowledged writes)\n",
			counter, want)
	}
	if sstats.RestartCount < int64(cfg.restarts) {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: restart_count=%d, want >= %d\n", sstats.RestartCount, cfg.restarts)
	}
	if sstats.RecoveredOps == 0 {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: recovered_ops=0: the restarted server recovered nothing\n")
	}

	// Queue exactly-once verdict, against the RESTARTED incarnation:
	// re-issue the pre-crash dequeue verbatim (same session, same seq).
	// The recovered dedup window must answer it with the original value
	// and WasDuplicate set; the queue must still hold exactly two
	// elements (a double pop would leave one); and a fresh dequeue must
	// yield the NEXT element in FIFO order.
	queueExactlyOnce := false
	{
		// The server leases exactly n identities and every worker still
		// holds one; give one back (Close is idempotent, the deferred
		// close is a no-op) and ride out the lease release.
		conns[cfg.n-1].Close()
		qc, err := client.DialRetry(first.addr, qPolicy)
		if err != nil {
			return fmt.Errorf("queue verdict dial: %w", err)
		}
		qc.SetOpTimeout(2 * time.Second)
		qc.SetSession(qSession)
		redo, err := qc.QDeqOp(0, qName, qDeqSeq)
		if err != nil {
			qc.Close()
			return fmt.Errorf("queue verdict retry dequeue: %w", err)
		}
		qlen, qfound, err := qc.QLen(qName)
		if err != nil {
			qc.Close()
			return fmt.Errorf("queue verdict length: %w", err)
		}
		next, err := qc.QDeqOp(0, qName, qDeqSeq+1)
		qc.Close()
		if err != nil {
			return fmt.Errorf("queue verdict fresh dequeue: %w", err)
		}
		switch {
		case !redo.WasDuplicate || !redo.Found || redo.Value != qFirst:
			failures++
			fmt.Fprintf(out, "CONTRACT VIOLATION: retried dequeue got %+v, want duplicate ack of value %d\n", redo, qFirst)
		case !qfound || qlen != 2:
			failures++
			fmt.Fprintf(out, "CONTRACT VIOLATION: queue length %d after one dequeue of three (found=%v), want 2 — the retry popped again\n", qlen, qfound)
		case !next.Found || next.Value != 22 || next.WasDuplicate:
			failures++
			fmt.Fprintf(out, "CONTRACT VIOLATION: fresh dequeue got %+v, want value 22 in FIFO order\n", next)
		default:
			queueExactlyOnce = true
		}
	}

	// Drain the survivor cleanly so its own WAL close is orderly.
	srv.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-srv.exited:
	case <-time.After(10 * time.Second):
		srv.kill()
	}

	if cfg.asJSON {
		b, err := json.MarshalIndent(struct {
			Completed int        `json:"completed_clients"`
			Clients   int        `json:"clients"`
			Counter   int64      `json:"counter"`
			Want      int64      `json:"want_counter"`
			DupeAcks  int64      `json:"dupe_acks"`
			QueueOnce bool       `json:"queue_exactly_once"`
			Failures  int        `json:"violations"`
			Server    wire.Stats `json:"server"`
		}{completed, cfg.n, counter, want, dupeAcks, queueExactlyOnce, failures, sstats}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", b)
	} else {
		fmt.Fprintf(out, "restart chaos: impl=%s n=%d k=%d ops=%d fsync=%s seed=%d\n",
			cfg.impl, cfg.n, cfg.k, cfg.ops, cfg.fsync, cfg.seed)
		fmt.Fprintf(out, "clients: %d/%d completed; counter=%d (want %d) dupe_acks=%d\n",
			completed, cfg.n, counter, want, dupeAcks)
		fmt.Fprintf(out, "server: restart_count=%d recovered_ops=%d applied_dupes=%d admitted=%d\n",
			sstats.RestartCount, sstats.RecoveredOps, sstats.AppliedDupes, sstats.Admitted)
		fmt.Fprintf(out, "queue: exactly_once=%v (dequeue retried across SIGKILL answered from the dedup window)\n",
			queueExactlyOnce)
	}
	if failures > 0 {
		return fmt.Errorf("%d contract violation(s)", failures)
	}
	if !cfg.asJSON {
		fmt.Fprintf(out, "verdict: durable (%d acknowledged writes survived a SIGKILL restart, none doubled)\n", want)
	}
	return nil
}
