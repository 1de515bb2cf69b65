package cluster

import (
	"net"
	"testing"
	"time"

	"kexclusion/internal/durable"
	"kexclusion/internal/wire"
)

// TestServePullAnswers drives servePull against a real WAL at the three
// positions a follower can be in — behind, caught up and pruned — and
// pins what each answers and how long it parks: WaitEnd first, then one
// read, must answer exactly as read, park, read again did. The node was
// deposed from shard 0 at the epoch 0 it minted, and follows shard 1:
// records of shard 1 are another origin's copies, stepped over without
// ending the long-poll.
func TestServePullAnswers(t *testing.T) {
	log, _, err := durable.Open(durable.Options{Dir: t.TempDir(), Policy: durable.SyncNever, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	vers := map[uint32]uint64{}
	next := func(shard uint32) durable.Record {
		vers[shard]++
		ver := vers[shard]
		return durable.Record{Session: 9, Seq: ver, Shard: shard, Kind: durable.OpRegAdd, Arg: 1, Val: int64(ver), Ver: ver, OK: true}
	}
	appendRec := func(r durable.Record) {
		t.Helper()
		lsn, err := log.Append(r)
		if err == nil {
			err = log.WaitDurable(lsn) // a record is readable once a wait wrote it
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	appendOne := func() { appendRec(next(0)) }
	for i := 0; i < 60; i++ {
		appendOne() // several 512-byte segments
	}
	n := &Node{
		cfg:    Config{NodeID: "a", Log: log, Logf: t.Logf},
		quorum: newQuorumTracker(2),
		pins:   map[string]int{},
		roles:  []shardRole{{deposed, 0}, {follower, 0}},
	}
	const long = 5000 // ms: a pull that parks this long fails the test's own clock
	timed := func(req wire.PullRequest) (wire.PullResponse, time.Duration) {
		start := time.Now()
		resp := n.servePull("b", req)
		return resp, time.Since(start)
	}
	end := log.End()

	// Behind: the log is already past FromLSN, so nothing parks.
	resp, took := timed(wire.PullRequest{FromLSN: 0, WaitMillis: long})
	if resp.Status != wire.StatusOK || resp.Pruned || len(resp.Records) != 60 || resp.ResumeLSN != end || resp.End != end {
		t.Fatalf("behind: %d records, resume %d, end %d, pruned %v, status %s; want 60, %d, %d", len(resp.Records), resp.ResumeLSN, resp.End, resp.Pruned, resp.Status, end, end)
	}
	if resp.Records[0].Ver != 1 || resp.Records[59].Ver != 60 {
		t.Fatalf("behind: records run %d..%d, want 1..60", resp.Records[0].Ver, resp.Records[59].Ver)
	}
	if took > time.Second {
		t.Fatalf("behind: parked %v with records to send", took)
	}
	if resp, _ = timed(wire.PullRequest{FromLSN: end - 10, MaxRecords: 4, WaitMillis: long}); len(resp.Records) != 4 || resp.ResumeLSN != end-6 || resp.End != end {
		t.Fatalf("behind, max 4: %d records, resume %d; want 4, %d", len(resp.Records), resp.ResumeLSN, end-6)
	}

	// Caught up, and the log grows while parked: woken by the append.
	go func() {
		time.Sleep(20 * time.Millisecond)
		appendOne()
	}()
	resp, took = timed(wire.PullRequest{FromLSN: end, AckLSN: end, WaitMillis: long})
	if len(resp.Records) != 1 || resp.Records[0].Ver != 61 || resp.ResumeLSN != end+1 || resp.End != end+1 {
		t.Fatalf("caught up then growth: %d records, resume %d, end %d; want 1, %d, %d", len(resp.Records), resp.ResumeLSN, resp.End, end+1, end+1)
	}
	if took < 15*time.Millisecond || took > time.Second {
		t.Fatalf("caught up then growth: answered after %v, want at the append ~20ms in", took)
	}
	end++

	// Caught up and nothing happens: parks the budget out, answers empty.
	resp, took = timed(wire.PullRequest{FromLSN: end, AckLSN: end, WaitMillis: 40})
	if resp.Status != wire.StatusOK || resp.Pruned || len(resp.Records) != 0 || resp.ResumeLSN != end || resp.End != end {
		t.Fatalf("caught up, idle: %+v", resp)
	}
	if took < 40*time.Millisecond || took > time.Second {
		t.Fatalf("caught up, idle: parked %v of a 40ms budget", took)
	}
	if _, took = timed(wire.PullRequest{FromLSN: end, AckLSN: end}); took > 20*time.Millisecond {
		t.Fatalf("caught up, no budget: parked %v", took)
	}
	if n.quorum.ackOf("b") != end || n.PullsServed() != 5 || n.RecordsServed() != 65 {
		t.Fatalf("ack %d after %d pulls shipping %d records, want %d after 5 shipping 65", n.quorum.ackOf("b"), n.PullsServed(), n.RecordsServed(), end)
	}

	// Pruned: b's pin sits at its ack, so a snapshot drops every sealed
	// segment; a position inside them answers Pruned, at once, with the
	// position unchanged.
	if err := log.WriteSnapshot(func() map[uint32]durable.ShardState { return nil }); err != nil {
		t.Fatal(err)
	}
	resp, took = timed(wire.PullRequest{FromLSN: 3, AckLSN: end, WaitMillis: long})
	if resp.Status != wire.StatusOK || !resp.Pruned || len(resp.Records) != 0 || resp.ResumeLSN != 3 || resp.End != end {
		t.Fatalf("pruned: %+v; want Pruned, resume 3, end %d", resp, end)
	}
	if took > time.Second {
		t.Fatalf("pruned: parked %v", took)
	}

	// Origin only: a pull that finds only shard-1 records parks on, then
	// answers the next shard-0 record — a container, which goes by its
	// first member — with ResumeLSN past both.
	go func() {
		time.Sleep(20 * time.Millisecond)
		appendRec(next(1))
		time.Sleep(20 * time.Millisecond)
		appendRec(durable.Record{Atomic: []durable.Record{next(0), next(0)}})
	}()
	served := n.RecordsServed()
	resp, took = timed(wire.PullRequest{FromLSN: end, AckLSN: end, WaitMillis: long})
	if resp.Status != wire.StatusOK || len(resp.Records) != 1 || len(resp.Records[0].Atomic) != 2 || resp.ResumeLSN != end+2 {
		t.Fatalf("stepping over shard 1: %d records, resume %d, status %s; want shard 0's container, resume %d", len(resp.Records), resp.ResumeLSN, resp.Status, end+2)
	}
	if took < 35*time.Millisecond || took > time.Second {
		t.Fatalf("stepping over shard 1: answered after %v, want at the shard-0 append ~40ms in", took)
	}
	end += 2

	// Nothing of its own until the budget ends — shard 1's container, and
	// shard 0 at an epoch another node minted — is an empty answer whose
	// ResumeLSN has still moved past them.
	appendRec(durable.Record{Atomic: []durable.Record{next(1)}})
	relayed := next(0)
	relayed.Epoch = 1
	appendRec(relayed)
	resp, took = timed(wire.PullRequest{FromLSN: end, AckLSN: end, WaitMillis: 40})
	if resp.Status != wire.StatusOK || len(resp.Records) != 0 || resp.ResumeLSN != end+2 {
		t.Fatalf("nothing of its own: %d records, resume %d, status %s; want 0, resume %d", len(resp.Records), resp.ResumeLSN, resp.Status, end+2)
	}
	if took < 40*time.Millisecond || took > time.Second {
		t.Fatalf("nothing of its own: answered after %v of a 40ms budget", took)
	}
	if got := n.RecordsServed() - served; got != 1 {
		t.Fatalf("%d records shipped by the two pulls, want 1: shard 1's are not this node's", got)
	}
}

// TestPullBackoffEndsOnHelloOnlyAfterUnansweredDial: a hello from the
// peer cuts pullBackoff short when the dial went unanswered — the peer
// was down and is now provably up — and never when the session failed
// after connecting, or two members that each reject the other's stream
// would redial each other at socket speed. The peer's hellos are a
// stream of nudges here, one per millisecond.
func TestPullBackoffEndsOnHelloOnlyAfterUnansweredDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // addr now refuses, as a member not yet started does

	peer := Peer{ID: "b", ClientAddr: "127.0.0.1:1", ReplAddr: addr}
	n := &Node{
		cfg:    Config{NodeID: "a", Shards: 1, Logf: func(string, ...any) {}},
		peers:  map[string]Peer{"b": peer},
		redial: map[string]chan struct{}{"b": make(chan struct{}, 1)},
		stopCh: make(chan struct{}),
	}
	n.wg.Add(1)
	go n.pullLoop(peer)
	hellos := make(chan struct{})
	go func() {
		defer close(hellos)
		for {
			select {
			case <-n.stopCh:
				return
			case <-time.After(time.Millisecond):
				nudge(n.redial["b"])
			}
		}
	}()
	defer func() {
		close(n.stopCh)
		n.wg.Wait()
		<-hellos
	}()

	// Refused dials: every hello retries at once, so the listener that
	// appears 50ms in — well inside the first 200ms backoff — is dialled
	// within a few milliseconds.
	time.Sleep(50 * time.Millisecond)
	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln.Close()
	accepted := make(chan time.Time, 1024) // one per session; far more than the test can open
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- time.Now()
			conn.Close() // the session dies after connecting: no welcome
		}
	}()
	listening := time.Now()
	select {
	case at := <-accepted:
		if late := at.Sub(listening); late > pullBackoff/2 {
			t.Fatalf("first dial %v after the peer came up: the hello did not end the refused-dial backoff", late)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the pull loop never dialled the peer once it was up")
	}

	// Sessions that fail after connecting: the hellos keep coming and must
	// not shorten the backoff. 450ms holds the redials at +200 and +400ms.
	time.Sleep(450 * time.Millisecond)
	if got := len(accepted); got > 3 {
		t.Fatalf("%d redials in 450ms after a post-connect failure: hellos ended a backoff that is not about the peer being down", got)
	}
}
