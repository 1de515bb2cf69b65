package cluster

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"kexclusion/internal/durable"
)

const (
	testFailAfter = 400 * time.Millisecond
	testLease     = 200 * time.Millisecond
	testShards    = 16
)

// membershipNode builds the Node New would, minus the listener: three
// members a, b, c at quorum 2, viewed from a, every peer boot-stamped at
// t0 and none heard from. The tests set lastSeen, contacted, roles and
// pins by hand and call evaluate with a clock of their own.
func membershipNode(t *testing.T, t0 time.Time) *Node {
	t.Helper()
	cfg := leaseTestConfig()
	cfg.Shards, cfg.FailAfter, cfg.LeaseDuration = testShards, testFailAfter, testLease
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	n := &Node{
		cfg: cfg, ring: ring, quorum: newQuorumTracker(cfg.Quorum),
		peers: map[string]Peer{},
		roles: make([]shardRole, testShards), lastSeen: map[string]time.Time{}, contacted: map[string]bool{},
		pins: map[string]int{}, redial: map[string]chan struct{}{},
		wake: make(chan struct{}, 1), stopCh: make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		n.peers[p.ID] = p
		if p.ID != cfg.NodeID {
			n.others = append(n.others, p)
			n.lastSeen[p.ID] = t0
			n.redial[p.ID] = make(chan struct{}, 1)
		}
	}
	return n
}

// ringShards lists the shards the full ring gives each member, and
// which of b's fall to a when b is gone.
func ringShards(n *Node) (ofA, ofB, bToA []uint32) {
	all := func(string) bool { return true }
	noB := func(id string) bool { return id != "b" }
	for s := uint32(0); s < testShards; s++ {
		switch n.ring.OwnerAmong(s, all) {
		case "a":
			ofA = append(ofA, s)
		case "b":
			ofB = append(ofB, s)
			if n.ring.OwnerAmong(s, noB) == "a" {
				bToA = append(bToA, s)
			}
		}
	}
	return ofA, ofB, bToA
}

func sorted(s []uint32) []uint32 {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// serve makes the shards primary here, as a promotion that minted epoch
// 1 for them would.
func serve(n *Node, shards ...[]uint32) {
	for _, set := range shards {
		for _, s := range set {
			n.roles[s] = shardRole{primary, 1}
		}
	}
}

// TestMembershipEvaluate pins every rule the loop enforces as a pure
// function of contact times: the quorum gate, the lease gate, the lease
// sweep, suspicion at exactly lastSeen+FailAfter, the returning owner,
// pin release, and the deadline.
func TestMembershipEvaluate(t *testing.T) {
	t0 := time.Now()
	probe := membershipNode(t, t0)
	ofA, ofB, bToA := ringShards(probe)
	if len(ofA) == 0 || len(bToA) == 0 {
		t.Fatalf("ring gives a %v and hands it %v of b's %v: the table needs both non-empty", ofA, bToA, ofB)
	}
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	type want struct {
		held          bool
		reach         int
		gained        []uint32
		gated         bool
		demoted, lost []uint32
		unpin         []string
		next          time.Time
	}
	cases := []struct {
		name  string
		setup func(n *Node)
		now   time.Time
		want  want
	}{
		{
			// Boot stamps keep absent peers in the ring, never in the
			// quorum: a wants its own shards and may not take them.
			name: "alone at boot: gated, nothing served", setup: func(n *Node) {},
			now:  at(time.Millisecond),
			want: want{reach: 1, gained: ofA, gated: true, next: at(testFailAfter)},
		},
		{
			name: "one contact at quorum 2: ring-owned shards gained",
			setup: func(n *Node) {
				n.contacted["b"], n.lastSeen["b"] = true, at(5*time.Millisecond)
			},
			now:  at(5 * time.Millisecond),
			want: want{held: true, reach: 2, gained: ofA, next: at(5*time.Millisecond + testLease)},
		},
		{
			name: "serving under a live lease: nothing to do; deadline is the lease instant of the older witness",
			setup: func(n *Node) {
				serve(n, ofA)
				n.contacted["b"], n.lastSeen["b"] = true, at(50*time.Millisecond)
				n.contacted["c"], n.lastSeen["c"] = true, at(30*time.Millisecond)
			},
			now:  at(60 * time.Millisecond),
			want: want{held: true, reach: 3, next: at(30*time.Millisecond + testLease)},
		},
		{
			name: "1 ns before the lease lapses: still held",
			setup: func(n *Node) {
				serve(n, ofA)
				n.contacted["b"], n.lastSeen["b"] = true, at(0)
			},
			now:  at(testLease - 1),
			want: want{held: true, reach: 2, next: at(testLease)},
		},
		{
			// The lease gate: b still looks alive (FailAfter has not
			// passed), so reach is 2 — and a must all the same not
			// demote only to re-promote.
			name: "lease lapses: every served shard demoted and not re-gained",
			setup: func(n *Node) {
				serve(n, ofA)
				n.contacted["b"], n.lastSeen["b"] = true, at(0)
			},
			now:  at(testLease),
			want: want{reach: 2, demoted: ofA, gained: ofA, gated: true, next: at(testFailAfter)},
		},
		{
			name: "lease still lapsed after the sweep: still gated",
			setup: func(n *Node) {
				n.contacted["b"], n.lastSeen["b"] = true, at(0)
			},
			now:  at(testLease + 50*time.Millisecond),
			want: want{reach: 2, gained: ofA, gated: true, next: at(testFailAfter)},
		},
		{
			name: "the witness returns: re-gained through the gate",
			setup: func(n *Node) {
				n.contacted["b"], n.lastSeen["b"] = true, at(testLease+60*time.Millisecond)
			},
			now:  at(testLease + 60*time.Millisecond),
			want: want{held: true, reach: 2, gained: ofA, next: at(testFailAfter)}, // c's boot stamp is the earlier instant
		},
		{
			// c keeps the lease alive; b has been silent for FailAfter
			// less 1 ns and is still a's peer in the ring.
			name: "1 ns before lastSeen+FailAfter: not suspect, pin kept, deadline is that instant",
			setup: func(n *Node) {
				serve(n, ofA)
				n.pins["b"] = 7
				n.contacted["b"], n.lastSeen["b"] = true, at(0)
				n.contacted["c"], n.lastSeen["c"] = true, at(testFailAfter-time.Millisecond)
			},
			now:  at(testFailAfter - 1),
			want: want{held: true, reach: 3, next: at(testFailAfter)},
		},
		{
			name: "at lastSeen+FailAfter: suspect, its shards fall to the heir, its pin is released",
			setup: func(n *Node) {
				serve(n, ofA)
				n.pins["b"] = 7
				n.contacted["b"], n.lastSeen["b"] = true, at(0)
				n.contacted["c"], n.lastSeen["c"] = true, at(testFailAfter-time.Millisecond)
			},
			now: at(testFailAfter),
			want: want{held: true, reach: 2, gained: bToA, unpin: []string{"b"},
				next: at(testFailAfter - time.Millisecond + testLease)},
		},
		{
			name: "the ring owner returns: its shards are lost at once",
			setup: func(n *Node) {
				serve(n, ofA, bToA)
				n.contacted["b"], n.lastSeen["b"] = true, at(time.Second)
				n.contacted["c"], n.lastSeen["c"] = true, at(time.Second)
			},
			now:  at(time.Second),
			want: want{held: true, reach: 3, lost: bToA, next: at(time.Second + testLease)},
		},
		{
			// Both peers gone for good: a is the ring, holds no lease and
			// reaches no quorum. Nothing flips without a message.
			name: "isolated past FailAfter: wants everything, gets nothing, no deadline",
			setup: func(n *Node) {
				n.contacted["b"], n.lastSeen["b"] = true, at(0)
			},
			now: at(time.Second),
			want: want{reach: 1, gated: true, gained: func() []uint32 {
				every := make([]uint32, testShards)
				for i := range every {
					every[i] = uint32(i)
				}
				return every
			}()},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := membershipNode(t, t0)
			tc.setup(n)
			before := slices.Clone(n.roles)
			d := n.evaluate(tc.now)
			if !slices.Equal(n.roles, before) {
				t.Fatal("evaluate changed a role cell")
			}
			w := tc.want
			if d.held != w.held || d.reach != w.reach || d.gated != w.gated {
				t.Errorf("held=%v reach=%d gated=%v, want %v %d %v", d.held, d.reach, d.gated, w.held, w.reach, w.gated)
			}
			for _, f := range []struct {
				what      string
				got, want []uint32
			}{{"gained", d.gained, w.gained}, {"demoted", d.demoted, w.demoted}, {"lost", d.lost, w.lost}} {
				if !slices.Equal(sorted(f.got), sorted(f.want)) {
					t.Errorf("%s = %v, want %v", f.what, sorted(f.got), sorted(f.want))
				}
			}
			if !slices.Equal(d.unpin, w.unpin) {
				t.Errorf("unpin = %v, want %v", d.unpin, w.unpin)
			}
			if !d.next.Equal(w.next) {
				t.Errorf("next deadline = t0+%v, want t0+%v", d.next.Sub(t0), w.next.Sub(t0))
			}
			// The two properties every deadline has, whatever the case:
			// it is in the future, and it is one of the instants at which
			// silence flips an answer — so none precedes its peer's
			// lastSeen+LeaseDuration, let alone lastSeen+FailAfter.
			if !d.next.IsZero() {
				if !d.next.After(tc.now) {
					t.Errorf("deadline t0+%v is not after now t0+%v", d.next.Sub(t0), tc.now.Sub(t0))
				}
				named := false
				for _, p := range n.others {
					named = named || d.next.Equal(n.lastSeen[p.ID].Add(testFailAfter)) ||
						(n.contacted[p.ID] && d.next.Equal(n.lastSeen[p.ID].Add(testLease)))
				}
				if !named {
					t.Errorf("deadline t0+%v is no peer's lastSeen+LeaseDuration or lastSeen+FailAfter", d.next.Sub(t0))
				}
			}
		})
	}
}

// TestMembershipSuspicionNeverEarly walks a clock across a silent
// owner's FailAfter in deadline-sized steps, as the loop does: the heir
// gains nothing until the instant lastSeen+FailAfter, and the last
// deadline before the takeover is exactly that instant.
func TestMembershipSuspicionNeverEarly(t *testing.T) {
	t0 := time.Now()
	n := membershipNode(t, t0)
	ofA, _, bToA := ringShards(n)
	serve(n, ofA)
	n.contacted["b"], n.contacted["c"] = true, true
	now := t0
	for step := 0; ; step++ {
		if step > 100 {
			t.Fatal("b never became suspect")
		}
		n.lastSeen["c"] = now // c keeps witnessing; b said its last at t0
		d := n.evaluate(now)
		if now.Before(t0.Add(testFailAfter)) {
			if len(d.gained) > 0 || len(d.unpin) > 0 {
				t.Fatalf("at t0+%v, before lastSeen+FailAfter: gained %v, unpin %v", now.Sub(t0), d.gained, d.unpin)
			}
			if d.next.After(t0.Add(testFailAfter)) {
				t.Fatalf("at t0+%v the deadline t0+%v sleeps past b's suspicion instant", now.Sub(t0), d.next.Sub(t0))
			}
			now = d.next
			continue
		}
		if !now.Equal(t0.Add(testFailAfter)) {
			t.Fatalf("first evaluation at or after the instant is at t0+%v, want exactly t0+%v", now.Sub(t0), testFailAfter)
		}
		if !slices.Equal(sorted(d.gained), sorted(bToA)) || d.gated {
			t.Fatalf("at the instant: gained %v (gated %v), want %v ungated", sorted(d.gained), d.gated, sorted(bToA))
		}
		return
	}
}

// TestMembershipTouchWakes: a touch signals the loop exactly when it
// changes an input of evaluate's answer.
func TestMembershipTouchWakes(t *testing.T) {
	n := membershipNode(t, time.Now())
	woken := func() bool {
		select {
		case <-n.wake:
			return true
		default:
			return false
		}
	}
	for _, id := range []string{"a", "kexchaos-probe"} {
		if n.touch(id); woken() || n.contacted[id] {
			t.Fatalf("touch(%q) — self or a stranger — counted as contact", id)
		}
	}
	if n.touch("b"); !woken() {
		t.Fatal("a peer's first contact did not wake the loop")
	}
	if n.touch("b"); woken() {
		t.Fatal("renewing a live witness woke the loop")
	}
	n.mu.Lock()
	n.lastSeen["b"] = time.Now().Add(-testLease) // exactly aged out of the lease
	n.mu.Unlock()
	if n.touch("b"); !woken() {
		t.Fatal("a returning witness did not wake the loop")
	}
	n.mu.Lock()
	n.lastSeen["b"] = time.Now().Add(-2 * testFailAfter) // a suspect coming back
	n.mu.Unlock()
	n.touch("b")
	if n.touch("c"); !woken() || woken() {
		t.Fatal("two signalling touches must leave exactly one token")
	}
}

// flakyBackend fails the first BumpEpochs calls.
type flakyBackend struct {
	stubBackend
	failures atomic.Int32
	bumps    atomic.Int32
}

func (b *flakyBackend) BumpEpochs([]uint32) error {
	b.bumps.Add(1)
	if b.failures.Add(-1) >= 0 {
		return errors.New("disk full")
	}
	return nil
}

// TestMembershipLoopNeedsNoTick runs the real loop on a lone member —
// no peers, so no contact will ever wake it and evaluate names no
// deadline. It must serve at once; and when the epoch bump fails, the
// retry it names itself (LeaseDuration later) is the only thing that
// can bring it back.
func TestMembershipLoopNeedsNoTick(t *testing.T) {
	for _, failures := range []int32{0, 2} {
		b := &flakyBackend{}
		b.failures.Store(failures)
		cfg := Config{
			NodeID: "a", Peers: []Peer{{ID: "a", ClientAddr: "127.0.0.1:1", ReplAddr: "127.0.0.1:2"}},
			Shards: 4, Quorum: 1, Log: new(durable.Log), Backend: b,
			FailAfter: 2 * time.Hour, LeaseDuration: 20 * time.Millisecond,
		}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		ring, _ := NewRing([]string{"a"})
		n := &Node{
			cfg: cfg, ring: ring, peers: map[string]Peer{"a": cfg.Peers[0]},
			roles: make([]shardRole, cfg.Shards), lastSeen: map[string]time.Time{}, contacted: map[string]bool{},
			pins: map[string]int{}, wake: make(chan struct{}, 1), stopCh: make(chan struct{}),
		}
		start := time.Now()
		n.wg.Add(1)
		go n.membershipLoop()
		for !n.Owns(3) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("lone member never served after %d failed bumps (%d attempts)", failures, b.bumps.Load())
			}
			time.Sleep(time.Millisecond)
		}
		took := time.Since(start)
		close(n.stopCh)
		n.wg.Wait()
		if got := b.bumps.Load(); got != failures+1 {
			t.Errorf("%d failed bumps: %d attempts, want %d", failures, got, failures+1)
		}
		if min := time.Duration(failures) * cfg.LeaseDuration; took < min {
			t.Errorf("%d failed bumps: served after %v, before the %v its retries wait", failures, took, min)
		}
		if _, _, promotion := n.Timings(); promotion <= 0 {
			t.Error("Timings reports no promotion after one")
		}
	}
}

// TestMembershipTimings: contact ages count from the boot stamp until a
// peer is heard from, and the lease margin is the Quorum-th youngest
// witness's remaining time — 0 once it has aged out.
func TestMembershipTimings(t *testing.T) {
	n := membershipNode(t, time.Now().Add(-time.Second))
	ages, margin, _ := n.Timings()
	if len(ages) != 2 || ages["b"] < time.Second || ages["c"] < time.Second || margin != 0 {
		t.Fatalf("unheard peers: ages %v margin %v, want both >= 1s from the boot stamp and no margin", ages, margin)
	}
	n.touch("b")
	n.mu.Lock()
	n.contacted["c"], n.lastSeen["c"] = true, time.Now().Add(-testLease/2)
	n.mu.Unlock()
	// Quorum 2 needs one peer witness: the youngest, b, carries the lease.
	if ages, margin, _ = n.Timings(); margin <= testLease/2 || margin > testLease || ages["b"] > testLease/2 {
		t.Fatalf("b just touched, c half a lease ago: margin %v, ages %v; want b's margin in (%v, %v]", margin, ages, testLease/2, testLease)
	}
	n.mu.Lock()
	n.lastSeen["b"], n.lastSeen["c"] = time.Now().Add(-testLease), time.Now().Add(-2*testLease)
	n.mu.Unlock()
	if _, margin, _ = n.Timings(); margin != 0 || n.LeaseHeld() {
		t.Fatalf("every witness aged out: margin %v, held %v", margin, n.LeaseHeld())
	}
}
