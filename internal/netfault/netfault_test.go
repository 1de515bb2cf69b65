package netfault_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"kexclusion/internal/netfault"
	"kexclusion/internal/object"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	})
	return srv, addr.String()
}

func startProxy(t *testing.T, target string, plan netfault.Plan) *netfault.Proxy {
	t.Helper()
	px, err := netfault.New(target, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	return px
}

func awaitServer(t *testing.T, srv *server.Server, what string, cond func(st int64) bool, get func() int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(get()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never observed (last %d)", what, get())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCleanRelay(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 2, K: 1, Shards: 1})
	px := startProxy(t, addr, netfault.Plan{Seed: 1})

	c, err := client.Dial(px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := int64(1); i <= 5; i++ {
		if v, err := c.Add(0, 1); err != nil || v != i {
			t.Fatalf("Add through relay = %d, %v; want %d", v, err, i)
		}
	}
	st := px.Stats()
	if st.Accepted != 1 || st.BytesUp == 0 || st.BytesDown == 0 {
		t.Fatalf("relay stats %+v", st)
	}
	if st.Partitions+st.Resets+st.Truncations != 0 {
		t.Fatalf("clean plan fired faults: %+v", st)
	}
}

func TestPlanDeterminism(t *testing.T) {
	a := netfault.NewPlan(42, 8, netfault.Partition, netfault.Reset, netfault.Delay)
	b := netfault.NewPlan(42, 8, netfault.Partition, netfault.Reset, netfault.Delay)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%v\n%v", a, b)
	}
	conns := map[int]bool{}
	for _, r := range a.Rules {
		if conns[r.Conn] {
			t.Fatalf("two rules on conn %d", r.Conn)
		}
		conns[r.Conn] = true
		if r.After < 53 || r.After >= 4*53 {
			t.Fatalf("rule fires at %dB, outside requests 2..4 (53B each)", r.After)
		}
	}
	if s := a.String(); !strings.Contains(s, "seed=42") {
		t.Fatalf("plan string %q", s)
	}
	if s := (netfault.Plan{Seed: 7}).String(); !strings.Contains(s, "clean relay") {
		t.Fatalf("empty plan string %q", s)
	}
}

// TestPartitionWatchdogReclaim is the end-to-end acceptance test for
// the robustness stack: a client behind a silent partition loses its
// identity within the watchdog bound, a client on a healthy link keeps
// completing operations the whole time, and the reclaimed identity is
// leasable again.
func TestPartitionWatchdogReclaim(t *testing.T) {
	const idle = 150 * time.Millisecond
	srv, addr := startServer(t, server.Config{N: 2, K: 1, Shards: 1, IdleTimeout: idle})
	// Partition conn 0 the moment its first request has fully passed.
	px := startProxy(t, addr, netfault.Plan{Seed: 2, Rules: []netfault.Rule{
		{Conn: 0, Act: netfault.Partition, After: 53},
	}})

	victim, err := client.Dial(px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	victim.SetOpTimeout(300 * time.Millisecond)

	healthy, err := client.Dial(addr) // direct link, no chaos
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	// The healthy client hammers ops from before the partition until
	// after the reclaim: it must stay oblivious the whole way through
	// (and staying busy is what keeps its own watchdog quiet).
	stop := make(chan struct{})
	type hres struct {
		ops int64
		err error
	}
	healthyDone := make(chan hres, 1)
	go func() {
		var ops int64
		for {
			select {
			case <-stop:
				healthyDone <- hres{ops, nil}
				return
			default:
			}
			if _, err := healthy.Add(0, 1); err != nil {
				healthyDone <- hres{ops, err}
				return
			}
			ops++
		}
	}()

	// The victim's first Add reaches the server (the partition fires
	// after the request's 53 bytes) but its response vanishes: the op
	// deadline must surface the silence instead of hanging.
	if _, err := victim.Add(0, 1); err == nil {
		t.Fatal("victim's op succeeded across a partition")
	}
	if err := victim.Ping(); !errors.Is(err, client.ErrBroken) {
		t.Fatalf("victim connection not poisoned: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().IdleReclaims < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("partitioned session never reclaimed: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	res := <-healthyDone
	if res.err != nil {
		t.Fatalf("healthy client broken during neighbor's partition: %v", res.err)
	}
	if res.ops == 0 {
		t.Fatal("healthy client completed no ops during the reclaim window")
	}
	ops := res.ops

	// The identity is leasable again: N=2 with the healthy session
	// still admitted, so this dial needs the victim's freed identity.
	fresh, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("reclaimed identity not leasable: %v", err)
	}
	defer fresh.Close()
	if err := fresh.Ping(); err != nil {
		t.Fatal(err)
	}

	// The victim's first Add was applied server-side (exactly once)
	// before the partition ate the response: 1 + healthy's ops.
	if v, err := fresh.Get(0); err != nil || v != ops+1 {
		t.Fatalf("counter = %d, %v; want %d", v, err, ops+1)
	}
}

// TestResetHealsThroughReconnect: an injected RST mid-exchange is a
// transport failure; the retrying client re-admits and completes the
// idempotent read on a fresh link.
func TestResetHealsThroughReconnect(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 2, K: 1, Shards: 1})
	px := startProxy(t, addr, netfault.Plan{Seed: 3, Rules: []netfault.Rule{
		{Conn: 0, Act: netfault.Reset, After: 53},
	}})

	r, err := client.DialRetry(px.Addr(), client.RetryPolicy{Seed: 7, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.SetOpTimeout(2 * time.Second)
	defer r.Close()

	// Conn 0 dies by RST the moment the first Get's request bytes pass.
	// Usually the RST eats the reply and that Get heals onto conn 1,
	// which has no rule; now and then the server's reply wins the race,
	// and it is the second Get that finds the dead link and heals. Both
	// orderings end in the same place.
	for i := 0; i < 2; i++ {
		if _, err := r.Get(0); err != nil {
			t.Fatalf("Get %d did not heal through the reset: %v", i, err)
		}
	}
	if got := r.Reconnects(); got != 2 {
		t.Fatalf("Reconnects = %d, want 2", got)
	}
	if st := px.Stats(); st.Resets != 1 || st.Accepted != 2 {
		t.Fatalf("proxy stats %+v", st)
	}
}

// frameBytes is the upstream size of one request frame: the 4-byte
// length prefix plus the encoded payload.
func frameBytes(t *testing.T, payload []byte, err error) int64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return int64(4 + len(payload))
}

// loseReply makes the Reset rule armed on px's first connection eat a
// reply for certain, and holds the victim's re-issue back until the
// lost attempt has visibly landed. It blocks the server-to-client
// direction, so the reply to the exchange that trips the rule is held
// in the proxy while the RST goes out, and the hello of the victim's
// redial is held too; once the reset has fired it runs landed — which
// waits for the first attempt's effect and may then act on it from
// another session — and heals, releasing the re-issue. Call it after
// the victim has dialed; wait on the returned channel after the
// victim's operation.
func loseReply(t *testing.T, px *netfault.Proxy, landed func() error) <-chan struct{} {
	t.Helper()
	px.SetPartition(netfault.Down)
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		defer px.Heal()
		for deadline := time.Now().Add(5 * time.Second); px.Stats().Resets == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("the reset never fired")
				return
			}
		}
		if err := landed(); err != nil {
			t.Errorf("between the lost attempt and its re-issue: %v", err)
		}
	}()
	return healed
}

// eventually polls get until it returns want.
func eventually(want int64, get func() (int64, error)) error {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		v, err := get()
		if err != nil || v == want {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("still %d after 5s, want %d", v, want)
		}
	}
}

// TestLostDequeueHealsExactlyOnce: dequeue is the non-idempotent
// operation the dedup window exists for. The pop is applied, the RST
// eats its reply, and the client's re-issue — same session × seq, on a
// fresh link — is answered from the window with the value popped the
// first time.
func TestLostDequeueHealsExactlyOnce(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 4, K: 2, Shards: 1})
	payload, err := wire.EncodeObjRequest(wire.Request{Kind: wire.KindQDeq, Obj: "q"})
	px := startProxy(t, addr, netfault.Plan{Seed: 8, Rules: []netfault.Rule{
		{Conn: 0, Act: netfault.Reset, After: frameBytes(t, payload, err)},
	}})

	direct, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if res, err := direct.Create("q", object.TypeQueue, 0); err != nil || !res.Found {
		t.Fatalf("create: %+v, %v", res, err)
	}
	for _, v := range []int64{11, 22, 33} {
		if _, err := direct.QEnq("q", v); err != nil {
			t.Fatal(err)
		}
	}

	r, err := client.DialRetry(px.Addr(), client.RetryPolicy{Seed: 8, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.SetOpTimeout(2 * time.Second)
	defer r.Close()
	healed := loseReply(t, px, func() error {
		return eventually(2, func() (int64, error) { n, _, err := direct.QLen("q"); return n, err })
	})
	res, err := r.QDeq("q")
	<-healed
	if err != nil {
		t.Fatalf("dequeue did not heal through the reset: %v", err)
	}
	if !res.Found || res.Value != 11 || !res.WasDuplicate {
		t.Fatalf("re-issued dequeue = %+v, want the originally popped 11 as a duplicate ack", res)
	}
	if n, found, err := r.QLen("q"); err != nil || !found || n != 2 {
		t.Fatalf("queue length = %d (found %v), %v; want 2: one pop, not two", n, found, err)
	}
	if r.DupeAcks() != 1 || r.Reconnects() != 2 {
		t.Fatalf("DupeAcks = %d, Reconnects = %d; want 1 and 2", r.DupeAcks(), r.Reconnects())
	}
}

// TestLostCASKeepsOriginalVerdict: a re-issued cas returns the verdict
// of its first application even though another session has moved the
// key in between.
func TestLostCASKeepsOriginalVerdict(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 4, K: 2, Shards: 1})
	payload, err := wire.EncodeObjRequest(wire.Request{Kind: wire.KindMapCAS, Obj: "m", Key: "k"})
	px := startProxy(t, addr, netfault.Plan{Seed: 9, Rules: []netfault.Rule{
		{Conn: 0, Act: netfault.Reset, After: frameBytes(t, payload, err)},
	}})

	other, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if res, err := other.Create("m", object.TypeMap, 0); err != nil || !res.Found {
		t.Fatalf("create: %+v, %v", res, err)
	}

	r, err := client.DialRetry(px.Addr(), client.RetryPolicy{Seed: 9, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.SetOpTimeout(2 * time.Second)
	defer r.Close()
	healed := loseReply(t, px, func() error {
		err := eventually(1, func() (int64, error) { v, _, err := other.MapGet("m", "k"); return v, err })
		if err == nil {
			_, err = other.MapPut("m", "k", 5)
		}
		return err
	})
	res, err := r.MapCAS("m", "k", 0, 1)
	<-healed
	if err != nil {
		t.Fatalf("cas did not heal through the reset: %v", err)
	}
	if !res.Found || res.Value != 1 || !res.WasDuplicate {
		t.Fatalf("re-issued cas = %+v, want the original verdict (swapped to 1) as a duplicate ack", res)
	}
	if v, _, err := other.MapGet("m", "k"); err != nil || v != 5 {
		t.Fatalf("key = %d, %v; want the other session's 5 untouched by the re-issue", v, err)
	}
}

// TestAtomicTransferThroughResetAppliesOnce: a two-shard atomic
// transfer whose reply is lost is re-issued whole, as one group, and
// answered from the dedup window: the sum is conserved and exactly one
// group was committed.
func TestAtomicTransferThroughResetAppliesOnce(t *testing.T) {
	srv, addr := startServer(t, server.Config{N: 4, K: 2, Shards: 2})
	direct, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	// One register per shard, by the placement every tool agrees on.
	var names [2]string
	for i := 0; names[0] == "" || names[1] == ""; i++ {
		name := fmt.Sprintf("r%d", i)
		names[direct.ShardFor(name)] = name
	}
	for _, name := range names {
		if res, err := direct.Create(name, object.TypeRegister, 0); err != nil || !res.Found {
			t.Fatalf("create %s: %+v, %v", name, res, err)
		}
	}
	if _, err := direct.RegSet(names[0], 10); err != nil {
		t.Fatal(err)
	}

	group := []client.AtomicOp{
		{Kind: wire.KindRegAdd, Obj: names[0], Shard: 0, Arg: -3},
		{Kind: wire.KindRegAdd, Obj: names[1], Shard: 1, Arg: 3},
	}
	payload, err := wire.ObjBatch{Atomic: true, Reqs: []wire.Request{
		{Kind: wire.KindRegAdd, Obj: names[0]}, {Kind: wire.KindRegAdd, Obj: names[1]},
	}}.Encode()
	px := startProxy(t, addr, netfault.Plan{Seed: 10, Rules: []netfault.Rule{
		{Conn: 0, Act: netfault.Reset, After: frameBytes(t, payload, err)},
	}})
	r, err := client.DialRetry(px.Addr(), client.RetryPolicy{Seed: 10, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.SetOpTimeout(2 * time.Second)
	defer r.Close()
	healed := loseReply(t, px, func() error {
		return eventually(7, func() (int64, error) { v, _, err := direct.RegGet(names[0]); return v, err })
	})
	res, err := r.Atomic(r.AtomicSeqs(group))
	<-healed
	if err != nil {
		t.Fatalf("transfer did not heal through the reset: %v", err)
	}
	if len(res) != 2 || res[0].Value != 7 || res[1].Value != 3 || !res[0].WasDuplicate || !res[1].WasDuplicate {
		t.Fatalf("re-issued transfer = %+v, want 7 and 3 as duplicate acks", res)
	}
	from, _, err := direct.RegGet(names[0])
	if err != nil {
		t.Fatal(err)
	}
	to, _, err := direct.RegGet(names[1])
	if err != nil {
		t.Fatal(err)
	}
	if from != 7 || to != 3 {
		t.Fatalf("registers = %d and %d, want 7 and 3: the sum of 10 moved once", from, to)
	}
	if st := srv.Stats(); st.BatchAtomic != 1 {
		t.Fatalf("batch_atomic = %d, want 1 committed group", st.BatchAtomic)
	}
	if r.Reconnects() != 2 {
		t.Fatalf("Reconnects = %d, want 2", r.Reconnects())
	}
}

// TestTruncateMidFrame: cutting a request frame in half must surface
// server-side as a clean teardown with the identity reclaimed — the
// truncated frame can never be parsed as an operation.
func TestTruncateMidFrame(t *testing.T) {
	srv, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1})
	// 58 bytes: request 1 (53B) passes whole, request 2 is cut at 5 bytes.
	px := startProxy(t, addr, netfault.Plan{Seed: 4, Rules: []netfault.Rule{
		{Conn: 0, Act: netfault.Truncate, After: 58},
	}})

	c, err := client.Dial(px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, err := c.Add(0, 7); err != nil || v != 7 {
		t.Fatalf("first op through truncating link: %d, %v", v, err)
	}
	if _, err := c.Add(0, 1); err == nil {
		t.Fatal("op succeeded across a truncated frame")
	}
	if st := px.Stats(); st.Truncations != 1 || st.BytesUp != 58 {
		t.Fatalf("proxy stats %+v", st)
	}

	// The server tore the session down and reclaimed the identity; the
	// half-request was never applied. N=1 proves re-leasability.
	awaitServer(t, srv, "truncate reclaim",
		func(v int64) bool { return v == 0 },
		func() int64 { return srv.Stats().ActiveSessions })
	fresh, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if v, err := fresh.Get(0); err != nil || v != 7 {
		t.Fatalf("counter = %d, %v; want 7 (half request must not apply)", v, err)
	}
}

// TestRuntimePartitionHealZeroLoss: a symmetric runtime partition
// blocks an in-flight op without failing it, and the heal delivers the
// held bytes — the op completes with nothing lost or doubled, exactly
// like TCP retransmission across a healed IP partition.
func TestRuntimePartitionHealZeroLoss(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 2, K: 1, Shards: 1})
	px := startProxy(t, addr, netfault.Plan{Seed: 6})

	c, err := client.Dial(px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOpTimeout(10 * time.Second)
	if v, err := c.Add(0, 1); err != nil || v != 1 {
		t.Fatalf("pre-partition Add = %d, %v", v, err)
	}

	px.SetPartition(netfault.Both)
	if got := px.Partitioned(); got != netfault.Both {
		t.Fatalf("Partitioned() = %v, want Both", got)
	}
	type res struct {
		v   int64
		err error
	}
	done := make(chan res, 1)
	go func() {
		v, err := c.Add(0, 2)
		done <- res{v, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("op completed across a partition: %d, %v", r.v, r.err)
	case <-time.After(150 * time.Millisecond):
	}

	px.Heal()
	select {
	case r := <-done:
		if r.err != nil || r.v != 3 {
			t.Fatalf("healed op = %d, %v; want 3 (held bytes delivered exactly once)", r.v, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("op never completed after the heal")
	}
	if got := px.Partitioned(); got != 0 {
		t.Fatalf("Partitioned() after heal = %v, want 0", got)
	}
}

// TestRuntimePartitionDirectional pins the asymmetric cases real IP
// networks produce. Down-only: the request crosses, the server
// applies, only the response is held — the client times out but the op
// happened. Up-only: the request itself is held — nothing applies
// until the heal delivers it.
func TestRuntimePartitionDirectional(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 3, K: 1, Shards: 1})
	px := startProxy(t, addr, netfault.Plan{Seed: 7})

	observer, err := client.Dial(addr) // direct, unproxied
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()

	// Down-only partition: the write lands, the ack is held.
	victim, err := client.Dial(px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	victim.SetOpTimeout(200 * time.Millisecond)
	px.SetPartition(netfault.Down)
	if _, err := victim.Add(0, 5); err == nil {
		t.Fatal("op acked across a down-partitioned link")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := observer.Get(0)
		if err != nil {
			t.Fatal(err)
		}
		if v == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter = %d, want 5: down-only partition must not block the request direction", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
	px.Heal()

	// Up-only partition: the request is held, so nothing applies while
	// the partition stands.
	victim2, err := client.Dial(px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer victim2.Close()
	victim2.SetOpTimeout(200 * time.Millisecond)
	px.SetPartition(netfault.Up)
	if _, err := victim2.Add(0, 7); err == nil {
		t.Fatal("op acked across an up-partitioned link")
	}
	if v, err := observer.Get(0); err != nil || v != 5 {
		t.Fatalf("counter = %d, %v during up partition; want 5 (request held, not applied)", v, err)
	}
	// The heal delivers the held request: the write applies (exactly
	// once), even though its client long gave up — TCP semantics, not
	// message-drop semantics.
	px.Heal()
	deadline = time.Now().Add(5 * time.Second)
	for {
		v, err := observer.Get(0)
		if err != nil {
			t.Fatal(err)
		}
		if v == 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter = %d, want 12: healed up-partition must deliver the held request", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDelaySlowsButCompletes: a slow link is degradation, not failure —
// every operation still completes, and the proxy accounts the latency.
func TestDelaySlowsButCompletes(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1})
	px := startProxy(t, addr, netfault.Plan{Seed: 5, Rules: []netfault.Rule{
		{Conn: 0, Act: netfault.Delay, Latency: 3 * time.Millisecond},
	}})

	c, err := client.Dial(px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := int64(1); i <= 5; i++ {
		if v, err := c.Add(0, 1); err != nil || v != i {
			t.Fatalf("Add over slow link = %d, %v; want %d", v, err, i)
		}
	}
	if st := px.Stats(); st.DelayedChunks == 0 {
		t.Fatalf("no chunks delayed: %+v", st)
	}
}
