// Package netfault is a deterministic chaos proxy for the kexserved
// wire protocol: a TCP relay that injects the network's failure modes —
// added latency, silent partitions, connection resets, mid-frame
// truncation — at planned byte offsets on planned connections.
//
// It is the network sibling of internal/faultinject: where that package
// crashes processes at planned points inside the entry/exit sections,
// this one breaks the links between live processes and the server, so
// the session watchdog, per-op deadlines, and client retry discipline
// can be driven through real sockets. Like faultinject, everything is a
// function of the Plan: a Rule names the connection (by accept order)
// it breaks, the fault kind, and the upstream byte offset at which it
// fires, so a seeded run is reproducible chunk for chunk (modulo kernel
// chunking of the streams, which the byte-offset trigger is immune to).
package netfault

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kexclusion/internal/wire"
)

// Action is the fault a Rule injects.
type Action int

const (
	// Forward relays bytes untouched (the implicit default for
	// connections without a rule).
	Forward Action = iota
	// Delay adds fixed latency ahead of every relayed chunk, both
	// directions — the slow link.
	Delay
	// Partition stops relaying in both directions after the trigger,
	// keeping both sockets open — the silent peer. Neither side gets a
	// FIN or RST; only deadlines can detect it.
	Partition
	// Reset hard-closes the client side (SO_LINGER=0, so an RST) at the
	// trigger and drops the server side.
	Reset
	// Truncate relays exactly the trigger offset's bytes upstream and
	// then closes both sides cleanly — cutting a frame in half when the
	// offset lands inside one.
	Truncate
)

var actionNames = map[Action]string{
	Forward:   "forward",
	Delay:     "delay",
	Partition: "partition",
	Reset:     "reset",
	Truncate:  "truncate",
}

func (a Action) String() string {
	if s, ok := actionNames[a]; ok {
		return s
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// ParseActions parses a comma-separated fault list ("partition,reset")
// for CLI flags. Forward is not a valid choice — a connection without a
// rule already forwards. An empty string is a valid empty list (a clean
// relay baseline).
func ParseActions(csv string) ([]Action, error) {
	var kinds []Action
	for _, field := range strings.Split(csv, ",") {
		name := strings.TrimSpace(field)
		if name == "" {
			continue
		}
		found := false
		for a, s := range actionNames {
			if s == name && a != Forward {
				kinds = append(kinds, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("netfault: unknown fault kind %q (want delay, partition, reset, truncate)", name)
		}
	}
	return kinds, nil
}

// Direction selects which way(s) of a proxy's links a runtime
// partition blocks. Unlike the planned per-connection Partition rule
// (permanent, one connection), a runtime partition covers every
// connection of the proxy, can block a single direction (the
// asymmetric-partition case real IP networks produce), and heals:
// bytes read while blocked are held, not dropped, and delivered on
// heal — modeling TCP retransmission carrying traffic across a healed
// IP partition with zero loss.
type Direction int

const (
	// Up blocks client-to-server bytes.
	Up Direction = 1 << iota
	// Down blocks server-to-client bytes.
	Down
)

// Both blocks both directions — the symmetric partition.
const Both = Up | Down

// Rule breaks one proxied connection.
type Rule struct {
	// Conn is the connection this rule arms, by accept order (0-based).
	Conn int
	// Act is the fault kind.
	Act Action
	// After is the upstream (client-to-server) byte offset at which the
	// fault fires; bytes up to the offset are relayed faithfully.
	// Ignored by Delay, which applies from the first chunk.
	After int64
	// Latency is Delay's added per-chunk latency.
	Latency time.Duration
}

// Plan is a seeded set of rules, at most one per connection.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// NewPlan derives a deterministic plan: among conns connections, each
// fault kind in kinds is assigned to a distinct connection at a byte
// offset past the admission handshake (so every victim is admitted
// before its link breaks). Same seed, same plan.
func NewPlan(seed int64, conns int, kinds ...Action) Plan {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(conns)
	p := Plan{Seed: seed}
	unit := requestBytes()
	for i, kind := range kinds {
		if i >= len(perm) {
			break
		}
		p.Rules = append(p.Rules, Rule{
			Conn: perm[i],
			Act:  kind,
			// Fire inside request 2..4 so the victim completes at least
			// one operation first.
			After:   unit + rng.Int63n(3*unit),
			Latency: time.Duration(1+rng.Int63n(5)) * time.Millisecond,
		})
	}
	sort.Slice(p.Rules, func(i, j int) bool { return p.Rules[i].Conn < p.Rules[j].Conn })
	return p
}

// requestBytes is the upstream size of one root-register add in a
// single-op frame: the 4-byte length prefix plus the encoded payload.
// Derived from the codec so plans cannot drift from the framing.
func requestBytes() int64 {
	payload, err := wire.EncodeObjRequest(wire.Request{Kind: wire.KindAdd})
	if err != nil {
		panic(fmt.Sprintf("netfault: encoding a root-register add failed: %v", err))
	}
	return int64(4 + len(payload))
}

// rule finds the rule armed for connection index conn.
func (p Plan) rule(conn int) (Rule, bool) {
	for _, r := range p.Rules {
		if r.Conn == conn {
			return r, true
		}
	}
	return Rule{}, false
}

// String renders the plan for logs and CLI output.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "netfault plan seed=%d:", p.Seed)
	if len(p.Rules) == 0 {
		b.WriteString(" clean relay")
		return b.String()
	}
	for _, r := range p.Rules {
		switch r.Act {
		case Delay:
			fmt.Fprintf(&b, " conn%d:%s+%v", r.Conn, r.Act, r.Latency)
		default:
			fmt.Fprintf(&b, " conn%d:%s@%dB", r.Conn, r.Act, r.After)
		}
	}
	return b.String()
}

// Stats counts what the proxy has done. Snapshot via Proxy.Stats.
type Stats struct {
	// Accepted is how many connections the proxy has relayed.
	Accepted int64 `json:"accepted"`
	// Fired counts rules that have triggered, by action name.
	Partitions  int64 `json:"partitions"`
	Resets      int64 `json:"resets"`
	Truncations int64 `json:"truncations"`
	// DelayedChunks counts chunks that paid a Delay rule's latency.
	DelayedChunks int64 `json:"delayed_chunks"`
	// BytesUp and BytesDown are relayed byte totals (post-fault bytes
	// are never relayed, so a Truncate rule caps its connection's
	// upstream count at the trigger offset).
	BytesUp   int64 `json:"bytes_up"`
	BytesDown int64 `json:"bytes_down"`
}

// Proxy is one listening chaos relay in front of a target address.
type Proxy struct {
	target string
	plan   Plan
	ln     net.Listener

	accepted      atomic.Int64
	partitions    atomic.Int64
	resets        atomic.Int64
	truncations   atomic.Int64
	delayedChunks atomic.Int64
	bytesUp       atomic.Int64
	bytesDown     atomic.Int64

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup

	partMu   sync.Mutex
	part     Direction     // directions currently blocked, all links
	partWake chan struct{} // closed+replaced on every partition change
	done     chan struct{} // closed on proxy Close; unblocks gated pumps
}

// New binds a proxy on an ephemeral localhost port, relaying every
// accepted connection to target under plan.
func New(target string, plan Plan) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target:   target,
		plan:     plan,
		ln:       ln,
		partWake: make(chan struct{}),
		done:     make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// SetPartition blocks the given direction(s) on every link of this
// proxy, at the next chunk boundary. Bytes already read from a socket
// are held by the gated pump and delivered on heal; bytes not yet read
// stay in kernel buffers under TCP flow control — so a heal loses
// nothing, exactly like a routed IP partition. SetPartition(0) heals.
func (p *Proxy) SetPartition(d Direction) {
	p.partMu.Lock()
	p.part = d
	close(p.partWake) // wake gated pumps to re-check
	p.partWake = make(chan struct{})
	p.partMu.Unlock()
}

// Heal lifts any runtime partition; held and buffered bytes flow again.
func (p *Proxy) Heal() { p.SetPartition(0) }

// Partitioned reports the directions currently blocked.
func (p *Proxy) Partitioned() Direction {
	p.partMu.Lock()
	defer p.partMu.Unlock()
	return p.part
}

// gate blocks while dir is partitioned; it returns false when the
// proxy closed while waiting (the pump should exit, its held bytes
// are moot).
func (p *Proxy) gate(up bool) bool {
	dir := Down
	if up {
		dir = Up
	}
	for {
		p.partMu.Lock()
		blocked := p.part&dir != 0
		wake := p.partWake
		p.partMu.Unlock()
		if !blocked {
			return true
		}
		select {
		case <-wake:
		case <-p.done:
			return false
		}
	}
}

// Addr is the address clients dial instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats snapshots the relay counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Accepted:      p.accepted.Load(),
		Partitions:    p.partitions.Load(),
		Resets:        p.resets.Load(),
		Truncations:   p.truncations.Load(),
		DelayedChunks: p.delayedChunks.Load(),
		BytesUp:       p.bytesUp.Load(),
		BytesDown:     p.bytesDown.Load(),
	}
}

// Close stops accepting, closes every relayed connection (partitioned
// ones included), and waits for the pumps to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := append([]net.Conn(nil), p.conns...)
	p.mu.Unlock()
	close(p.done) // unblock pumps gated behind a runtime partition
	err := p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
	return err
}

// track registers a connection for Close-time cleanup; it reports
// false when the proxy is already closed.
func (p *Proxy) track(conns ...net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns = append(p.conns, conns...)
	return true
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for i := 0; ; i++ {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		if !p.track(client, server) {
			client.Close()
			server.Close()
			return
		}
		p.accepted.Add(1)
		rule, _ := p.plan.rule(i) // zero Rule = Forward
		link := &link{proxy: p, rule: rule, client: client, server: server}
		p.wg.Add(2)
		go link.pump(client, server, true)
		go link.pump(server, client, false)
	}
}

// link is one relayed connection pair with its armed rule.
type link struct {
	proxy  *Proxy
	rule   Rule
	client net.Conn
	server net.Conn

	// faulted flips once when the rule fires; both pumps stop relaying.
	faulted atomic.Bool
	fireMu  sync.Mutex
}

// fire executes the rule's fault exactly once.
func (l *link) fire() {
	l.fireMu.Lock()
	defer l.fireMu.Unlock()
	if l.faulted.Load() {
		return
	}
	l.faulted.Store(true)
	switch l.rule.Act {
	case Partition:
		// Nothing is closed: both peers now face pure silence.
		l.proxy.partitions.Add(1)
	case Reset:
		// Count before closing: a peer that sees the close must also
		// see the counter.
		l.proxy.resets.Add(1)
		if tcp, ok := l.client.(*net.TCPConn); ok {
			tcp.SetLinger(0)
		}
		l.client.Close()
		l.server.Close()
	case Truncate:
		l.proxy.truncations.Add(1)
		l.client.Close()
		l.server.Close()
	}
}

// pump relays src to dst until EOF, a fault, or proxy close. up marks
// the client-to-server direction, which is the one rule triggers are
// measured on.
func (l *link) pump(src, dst net.Conn, up bool) {
	defer l.proxy.wg.Done()
	// Either pump's natural end (EOF, write failure) tears the pair
	// down, so a vanished client propagates to the server and a
	// server-side close reaches the client as EOF, not silence — unless
	// a Partition fired, where lingering silently is the point.
	defer func() {
		if !l.faulted.Load() || l.rule.Act == Reset || l.rule.Act == Truncate {
			l.client.Close()
			l.server.Close()
		}
	}()
	counter := &l.proxy.bytesDown
	if up {
		counter = &l.proxy.bytesUp
	}
	relayed := int64(0)
	buf := make([]byte, 32*1024)
	for {
		if l.faulted.Load() {
			return
		}
		n, err := src.Read(buf)
		if n > 0 {
			// Runtime partition gate: hold the chunk (blocking, not
			// dropping) until the direction heals or the proxy closes.
			if !l.proxy.gate(up) {
				return
			}
			chunk := buf[:n]
			// The byte-offset trigger: relay the prefix before the
			// offset, then fire. Only upstream bytes arm triggers.
			if up && l.rule.Act != Forward && l.rule.Act != Delay && relayed+int64(n) >= l.rule.After {
				keep := l.rule.After - relayed
				if keep < 0 {
					keep = 0
				}
				if l.rule.Act == Partition {
					// A partition closes nothing, so the silence can begin
					// before the prefix goes out — and must: a server quick
					// to answer the prefix would otherwise slip its reply
					// through the other pump ahead of the fault.
					l.fire()
				}
				if keep > 0 {
					dst.Write(chunk[:keep])
					counter.Add(keep)
				}
				l.fire()
				return
			}
			if l.rule.Act == Delay {
				l.proxy.delayedChunks.Add(1)
				time.Sleep(l.rule.Latency)
			}
			if l.faulted.Load() {
				return
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
			relayed += int64(n)
			counter.Add(int64(n))
		}
		if err != nil {
			return
		}
	}
}
