// Package netfaults injects the network failure modes a real HPC
// fabric exhibits between a cluster router and its member daemons:
// symmetric and asymmetric partitions, added latency, connections
// dropped mid-body, truncated responses, and flapping links.
//
// The injection point is a Proxy — an in-process TCP relay that sits
// on one router→member link. Healthy, it is a transparent byte pipe;
// faulted, it misbehaves in precisely one of the ways above. Because
// the proxy works at the transport layer, the router's HTTP client
// sees exactly what a broken switch or a congested spine would
// produce: hangs (blackholed directions), resets (cut links), and
// short reads (truncation) — not polite error responses.
//
// Everything is deterministic and seedable, mirroring internal/faults:
// a Plan is an ordered script of Events, RandomPlan derives one from a
// seed, and an Injector applies events to the proxies. Chaos runs and
// unit tests share one fault vocabulary.
package netfaults

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Kind enumerates network fault event types.
type Kind int

// The network fault kinds.
const (
	// PartitionSym cuts the link both ways: existing connections are
	// reset and new ones are refused, exactly like a pulled cable.
	PartitionSym Kind = iota
	// PartitionIn blackholes the inbound (router→member) direction:
	// connections open, but request bytes vanish before the member. The
	// caller hangs until its deadline.
	PartitionIn
	// PartitionOut blackholes the outbound (member→router) direction:
	// the member processes requests but its responses vanish. The
	// ambiguous failure — work done, answer lost.
	PartitionOut
	// Heal removes any partition on the link.
	Heal
	// Latency adds a fixed delay to every transfer direction startup on
	// the link (Delay; 0 restores nominal).
	Latency
	// DropConn arms the link to reset its next Count connections
	// mid-body: some response bytes flow, then the connection dies.
	DropConn
	// Truncate arms the link to truncate the next Count responses: the
	// first chunk is delivered, then the connection closes cleanly —
	// a short body the client must detect.
	Truncate
	// Flap marks one beat of a flapping link: odd beats partition the
	// link symmetrically, even beats heal it. RandomPlan emits these in
	// bursts so a link bounces several times in a few steps.
	Flap
)

var kindNames = map[Kind]string{
	PartitionSym: "partition",
	PartitionIn:  "partition-in",
	PartitionOut: "partition-out",
	Heal:         "heal",
	Latency:      "latency",
	DropConn:     "drop-conn",
	Truncate:     "truncate",
	Flap:         "flap",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scripted network fault.
type Event struct {
	// Step orders events within a Plan; events sharing a step fire
	// together.
	Step int
	// Link is the index of the proxied link the event targets.
	Link int
	Kind Kind

	// Delay parameterizes Latency.
	Delay time.Duration
	// Count parameterizes DropConn and Truncate.
	Count int
	// Beat parameterizes Flap: odd = down, even = up.
	Beat int
}

func (e Event) String() string {
	switch e.Kind {
	case Latency:
		return fmt.Sprintf("step %d: link %d %s %s", e.Step, e.Link, e.Kind, e.Delay)
	case DropConn, Truncate:
		return fmt.Sprintf("step %d: link %d %s ×%d", e.Step, e.Link, e.Kind, e.Count)
	case Flap:
		return fmt.Sprintf("step %d: link %d %s beat %d", e.Step, e.Link, e.Kind, e.Beat)
	default:
		return fmt.Sprintf("step %d: link %d %s", e.Step, e.Link, e.Kind)
	}
}

// ErrUnknownLink is returned when an event names a link the injector
// does not have.
var ErrUnknownLink = errors.New("netfaults: unknown link")

// Proxy is an in-process TCP relay for one link. Create with
// NewProxy; point the client at Addr(). A healthy proxy is a
// transparent pipe; Set* methods switch on one fault at a time.
// All methods are safe for concurrent use.
type Proxy struct {
	ln     net.Listener
	target string

	mu       sync.Mutex
	closed   bool
	cut      bool // symmetric partition: reset existing, refuse new
	blackIn  bool // swallow client→target bytes
	blackOut bool // swallow target→client bytes
	latency  time.Duration
	dropN    int                   // connections to reset mid-body
	truncN   int                   // responses to truncate after the first chunk
	conns    map[net.Conn]struct{} // live client-side conns, for resets
}

// NewProxy starts a relay on 127.0.0.1 toward target ("host:port").
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; dial this instead of the
// target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetTarget re-points the relay, e.g. after the backing daemon
// restarted on a new port. Existing connections keep their old
// target; new ones dial the new one.
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

// SetPartition configures the link's partition state: sym resets and
// refuses everything; in/out blackhole one direction each (the other
// stays live — the asymmetric partitions real fabrics produce).
// All false heals the link.
func (p *Proxy) SetPartition(sym, in, out bool) {
	p.mu.Lock()
	p.cut = sym
	p.blackIn = in
	p.blackOut = out
	var toReset []net.Conn
	if sym {
		for c := range p.conns {
			toReset = append(toReset, c)
		}
	}
	p.mu.Unlock()
	for _, c := range toReset {
		c.Close()
	}
}

// SetLatency adds a fixed startup delay to each transfer direction of
// every new connection (0 restores nominal speed).
func (p *Proxy) SetLatency(d time.Duration) {
	p.mu.Lock()
	p.latency = d
	p.mu.Unlock()
}

// DropNextConns arms the proxy to reset the next n connections after
// relaying the first chunk of response — a mid-body cut.
func (p *Proxy) DropNextConns(n int) {
	p.mu.Lock()
	p.dropN += n
	p.mu.Unlock()
}

// TruncateNextResponses arms the proxy to close the next n
// connections cleanly after the first response chunk — a truncated
// body.
func (p *Proxy) TruncateNextResponses(n int) {
	p.mu.Lock()
	p.truncN += n
	p.mu.Unlock()
}

// Close stops the listener and resets every live connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	var conns []net.Conn
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (p *Proxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed || p.cut {
			p.mu.Unlock()
			c.Close() // refused: the symmetric partition (or shutdown)
			continue
		}
		target := p.target
		latency := p.latency
		drop := p.dropN > 0
		if drop {
			p.dropN--
		}
		trunc := !drop && p.truncN > 0
		if trunc {
			p.truncN--
		}
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		go p.relay(c, target, latency, drop, trunc)
	}
}

// relay pipes one connection through the fault machinery.
func (p *Proxy) relay(c net.Conn, target string, latency time.Duration, drop, trunc bool) {
	defer func() {
		c.Close()
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
	}()
	t, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		return
	}
	defer t.Close()

	done := make(chan struct{}, 2)
	// client → target (the "in" direction).
	go func() {
		p.pipe(t, c, latency, func() bool { return p.blackholed(true) }, 0, false)
		// Half-close toward the target so it sees EOF on the request
		// stream, like a real client hanging up.
		if tc, ok := t.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	// target → client (the "out" direction) carries the mid-body fault
	// arming: drop resets mid-body, trunc closes cleanly mid-body.
	go func() {
		limit := 0
		if drop || trunc {
			// Let a sliver of the response through — enough to prove
			// bytes flowed, far short of any full HTTP response — then
			// act. The client sees a body cut mid-flight.
			limit = 20
		}
		p.pipe(c, t, latency, func() bool { return p.blackholed(false) }, limit, drop)
		done <- struct{}{}
	}()
	// One direction ending (EOF, reset, fault) tears the whole relay
	// down: close both sides so the other pipe unblocks.
	<-done
	c.Close()
	t.Close()
	<-done
}

// blackholed reports whether the given direction is currently
// swallowed. Checked per chunk, so flipping a partition mid-stream
// affects live connections, exactly like pooled keep-alive conns on a
// real link.
func (p *Proxy) blackholed(in bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if in {
		return p.blackIn
	}
	return p.blackOut
}

// pipe copies src→dst chunk by chunk. black() bytes are read and
// discarded (the sender never errors — its bytes just vanish).
// byteLimit > 0 stops the copy after that many relayed bytes; withRST
// arms an abortive close so the peer sees a reset rather than EOF.
func (p *Proxy) pipe(dst, src net.Conn, latency time.Duration, black func() bool, byteLimit int, withRST bool) {
	buf := make([]byte, 32<<10)
	relayed := 0
	if latency > 0 {
		time.Sleep(latency)
	}
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if black() {
				// Swallowed: the direction is partitioned. Keep reading so
				// the sender never blocks — its bytes just vanish.
				continue
			}
			if latency > 0 {
				time.Sleep(latency)
			}
			out := buf[:n]
			if byteLimit > 0 && relayed+n > byteLimit {
				out = buf[:byteLimit-relayed]
			}
			if len(out) > 0 {
				if _, werr := dst.Write(out); werr != nil {
					return
				}
				relayed += len(out)
			}
			if byteLimit > 0 && relayed >= byteLimit {
				if withRST {
					// An abortive close: SO_LINGER 0 turns Close into RST,
					// the honest signature of a connection dying mid-body.
					if tc, ok := dst.(*net.TCPConn); ok {
						tc.SetLinger(0)
					}
				}
				return
			}
		}
		if err != nil {
			// A blackholed direction swallows the connection's end too:
			// propagating the EOF would hand the peer a clean close, but a
			// partition hangs. Hold the pipe open until the link heals or
			// the proxy shuts down.
			for black() && !p.isClosed() {
				time.Sleep(5 * time.Millisecond)
			}
			return
		}
	}
}

func (p *Proxy) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Injector applies events to a set of proxied links, keeps a log, and
// tracks flap state. Apply is safe for concurrent use.
type Injector struct {
	proxies []*Proxy

	mu  sync.Mutex
	log []Event
}

// NewInjector creates an injector over the given links (index i of
// proxies is link i in events).
func NewInjector(proxies []*Proxy) *Injector {
	return &Injector{proxies: proxies}
}

// Apply injects one event into its link and logs it.
func (in *Injector) Apply(ev Event) error {
	if ev.Link < 0 || ev.Link >= len(in.proxies) {
		return fmt.Errorf("%w: %d", ErrUnknownLink, ev.Link)
	}
	p := in.proxies[ev.Link]
	switch ev.Kind {
	case PartitionSym:
		p.SetPartition(true, false, false)
	case PartitionIn:
		p.SetPartition(false, true, false)
	case PartitionOut:
		p.SetPartition(false, false, true)
	case Heal:
		p.SetPartition(false, false, false)
		p.SetLatency(0)
	case Latency:
		p.SetLatency(ev.Delay)
	case DropConn:
		p.DropNextConns(ev.Count)
	case Truncate:
		p.TruncateNextResponses(ev.Count)
	case Flap:
		if ev.Beat%2 == 1 {
			p.SetPartition(true, false, false)
		} else {
			p.SetPartition(false, false, false)
		}
	default:
		return fmt.Errorf("netfaults: unknown event kind %v", ev.Kind)
	}
	in.mu.Lock()
	in.log = append(in.log, ev)
	in.mu.Unlock()
	return nil
}

// Run applies a whole plan in order, stopping at the first error.
func (in *Injector) Run(p Plan) error {
	for _, ev := range p.Events {
		if err := in.Apply(ev); err != nil {
			return err
		}
	}
	return nil
}

// HealAll restores every link to nominal: no partition, no latency.
// Armed drop/truncate counts are not cleared (they drain on the next
// connections), matching faults.Injector.HealAll's transient
// semantics.
func (in *Injector) HealAll() {
	for i := range in.proxies {
		in.Apply(Event{Link: i, Kind: Heal})
	}
}

// Log returns a copy of all applied events in order.
func (in *Injector) Log() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.log))
	copy(out, in.log)
	return out
}
