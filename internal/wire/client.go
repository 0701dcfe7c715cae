package wire

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Error kinds for transport-failure classification. The distinction is
// the whole point of satellite retry safety: a request that provably
// never reached the server (the dial failed, or the connection was
// already dead before a byte of the frame was queued) is safe to retry
// even when non-idempotent; a connection that dropped after the frame
// was written is ambiguous — the server may have processed the request
// without us seeing the answer — so only idempotent requests may
// replay it.
var (
	// ErrNotSent: the request provably never reached the server.
	ErrNotSent = errors.New("wire: request not sent")
	// ErrConnDropped: the connection died with the request in flight.
	ErrConnDropped = errors.New("wire: connection dropped mid-request")
)

// transportError pairs the classification sentinel with the underlying
// error, and unwraps to both — errors.Is sees ErrNotSent/ErrConnDropped
// AND syscall-level causes like ECONNREFUSED through one wrapper.
type transportError struct {
	kind error // ErrNotSent or ErrConnDropped
	err  error
}

func (e *transportError) Error() string   { return e.kind.Error() + ": " + e.err.Error() }
func (e *transportError) Unwrap() []error { return []error{e.kind, e.err} }

func notSent(err error) error     { return &transportError{kind: ErrNotSent, err: err} }
func connDropped(err error) error { return &transportError{kind: ErrConnDropped, err: err} }

// maxLanes caps the connections one Client opens. A lane's frames all
// pass through one client reader and one server reader and writer, so
// callers running in parallel want a lane each — but more lanes than
// Ps cannot run in parallel, and past a few the frames of many callers
// stop sharing flushes.
const maxLanes = 4

// Client is a small fixed set of lanes to a daemon's binary-protocol
// listener — min(GOMAXPROCS, maxLanes) of them — each one multiplexed
// connection with lazy dialing and automatic re-establishment: the
// first RoundTrip on a lane after a drop dials fresh. It is safe for
// concurrent use — that is the point: many goroutines share the one
// client, each request tagged with a unique ID, responses correlated
// as they arrive in any order. A request takes the lowest-numbered
// lane with nothing in flight, else the lane with the fewest in
// flight, so a lone sequential caller opens exactly one connection and
// k concurrent callers use min(k, lanes).
//
// The Client retries nothing itself, and one RoundTrip uses one lane:
// a drop fails the requests in flight on that connection only, and
// nothing fails over to another lane. Retry policy, backoff and
// idempotency live in server.Client, which treats this as one
// transport attempt; the error classification above tells it which
// failures are replayable.
type Client struct {
	network string // "unix" or "tcp"
	addr    string

	dialTimeout time.Duration
	nextID      atomic.Uint64

	lanes []lane
}

// lane is one slot for a connection and the count of RoundTrips
// currently using it.
type lane struct {
	inflight atomic.Int32

	mu sync.Mutex
	cc *clientConn
}

// NewClient prepares a client for the daemon's binary listener at
// network/addr ("unix" + socket path, or "tcp" + host:port). No
// connection is made until the first RoundTrip.
func NewClient(network, addr string) *Client {
	return &Client{
		network:     network,
		addr:        addr,
		dialTimeout: 10 * time.Second,
		lanes:       make([]lane, min(runtime.GOMAXPROCS(0), maxLanes)),
	}
}

// Close drops every lane's connection (if any); in-flight requests
// fail with ErrConnDropped. The client remains usable — the next
// RoundTrip redials.
func (c *Client) Close() error {
	for i := range c.lanes {
		l := &c.lanes[i]
		l.mu.Lock()
		cc := l.cc
		l.cc = nil
		l.mu.Unlock()
		if cc != nil {
			cc.fail(connDropped(errors.New("client closed")))
		}
	}
	return nil
}

// acquire picks the lane for one request and counts the request in;
// the caller counts it out when the round trip ends, however it ends —
// a leaked count would keep the lane looking busy forever.
func (c *Client) acquire() *lane {
	var best *lane
	var least int32
	for i := range c.lanes {
		l := &c.lanes[i]
		n := l.inflight.Load()
		if n == 0 {
			if l.inflight.CompareAndSwap(0, 1) {
				return l
			}
			n = 1 // another caller took it between the two reads
		}
		if best == nil || n < least {
			best, least = l, n
		}
	}
	best.inflight.Add(1)
	return best
}

// timerPool recycles the attempt timers. Only a timer whose Stop
// reported that it had not fired goes back, so a pooled timer's channel
// is empty whichever way the toolchain delivers ticks (go.mod says
// go 1.22: timer channels are buffered and a fired timer may still be
// about to send).
var timerPool sync.Pool

func startTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func stopTimer(t *time.Timer) {
	if t.Stop() {
		timerPool.Put(t)
	}
}

// RoundTrip sends one request and waits for its response. The returned
// body is freshly allocated and owned by the caller. Errors unwrap to
// ErrNotSent or ErrConnDropped (see above); a context error is
// returned as-is.
//
// A positive timeout bounds the attempt, dial included, as a context
// derived with that timeout would — the error is
// context.DeadlineExceeded — without deriving one per request.
func (c *Client) RoundTrip(ctx context.Context, timeout time.Duration, op Op, tenant string, body []byte) (status int, respBody []byte, err error) {
	var expired <-chan time.Time // nil, so never ready, without a timeout
	if timeout > 0 {
		t := startTimer(timeout)
		defer stopTimer(t)
		expired = t.C
	}
	l := c.acquire()
	defer l.inflight.Add(-1)
	cc, err := c.conn(ctx, l, timeout)
	if err != nil {
		return 0, nil, notSent(err)
	}
	id := c.nextID.Add(1)
	ch, err := cc.register(id)
	if err != nil {
		// The connection died between our dial/lookup and registration;
		// nothing of this request was ever queued.
		return 0, nil, notSent(err)
	}

	bp := getBuf()
	frame, err := AppendRequest((*bp)[:0], op, id, tenant, body)
	if err != nil {
		*bp = frame[:0]
		putBuf(bp)
		cc.forget(id)
		return 0, nil, notSent(err)
	}
	*bp = frame
	if err := cc.write(frame); err != nil {
		putBuf(bp)
		cc.forget(id)
		// A write error after bytes may have left the socket is
		// ambiguous; fail the whole connection so every waiter learns.
		cc.fail(connDropped(err))
		return 0, nil, connDropped(err)
	}
	putBuf(bp)

	select {
	case r := <-ch:
		waiterPool.Put(ch)
		return r.status, r.body, r.err
	case <-ctx.Done():
		cc.forget(id)
		return 0, nil, ctx.Err()
	case <-expired:
		cc.forget(id)
		return 0, nil, context.DeadlineExceeded
	}
}

// conn returns the lane's live connection, dialing one if needed; the
// dial is bounded by the smaller of the dial timeout and a positive
// attempt timeout.
func (c *Client) conn(ctx context.Context, l *lane, timeout time.Duration) (*clientConn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cc != nil && !l.cc.dead() {
		return l.cc, nil
	}
	d := net.Dialer{Timeout: c.dialTimeout}
	if timeout > 0 && timeout < d.Timeout {
		d.Timeout = timeout
	}
	nc, err := d.DialContext(ctx, c.network, c.addr)
	if err != nil {
		return nil, err
	}
	cc := &clientConn{
		c:       nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		waiters: make(map[uint64]chan clientResult),
		done:    make(chan struct{}),
	}
	go cc.readLoop()
	l.cc = cc
	return cc, nil
}

type clientResult struct {
	status int
	body   []byte
	err    error
}

// clientConn is one live multiplexed connection: a write mutex
// serializing frame writes, a waiter table keyed by request ID, and a
// reader goroutine correlating responses.
type clientConn struct {
	c net.Conn

	wmu     sync.Mutex    // serializes whole-frame writes
	bw      *bufio.Writer // written under wmu
	pending atomic.Int32  // senders that have committed to taking wmu

	mu      sync.Mutex
	waiters map[uint64]chan clientResult
	err     error // set once the connection is failed
	done    chan struct{}
	once    sync.Once
}

func (cc *clientConn) dead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// waiterPool recycles the one-slot channels round trips wait on. A
// channel goes back only from the RoundTrip that received its one
// result: a waiter given up on (timeout, cancellation, a frame that
// was never written) is dropped instead, because its answer may still
// be on the way into it.
var waiterPool sync.Pool

func (cc *clientConn) register(id uint64) (chan clientResult, error) {
	ch, ok := waiterPool.Get().(chan clientResult)
	if !ok {
		ch = make(chan clientResult, 1)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		waiterPool.Put(ch) // never shared
		return nil, cc.err
	}
	cc.waiters[id] = ch
	return ch, nil
}

func (cc *clientConn) forget(id uint64) {
	cc.mu.Lock()
	delete(cc.waiters, id)
	cc.mu.Unlock()
}

// write sends one whole frame under the write lock. net.Conn allows
// concurrent Write calls but does not make them atomic, and an
// interleaved frame would corrupt the stream for every request on the
// connection.
//
// Frames group-commit: a sender that observes another sender already
// committed to the lock (pending > 0 after its own decrement) leaves
// its frame in the buffer and skips the flush — the last sender in
// the burst flushes everyone's frames in one syscall, the same
// coalescing the server's write loop does for responses.
func (cc *clientConn) write(frame []byte) error {
	cc.pending.Add(1)
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	_, err := cc.bw.Write(frame)
	if cc.pending.Add(-1) > 0 && err == nil {
		// The observed sender increments pending before taking wmu, so
		// it (or a later sender, inductively) reaches the flush below.
		return nil
	}
	if err != nil {
		return err
	}
	return cc.bw.Flush()
}

// fail marks the connection dead exactly once and delivers err to
// every waiter: one mid-stream drop fails all in-flight requests, and
// each caller classifies it against its own idempotency.
func (cc *clientConn) fail(err error) {
	cc.once.Do(func() {
		cc.mu.Lock()
		cc.err = err
		waiters := cc.waiters
		cc.waiters = make(map[uint64]chan clientResult)
		cc.mu.Unlock()
		close(cc.done)
		cc.c.Close()
		for _, ch := range waiters {
			ch <- clientResult{err: err}
		}
	})
}

func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.c, 64<<10)
	var buf []byte
	for {
		payload, nbuf, err := readFrame(br, buf[:0], MaxResponseFrame)
		if err != nil {
			cc.fail(connDropped(err))
			return
		}
		buf = nbuf
		resp, err := DecodeResponse(payload)
		if err != nil {
			cc.fail(connDropped(err))
			return
		}
		cc.mu.Lock()
		ch, ok := cc.waiters[resp.ID]
		delete(cc.waiters, resp.ID)
		cc.mu.Unlock()
		if ok {
			// The payload buffer is reused for the next frame; the
			// waiter gets its own copy.
			body := make([]byte, len(resp.Body))
			copy(body, resp.Body)
			ch <- clientResult{status: resp.Status, body: body}
		}
	}
}
