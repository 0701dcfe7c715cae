package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// readOne parses a single frame out of raw bytes.
func readOne(t *testing.T, data []byte, max int) ([]byte, error) {
	t.Helper()
	payload, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil, max)
	return payload, err
}

func TestRequestRoundTrip(t *testing.T) {
	body := []byte(`{"name":"x","size":4096}`)
	frame, err := AppendRequest(nil, OpAlloc, 42, "team-a", body)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readOne(t, frame, MaxRequestFrame)
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpAlloc || req.ID != 42 || req.Tenant != "team-a" || !bytes.Equal(req.Body, body) {
		t.Fatalf("roundtrip mismatch: %+v", req)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	body := []byte(`{"lease":7}`)
	frame, err := AppendResponse(nil, 99, 503, body)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readOne(t, frame, MaxResponseFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 99 || resp.Status != 503 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("roundtrip mismatch: %+v", resp)
	}
}

func TestAppendRequestValidation(t *testing.T) {
	if _, err := AppendRequest(nil, 0, 1, "", nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("invalid op: %v", err)
	}
	if _, err := AppendRequest(nil, opSentinel, 1, "", nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("sentinel op: %v", err)
	}
	long := make([]byte, 256)
	if _, err := AppendRequest(nil, OpAlloc, 1, string(long), nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overlong tenant: %v", err)
	}
	big := make([]byte, MaxRequestFrame)
	if _, err := AppendRequest(nil, OpAlloc, 1, "", big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized body: %v", err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	good, err := AppendRequest(nil, OpFree, 7, "", []byte(`{"lease":7}`))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("clean EOF", func(t *testing.T) {
		if _, err := readOne(t, nil, MaxRequestFrame); err != io.EOF {
			t.Fatalf("want io.EOF, got %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := readOne(t, good[:5], MaxRequestFrame); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("want ErrBadFrame, got %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := readOne(t, good[:len(good)-3], MaxRequestFrame); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("want ErrBadFrame, got %v", err)
		}
	})
	t.Run("CRC mismatch", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0x40
		if _, err := readOne(t, bad, MaxRequestFrame); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("want ErrBadFrame, got %v", err)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad[0:4], MaxRequestFrame+1)
		if _, err := readOne(t, bad, MaxRequestFrame); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge, got %v", err)
		}
	})
	t.Run("zero length", func(t *testing.T) {
		bad := make([]byte, frameHeaderSize)
		if _, err := readOne(t, bad, MaxRequestFrame); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("want ErrBadFrame, got %v", err)
		}
	})
}

func TestDecodeRequestErrors(t *testing.T) {
	good, _ := AppendRequest(nil, OpAlloc, 1, "t", []byte("{}"))
	payload, err := readOne(t, good, MaxRequestFrame)
	if err != nil {
		t.Fatal(err)
	}

	short := payload[:5]
	if _, err := DecodeRequest(short); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short payload: %v", err)
	}
	badVer := append([]byte(nil), payload...)
	badVer[0] = 9
	if _, err := DecodeRequest(badVer); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	badOp := append([]byte(nil), payload...)
	badOp[1] = byte(opSentinel)
	if _, err := DecodeRequest(badOp); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad op: %v", err)
	}
	badTenant := append([]byte(nil), payload...)
	badTenant[10] = 200 // tenant length far past the payload end
	if _, err := DecodeRequest(badTenant); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated tenant: %v", err)
	}
	if _, err := DecodeResponse([]byte{Version}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short response: %v", err)
	}
}

// echoHandler answers 200 with the request body, optionally sleeping
// per request to force out-of-order completion.
type echoHandler struct {
	delay func(body []byte) time.Duration
}

func (h echoHandler) ServeWire(_ context.Context, _ Op, _ string, body, dst []byte) (int, []byte) {
	if h.delay != nil {
		time.Sleep(h.delay(body))
	}
	return 200, append(dst, body...)
}

var udsSeq atomic.Int32

// startUDS serves h on a fresh unix socket and returns its path.
func startUDS(t *testing.T, h Handler, stats *Stats) (string, *Server) {
	t.Helper()
	path := filepath.Join(os.TempDir(), fmt.Sprintf("wiretest-%d-%d.sock", os.Getpid(), udsSeq.Add(1)))
	os.Remove(path)
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(h, stats)
	go s.Serve(ln)
	t.Cleanup(func() { s.Close(); os.Remove(path) })
	return path, s
}

// withLanes gives cl exactly n lanes, whatever GOMAXPROCS is on the box
// running the test.
func withLanes(cl *Client, n int) *Client {
	cl.lanes = make([]lane, n)
	return cl
}

// TestMuxOutOfOrder floods one connection with concurrent requests
// whose handler latency is inverted (early requests are slow), so the
// server must answer out of order and the client must re-correlate
// every response by ID. The client has a single lane, so all 32 are
// registered on the one connection.
func TestMuxOutOfOrder(t *testing.T) {
	var stats Stats
	path, _ := startUDS(t, echoHandler{delay: func(body []byte) time.Duration {
		n, _ := strconv.Atoi(string(body))
		return time.Duration(31-n) * time.Millisecond
	}}, &stats)
	cl := withLanes(NewClient("unix", path), 1)
	defer cl.Close()

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := strconv.Itoa(i)
			status, body, err := cl.RoundTrip(context.Background(), 0, OpHealth, "", []byte(want))
			if err != nil {
				errs[i] = err
				return
			}
			if status != 200 || string(body) != want {
				errs[i] = fmt.Errorf("request %d got status %d body %q", i, status, body)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.Requests.Load(); got != n {
		t.Fatalf("requests counter %d, want %d", got, n)
	}
	if got := stats.ActiveConns.Load(); got != 1 {
		t.Fatalf("active conns %d, want 1", got)
	}
	if rx, tx := stats.BytesRx.Load(), stats.BytesTx.Load(); rx == 0 || tx == 0 {
		t.Fatalf("byte counters did not move: rx %d tx %d", rx, tx)
	}
}

// TestDuplicateRequestIDCloses hand-writes two frames reusing one
// request ID while the first is still in flight; the server must treat
// it as a protocol error, count it, and hang up.
func TestDuplicateRequestIDCloses(t *testing.T) {
	var stats Stats
	path, _ := startUDS(t, echoHandler{delay: func([]byte) time.Duration {
		return 200 * time.Millisecond
	}}, &stats)
	nc, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	frame, err := AppendRequest(nil, OpHealth, 1, "", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Same ID twice, back to back: the first is parked in its handler
	// sleep when the second arrives.
	if _, err := nc.Write(append(append([]byte(nil), frame...), frame...)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := nc.Read(buf); err != nil {
			break // server hung up (possibly after flushing the first response)
		}
	}
	if got := stats.DecodeErrors.Load(); got != 1 {
		t.Fatalf("decode errors %d, want 1", got)
	}
}

// TestClientReconnect kills the server under a client, restarts it on
// the same socket, and expects the next RoundTrip to redial and
// succeed — with the in-between failure classified ErrConnDropped.
func TestClientReconnect(t *testing.T) {
	var stats Stats
	path, s := startUDS(t, echoHandler{}, &stats)
	cl := NewClient("unix", path)
	defer cl.Close()

	if _, _, err := cl.RoundTrip(context.Background(), 0, OpHealth, "", []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The connection is dead; the next exchange either fails as a
	// mid-stream drop (the conn died under us) or as not-sent (the
	// redial hit the removed socket) — never silently succeeds.
	if _, _, err := cl.RoundTrip(context.Background(), 0, OpHealth, "", []byte("2")); err == nil {
		t.Fatal("round trip against a closed server succeeded")
	} else if !errors.Is(err, ErrConnDropped) && !errors.Is(err, ErrNotSent) {
		t.Fatalf("unclassified transport error: %v", err)
	}

	os.Remove(path)
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(echoHandler{}, &stats)
	go s2.Serve(ln)
	defer s2.Close()

	status, body, err := cl.RoundTrip(context.Background(), 0, OpHealth, "", []byte("3"))
	if err != nil {
		t.Fatalf("round trip after server restart: %v", err)
	}
	if status != 200 || string(body) != "3" {
		t.Fatalf("got %d %q after reconnect", status, body)
	}
}

func TestDialFailureIsNotSent(t *testing.T) {
	cl := NewClient("unix", filepath.Join(t.TempDir(), "nothing-here.sock"))
	_, _, err := cl.RoundTrip(context.Background(), 0, OpHealth, "", nil)
	if !errors.Is(err, ErrNotSent) {
		t.Fatalf("dial failure must classify as ErrNotSent, got %v", err)
	}
	if errors.Is(err, ErrConnDropped) {
		t.Fatalf("dial failure must not classify as ErrConnDropped: %v", err)
	}
}

// bigHandler answers with a body larger than MaxResponseFrame.
type bigHandler struct{}

func (bigHandler) ServeWire(_ context.Context, _ Op, _ string, _, dst []byte) (int, []byte) {
	return 200, append(dst, make([]byte, MaxResponseFrame+1)...)
}

// TestOversizedResponseAnswers500 proves a response outgrowing the
// frame cap degrades to a 500 for that request without killing the
// connection.
func TestOversizedResponseAnswers500(t *testing.T) {
	path, _ := startUDS(t, bigHandler{}, nil)
	cl := NewClient("unix", path)
	defer cl.Close()
	status, body, err := cl.RoundTrip(context.Background(), 0, OpMetrics, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != 500 || len(body) != 0 {
		t.Fatalf("oversized response: got %d with %d body bytes, want bare 500", status, len(body))
	}
	// Same connection still serves.
	if status, _, err = cl.RoundTrip(context.Background(), 0, OpMetrics, "", nil); err != nil || status != 500 {
		t.Fatalf("connection unusable after oversized response: %d %v", status, err)
	}
}

// TestContextCancelMidFlight cancels a waiting RoundTrip; the call
// returns the context error and the connection keeps serving others.
func TestContextCancelMidFlight(t *testing.T) {
	path, _ := startUDS(t, echoHandler{delay: func(body []byte) time.Duration {
		if string(body) == "slow" {
			return 300 * time.Millisecond
		}
		return 0
	}}, nil)
	cl := NewClient("unix", path)
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := cl.RoundTrip(ctx, 0, OpHealth, "", []byte("slow")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	status, body, err := cl.RoundTrip(context.Background(), 0, OpHealth, "", []byte("ok"))
	if err != nil || status != 200 || string(body) != "ok" {
		t.Fatalf("connection unusable after canceled request: %d %q %v", status, body, err)
	}
}

// TestAttemptTimeout is TestContextCancelMidFlight for RoundTrip's own
// timeout: a handler that stays silent fails the attempt with
// context.DeadlineExceeded itself — what a context derived with that
// timeout reported — the waiter is forgotten, the late answer is
// dropped on the floor, and the connection keeps serving.
func TestAttemptTimeout(t *testing.T) {
	release := make(chan struct{})
	path, _ := startUDS(t, echoHandler{delay: func(body []byte) time.Duration {
		if string(body) == "silent" {
			<-release
		}
		return 0
	}}, nil)
	cl := NewClient("unix", path)
	defer cl.Close()

	start := time.Now()
	_, _, err := cl.RoundTrip(context.Background(), 30*time.Millisecond, OpHealth, "", []byte("silent"))
	if err != context.DeadlineExceeded {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond || d > 2*time.Second {
		t.Fatalf("attempt timed out after %v, want about 30ms", d)
	}
	cc := current(&cl.lanes[0])
	cc.mu.Lock()
	waiting := len(cc.waiters)
	cc.mu.Unlock()
	if waiting != 0 {
		t.Fatalf("%d waiters left behind by the timed-out attempt", waiting)
	}
	close(release) // the orphaned answer arrives now and finds nobody
	status, body, err := cl.RoundTrip(context.Background(), time.Second, OpHealth, "", []byte("ok"))
	if err != nil || status != 200 || string(body) != "ok" {
		t.Fatalf("connection unusable after a timed-out attempt: %d %q %v", status, body, err)
	}

	// The caller's context still wins when it is the sooner one.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := cl.RoundTrip(ctx, time.Minute, OpHealth, "", []byte("ok")); err != context.Canceled {
		t.Fatalf("canceled context under a long attempt timeout: got %v", err)
	}
}

// TestAttemptTimeoutBoundsDial: when nothing answers the dial, the
// attempt timeout ends it (not the 10 s dial timeout), as a provably
// unsent request.
func TestAttemptTimeoutBoundsDial(t *testing.T) {
	cl := NewClient("tcp", "203.0.113.1:9") // TEST-NET-3: routed nowhere
	start := time.Now()
	_, _, err := cl.RoundTrip(context.Background(), 50*time.Millisecond, OpHealth, "", nil)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Skipf("this network answers for TEST-NET-3 (%v); no silent peer to dial", err)
	}
	if !errors.Is(err, ErrNotSent) {
		t.Fatalf("timed-out dial must classify as ErrNotSent, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("dial took %v under a 50ms attempt timeout", d)
	}
}

// TestAttemptTimerIsReused: ten thousand sequential round trips under
// an attempt timeout start no goroutine and leave no timer behind —
// each one stops its timer and hands it to the next, so a bounded
// round trip allocates exactly what an unbounded one does. The server
// may spawn a second dispatch worker when a request arrives before the
// first worker parks, so its pool of parked workers is the one growth
// allowed; a goroutine per trip would show as ten thousand.
func TestAttemptTimerIsReused(t *testing.T) {
	path, srv := startUDS(t, echoHandler{}, nil)
	cl := NewClient("unix", path)
	defer cl.Close()
	body := []byte("x")
	trip := func(timeout time.Duration) func() {
		return func() {
			if _, _, err := cl.RoundTrip(context.Background(), timeout, OpHealth, "", body); err != nil {
				t.Fatal(err)
			}
		}
	}
	trip(time.Minute)() // dial; the reader goroutines start here
	pool := 0
	srv.mu.Lock()
	for sc := range srv.conns {
		pool += cap(sc.idle)
	}
	srv.mu.Unlock()
	before := runtime.NumGoroutine()
	bounded := testing.AllocsPerRun(10000, trip(time.Minute))
	if after := runtime.NumGoroutine(); pool == 0 || after > before+pool {
		t.Errorf("goroutines grew from %d to %d over 10k bounded round trips, more than the server's %d parked dispatch workers",
			before, after, pool)
	}
	unbounded := testing.AllocsPerRun(1000, trip(0))
	// A fresh timer per trip would cost two or more; the one is the
	// race build's sync.Pool, which drops a quarter of its puts.
	if bounded > unbounded+1 {
		t.Errorf("a round trip under an attempt timeout costs %.0f allocations, %.0f without: the timer is not reused", bounded, unbounded)
	}
}

// gatedConn counts the Write calls that reach it. The first blocks
// until release is closed; every Write fails with fail when it is set.
type gatedConn struct {
	release chan struct{}
	fail    error

	mu     sync.Mutex
	writes int
	got    bytes.Buffer
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	first := c.writes == 1
	c.mu.Unlock()
	if first {
		<-c.release
	}
	if c.fail != nil {
		return 0, c.fail
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got.Write(p)
}

// TestFrameWriterCoalesces pins the one write policy both ends of a
// connection share: writers that queue behind a flush in progress
// leave their frames in the buffer, and the last of them flushes all
// of them in one conn Write.
func TestFrameWriterCoalesces(t *testing.T) {
	conn := &gatedConn{release: make(chan struct{})}
	fw := newFrameWriter(conn)
	frames := make([][]byte, 4)
	for i := range frames {
		f, err := AppendResponse(nil, uint64(i+1), 200, []byte(strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(frames))
	write := func(f []byte) {
		defer wg.Done()
		n, err := fw.write(f)
		if err == nil && n != len(f) {
			err = fmt.Errorf("wrote %d of %d bytes", n, len(f))
		}
		errs <- err
	}
	wg.Add(1)
	go write(frames[0])
	eventually(t, "the first flush to reach the conn", func() bool {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return conn.writes == 1
	})
	for _, f := range frames[1:] {
		wg.Add(1)
		go write(f)
	}
	eventually(t, "three writers queued behind the flush", func() bool { return fw.pending.Load() == 3 })
	close(conn.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if conn.writes != 2 {
		t.Fatalf("%d conn writes, want 2: the first frame, then the three queued in one flush", conn.writes)
	}
	if want := len(bytes.Join(frames, nil)); conn.got.Len() != want {
		t.Fatalf("conn got %d bytes, want %d", conn.got.Len(), want)
	}
	// The queued frames arrive whole, in whatever order they took the lock.
	br := bufio.NewReader(&conn.got)
	seen := map[uint64]bool{}
	for range frames {
		payload, _, err := readFrame(br, nil, MaxResponseFrame)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		seen[resp.ID] = true
	}
	if len(seen) != len(frames) {
		t.Fatalf("response IDs %v, want 1..%d", seen, len(frames))
	}

	t.Run("failed flush", func(t *testing.T) {
		boom := errors.New("boom")
		conn := &gatedConn{release: make(chan struct{}), fail: boom}
		close(conn.release)
		if _, err := newFrameWriter(conn).write(frames[0]); !errors.Is(err, boom) {
			t.Fatalf("flushing writer returned %v, want the conn's error", err)
		}
	})
}

// TestCloseWithUnreadResponses: a peer that sends large requests and
// never reads the answers leaves the connection's handler goroutines
// blocked writing into a full socket. Close must still return
// promptly and leave no goroutine behind.
func TestCloseWithUnreadResponses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unread.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	s := NewServer(echoHandler{}, &stats)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	before := runtime.NumGoroutine()

	nc, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const requests = 64
	body := bytes.Repeat([]byte("x"), 512<<10)
	sent := make(chan error, 1)
	go func() {
		var frame []byte
		for id := uint64(1); id <= requests; id++ {
			var err error
			if frame, err = AppendRequest(frame[:0], OpHealth, id, "", body); err != nil {
				sent <- err
				return
			}
			if _, err := nc.Write(frame); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	eventually(t, "every request dispatched", func() bool { return stats.Requests.Load() == requests })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s with responses unread")
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
	nc.Close()
	eventually(t, "the server's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}
