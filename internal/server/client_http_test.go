package server

// Conformance of the client's own HTTP/1.1 exchange (clienthttp.go):
// every body framing, keep-alive and close, informational responses,
// Retry-After, idle connections the server closed, timeouts and
// cancellation, header injection, TLS and unusual base URLs — each
// against a real net/http server or a scripted raw listener — and a
// differential fuzzer holding the response parser to net/http's.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/wire"
)

const healthJSON = `{"status":"ok"}`

// countConns makes ts count the connections it accepts. Call before
// Start.
func countConns(ts *httptest.Server) *atomic.Int32 {
	n := new(atomic.Int32)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			n.Add(1)
		}
	}
	return n
}

// scripted serves every accepted connection with script and counts
// the connections.
func scripted(t *testing.T, script func(c net.Conn, br *bufio.Reader)) (base string, accepts *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepts = new(atomic.Int32)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer c.Close()
				script(c, bufio.NewReader(c))
			}()
		}
	}()
	return "http://" + ln.Addr().String(), accepts
}

// eachRequest runs answer for every request read from the connection.
func eachRequest(answer func(c net.Conn)) func(net.Conn, *bufio.Reader) {
	return func(c net.Conn, br *bufio.Reader) {
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			io.Copy(io.Discard, req.Body)
			answer(c)
		}
	}
}

func testClient(base string, opts ...ClientOption) *Client {
	return NewClient(base, append([]ClientOption{WithRetryPolicy(NoRetry), WithoutHeartbeat()}, opts...)...)
}

func idleConns(c *Client) int {
	c.hc.mu.Lock()
	defer c.hc.mu.Unlock()
	return len(c.hc.idle)
}

// healthTwice calls Health twice and checks both answers.
func healthTwice(t *testing.T, cl *Client) {
	t.Helper()
	for i := 0; i < 2; i++ {
		h, err := cl.Health(context.Background())
		if err != nil || h.Status != "ok" {
			t.Fatalf("call %d: %+v, %v", i, h, err)
		}
	}
}

func TestHTTPChunkedBody(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, healthJSON[:5])
		w.(http.Flusher).Flush() // the rest goes out chunked
		io.WriteString(w, healthJSON[5:])
	}))
	conns := countConns(ts)
	ts.Start()
	defer ts.Close()
	cl := testClient(ts.URL)
	healthTwice(t, cl)
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections for two chunked responses, want 1 kept alive", n)
	}
}

func TestHTTPConnectionClose(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		io.WriteString(w, healthJSON)
	}))
	conns := countConns(ts)
	ts.Start()
	defer ts.Close()
	cl := testClient(ts.URL)
	healthTwice(t, cl)
	if n := conns.Load(); n != 2 {
		t.Fatalf("%d connections, want 2: Connection: close must not be reused", n)
	}
	if n := idleConns(cl); n != 0 {
		t.Fatalf("%d idle connections after Connection: close, want 0", n)
	}
}

func TestHTTP10Reply(t *testing.T) {
	t.Run("read to close", func(t *testing.T) {
		base, accepts := scripted(t, func(c net.Conn, br *bufio.Reader) {
			if _, err := http.ReadRequest(br); err == nil {
				io.WriteString(c, "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n"+healthJSON)
			}
		})
		cl := testClient(base)
		healthTwice(t, cl)
		if n := accepts.Load(); n != 2 {
			t.Fatalf("%d connections, want 2: an HTTP/1.0 body read to close ends the connection", n)
		}
	})
	t.Run("keep-alive", func(t *testing.T) {
		base, accepts := scripted(t, eachRequest(func(c net.Conn) {
			io.WriteString(c, "HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: "+
				strconv.Itoa(len(healthJSON))+"\r\n\r\n"+healthJSON)
		}))
		cl := testClient(base)
		healthTwice(t, cl)
		if n := accepts.Load(); n != 1 {
			t.Fatalf("%d connections, want 1: HTTP/1.0 with Connection: keep-alive is reusable", n)
		}
	})
}

func TestHTTP100ContinueBeforeResponse(t *testing.T) {
	base, accepts := scripted(t, eachRequest(func(c net.Conn) {
		io.WriteString(c, "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 102 Processing\r\n\r\n"+
			"HTTP/1.1 200 OK\r\nContent-Length: "+strconv.Itoa(len(healthJSON))+"\r\n\r\n"+healthJSON)
	}))
	cl := testClient(base)
	healthTwice(t, cl)
	if n := accepts.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

func TestHTTP204(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	conns := countConns(ts)
	ts.Start()
	defer ts.Close()
	cl := testClient(ts.URL)
	for i := 0; i < 2; i++ {
		resp, err := cl.hc.roundTrip(context.Background(), time.Second, &routes[wire.OpFree], 0, "", []byte(`{"lease":1}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.status != http.StatusNoContent || len(resp.body) != 0 || !resp.keepAlive {
			t.Fatalf("call %d: %+v, want a bodiless 204 that keeps the connection", i, resp)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

func TestHTTPRetryAfterBothForms(t *testing.T) {
	var next atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", next.Load().(string))
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"code":"shedding","message":"full","retryable":true}`)
	}))
	defer ts.Close()
	cl := testClient(ts.URL)

	next.Store("7")
	res, err := cl.do(context.Background(), wire.OpHealth, 0, nil, true)
	if err != nil || res.status != http.StatusServiceUnavailable || res.retryAfter != 7*time.Second {
		t.Fatalf("delay-seconds: %+v, %v; want a 503 with a 7s hint", res, err)
	}
	next.Store(time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat))
	res, err = cl.do(context.Background(), wire.OpHealth, 0, nil, true)
	if err != nil || res.status != http.StatusServiceUnavailable || res.retryAfter <= 0 || res.retryAfter > 3*time.Second {
		t.Fatalf("HTTP-date: %+v, %v; want a 503 with a hint in (0, 3s]", res, err)
	}
	var apiErr *APIError
	if _, err := cl.Health(context.Background()); !errors.As(err, &apiErr) || apiErr.Code != CodeShedding || !apiErr.Retryable {
		t.Fatalf("typed call: %v, want the shedding envelope", err)
	}
}

// A connection the server closed while it sat idle is redialled, not
// written to: a non-idempotent request on it reaches the daemon once
// and succeeds.
func TestHTTPServerClosedIdleConnection(t *testing.T) {
	var migrates atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/migrate" {
			migrates.Add(1)
			io.WriteString(w, `{"lease":1,"placement":"DRAM#0"}`)
			return
		}
		io.WriteString(w, healthJSON)
	}))
	conns := countConns(ts)
	ts.Start()
	defer ts.Close()
	cl := NewClient(ts.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}), WithoutHeartbeat())
	if _, err := cl.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := idleConns(cl); n != 1 {
		t.Fatalf("%d idle connections, want 1", n)
	}
	ts.CloseClientConnections()
	// Wait until the close has reached the client's socket.
	for deadline := time.Now().Add(5 * time.Second); cl.hc.idle[0].idleOK(); {
		if time.Now().After(deadline) {
			t.Fatal("the idle connection still looks open after the server closed it")
		}
		time.Sleep(time.Millisecond)
	}
	out, err := cl.Migrate(context.Background(), MigrateRequest{Lease: 1, Attr: "Bandwidth"})
	if err != nil || out.Placement != "DRAM#0" {
		t.Fatalf("migrate after the server closed the idle connection: %+v, %v", out, err)
	}
	if n := migrates.Load(); n != 1 {
		t.Fatalf("daemon saw %d migrates, want exactly 1", n)
	}
	if n := conns.Load(); n != 2 {
		t.Fatalf("%d connections, want 2 (the closed one redialled)", n)
	}
}

// A server that accepts and goes silent fails the attempt at the
// attempt timeout, and the connection is not reused.
func TestHTTPSilentServerTimesOut(t *testing.T) {
	base, accepts := scripted(t, func(c net.Conn, br *bufio.Reader) {
		io.Copy(io.Discard, br) // read everything, answer nothing
	})
	cl := testClient(base, WithAttemptTimeout(100*time.Millisecond))
	for i := 1; i <= 2; i++ {
		start := time.Now()
		_, err := cl.Health(context.Background())
		elapsed := time.Since(start)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("call %d: err %v, want the attempt deadline", i, err)
		}
		if elapsed < 100*time.Millisecond || elapsed > 2*time.Second {
			t.Fatalf("call %d failed after %v, want about the 100ms attempt timeout", i, elapsed)
		}
		if n := idleConns(cl); n != 0 {
			t.Fatalf("call %d: %d idle connections after a timeout, want 0", i, n)
		}
		if n := accepts.Load(); n != int32(i) {
			t.Fatalf("call %d: %d connections, want %d (the timed-out one is not reused)", i, n, i)
		}
	}
}

// The deadline an exchange leaves on its connection does not retire
// the connection once it passes while the connection sits idle.
func TestHTTPIdleConnOutlivesAttemptDeadline(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, healthJSON)
	}))
	conns := countConns(ts)
	ts.Start()
	defer ts.Close()
	cl := testClient(ts.URL, WithAttemptTimeout(20*time.Millisecond))
	for i := 0; i < 2; i++ {
		if _, err := cl.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections, want 1: an idle connection past its last deadline is still good", n)
	}
}

func TestHTTPContextCancelledMidExchange(t *testing.T) {
	got := make(chan struct{}, 1)
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			got <- struct{}{}
			<-r.Context().Done() // hold the first request until the client hangs up
			return
		}
		io.WriteString(w, healthJSON)
	}))
	defer ts.Close()
	cl := testClient(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-got; cancel() }()
	start := time.Now()
	_, err := cl.Health(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to end the exchange", elapsed)
	}
	if n := idleConns(cl); n != 0 {
		t.Fatalf("%d idle connections after a cancelled exchange, want 0", n)
	}
	if _, err := cl.Health(context.Background()); err != nil {
		t.Fatalf("call after the cancelled one: %v", err)
	}
}

// A tenant that would end its header line and start another is
// refused before anything is dialled or written.
func TestHTTPTenantHeaderInjection(t *testing.T) {
	base, accepts := scripted(t, func(net.Conn, *bufio.Reader) {}) // hang up at once
	for _, cl := range []*Client{
		testClient(base, WithTenant("gold\r\nX-Injected: 1")),
		NewClient(base, WithoutHeartbeat()), // retries would not help either
	} {
		ctx := context.Background()
		if cl.tenant == "" {
			ctx = ContextWithTenant(ctx, "gold\nX-Injected: 1")
		}
		if _, err := cl.Health(ctx); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("err %v, want ErrBadRequest", err)
		}
	}
	if n := accepts.Load(); n != 0 {
		t.Fatalf("%d connections opened for a request that could not be sent", n)
	}

	var tenant atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant.Store(r.Header.Get(TenantHeader))
		io.WriteString(w, healthJSON)
	}))
	defer ts.Close()
	if _, err := testClient(ts.URL, WithTenant("gold\tclass")).Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tenant.Load(); got != "gold\tclass" {
		t.Fatalf("daemon read tenant %q", got)
	}
}

func newTestDaemon(t *testing.T) *Server {
	t.Helper()
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// allocFree runs one typed alloc+free pair against a daemon.
func allocFree(t *testing.T, cl *Client) {
	t.Helper()
	ctx := context.Background()
	resp, err := cl.Alloc(ctx, AllocRequest{Name: "conformance", Size: 4096, Attr: "Capacity", Initiator: "0-19"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Free(ctx, resp.Lease); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPSOverTLS(t *testing.T) {
	ts := httptest.NewUnstartedServer(newTestDaemon(t).Handler())
	conns := countConns(ts)
	ts.StartTLS()
	defer ts.Close()
	cl := testClient(ts.URL)
	cl.hc.tls.RootCAs = ts.Client().Transport.(*http.Transport).TLSClientConfig.RootCAs
	allocFree(t, cl)
	healthTwice(t, cl)
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d TLS connections, want 1 kept alive", n)
	}
}

func TestHTTPBaseURLs(t *testing.T) {
	t.Run("path prefix", func(t *testing.T) {
		ts := httptest.NewServer(http.StripPrefix("/hetmem", newTestDaemon(t).Handler()))
		defer ts.Close()
		cl := testClient(ts.URL + "/hetmem/")
		allocFree(t, cl)
		healthTwice(t, cl)
	})
	t.Run("IPv6 literal", func(t *testing.T) {
		ln, err := net.Listen("tcp6", "[::1]:0")
		if err != nil {
			t.Skipf("no IPv6 loopback: %v", err)
		}
		ts := httptest.NewUnstartedServer(newTestDaemon(t).Handler())
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		defer ts.Close()
		cl := testClient(ts.URL) // http://[::1]:port
		allocFree(t, cl)
		healthTwice(t, cl)
	})
}

// Concurrent callers share one Client's pool: each takes its own
// connection, and the pool keeps at most one per caller.
func TestHTTPConcurrentCallersSharePool(t *testing.T) {
	ts := httptest.NewUnstartedServer(newTestDaemon(t).Handler())
	conns := countConns(ts)
	ts.Start()
	defer ts.Close()
	cl := testClient(ts.URL)
	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			ctx := context.Background()
			for j := 0; j < 50; j++ {
				resp, err := cl.Alloc(ctx, AllocRequest{Name: "shared", Size: 4096, Attr: "Capacity", Initiator: "0-19"})
				if err == nil {
					err = cl.Free(ctx, resp.Lease)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n, idle := conns.Load(), idleConns(cl); n > callers || idle > callers {
		t.Fatalf("%d connections opened, %d idle, for %d callers", n, idle, callers)
	}
}

// FuzzHTTPResponse holds the client's response parser to net/http's.
// On any bytes it never panics and never returns more body than the
// input holds; on every input http.ReadResponse accepts (head and
// body), it agrees on status, Retry-After, keep-alive, body, and where
// the response ends.
func FuzzHTTPResponse(f *testing.F) {
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n" + healthJSON,
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{\"sta\r\na;ext=1\r\ntus\":\"ok\"}\r\n0\r\nX-Trailer: t\r\n\r\nrest",
		"HTTP/1.0 200 OK\r\n\r\nto the end",
		"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nhi",
		"HTTP/1.1 200 OK\r\nConnection: foo, close\r\nContent-Length: 2\r\n\r\nhi",
		"HTTP/1.1 204 No Content\r\nContent-Length: 9\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 7\r\nRetry-After: 9\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 503 x\r\nRetry-After:   Wed, 21 Oct 2015 07:28:00 GMT  \r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
		"HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\nbody",
		"HTTP/1.1 200 OK\r\nX-A: a\r\n  folded\r\nContent-Length: 1\r\n \r\n\r\nz",
		"HTTP/1.1 200 OK\nContent-Length: 1\n\nz",
		"HTTP/1.1 200 OK\r\nContent-Length : 5\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nhi",
		"HTTP/0.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/2.0 +99 odd\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nshort",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.NewReader(data)
		rr := respReader{br: bufio.NewReaderSize(in, 4<<10)}
		got, err := rr.read()
		if len(got.body) > len(data) {
			t.Fatalf("%d body bytes from a %d-byte input", len(got.body), len(data))
		}
		gotRest := rr.br.Buffered() + in.Len()

		in = bytes.NewReader(data)
		br := bufio.NewReader(in)
		resp, werr := http.ReadResponse(br, nil)
		if werr != nil {
			return
		}
		body, werr := io.ReadAll(resp.Body)
		if werr != nil {
			return
		}
		if err != nil {
			if errors.Is(err, errHeaderTooLarge) {
				return // a limit http.ReadResponse does not have
			}
			t.Fatalf("refused what http.ReadResponse reads: %v\n%q", err, data)
		}
		if got.status != resp.StatusCode || got.retryAfter != resp.Header.Get("Retry-After") ||
			got.keepAlive == resp.Close || !bytes.Equal(got.body, body) {
			t.Fatalf("read status %d, Retry-After %q, keep-alive %v, body %q;\nhttp.ReadResponse says %d, %q, %v, %q\n%q",
				got.status, got.retryAfter, got.keepAlive, got.body,
				resp.StatusCode, resp.Header.Get("Retry-After"), !resp.Close, body, data)
		}
		if want := br.Buffered() + in.Len(); gotRest != want {
			t.Fatalf("%d bytes left after the response, http.ReadResponse leaves %d\n%q", gotRest, want, data)
		}
	})
}
