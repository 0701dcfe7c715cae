package server_test

// Transport-error retry semantics: a refused connection means the
// daemon provably never saw the request, so the client retries it
// with backoff even for non-idempotent calls (AllocBatch, Migrate) —
// the case of a member daemon restarting behind a router. Any other
// transport error is ambiguous (the request may have been processed
// before the connection died), so non-idempotent calls fail fast
// while idempotent ones keep retrying.

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetmem/internal/server"
)

// TestAllocBatchRetriesConnRefused reserves a port, closes the
// listener so the first attempts are refused, then brings a daemon up
// on the same address. The batch — which must never be blindly
// replayed on ambiguous failures — still lands, because a refused
// connection is provably unprocessed.
func TestAllocBatchRetriesConnRefused(t *testing.T) {
	addr := closedAddr(t)

	var hits atomic.Int32
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, `{"results":[{"alloc":{"lease":1,"node":0,"size":64}}]}`)
	})}
	defer srv.Close()
	go func() {
		// Let the client eat a few refusals first.
		time.Sleep(60 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port stolen; the test will fail with a clear error
		}
		srv.Serve(ln2)
	}()

	cl := server.NewClient("http://"+addr,
		server.WithRetryPolicy(server.RetryPolicy{MaxAttempts: 10, BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond}),
		server.WithoutHeartbeat())
	out, err := cl.AllocBatch(context.Background(), []server.AllocRequest{{Name: "b0", Size: 64}})
	if err != nil {
		t.Fatalf("AllocBatch should survive conn-refused until the daemon is back: %v", err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(out.Results))
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("daemon saw %d batch requests, want exactly 1 (no double submit)", got)
	}
}

// closedAddr reserves a loopback port and closes it, so dials to it
// are refused until someone listens there again.
func closedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// hangUpServer reads each request sent to it and hangs up without
// answering: the daemon may have processed the request, and the client
// cannot tell. hits counts the requests read.
func hangUpServer(t *testing.T) (base string, hits *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hits = new(atomic.Int32)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				req, err := http.ReadRequest(bufio.NewReader(c))
				if err != nil {
					return
				}
				io.Copy(io.Discard, req.Body)
				hits.Add(1)
			}()
		}
	}()
	return "http://" + ln.Addr().String(), hits
}

// TestNonIdempotentFailsFastOnAmbiguousError: a Migrate (not
// idempotent — each replay re-ranks and may move the buffer again)
// must not be blindly replayed when the transport error leaves the
// first attempt's fate unknown.
func TestNonIdempotentFailsFastOnAmbiguousError(t *testing.T) {
	base, hits := hangUpServer(t)
	cl := server.NewClient(base,
		server.WithRetryPolicy(fastRetry(5)),
		server.WithoutHeartbeat())
	_, err := cl.Migrate(context.Background(), server.MigrateRequest{Lease: 1, Attr: "bandwidth"})
	if err == nil {
		t.Fatal("ambiguous transport failure reported success")
	}
	if !strings.Contains(err.Error(), "non-idempotent") {
		t.Fatalf("error should say the request was not replayed: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("daemon saw %d attempts, want exactly 1 (no blind replay)", got)
	}
}

// TestIdempotentRetriesAmbiguousError: the same ambiguous failure on
// an idempotent request (keyed Alloc) is retried — replaying it is
// harmless because the daemon dedupes on the idempotency key.
func TestIdempotentRetriesAmbiguousError(t *testing.T) {
	base, hits := hangUpServer(t)
	cl := server.NewClient(base,
		server.WithRetryPolicy(fastRetry(3)),
		server.WithoutHeartbeat())
	_, err := cl.Alloc(context.Background(), server.AllocRequest{Name: "a", Size: 64, Attr: "bandwidth"})
	if err == nil {
		t.Fatal("dead transport reported success")
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("daemon saw %d attempts, want 3 (keyed alloc retries ambiguous errors)", got)
	}
}
