package server_test

// Black-box client behavior under unhappy responses: 429 is retried
// (honoring Retry-After), every other 4xx is terminal after a single
// attempt, and the circuit breaker fails fast while the daemon is
// unreachable, then recovers through a half-open probe.

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hetmem/internal/server"
)

func fastRetry(attempts int) server.RetryPolicy {
	return server.RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func TestClientRetries429(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"shedding"}`, http.StatusTooManyRequests)
			return
		}
		io.WriteString(w, `{"status":"ok"}`)
	}))
	defer ts.Close()

	cl := server.NewClient(ts.URL, server.WithRetryPolicy(fastRetry(4)), server.WithoutHeartbeat())
	if _, err := cl.Health(context.Background()); err != nil {
		t.Fatalf("429 then 200 should succeed: %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (one 429, one retry)", got)
	}
}

func TestClientTreats4xxAsTerminal(t *testing.T) {
	for _, code := range []int{http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusInsufficientStorage} {
		var hits atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			http.Error(w, `{"error":"no"}`, code)
		}))
		cl := server.NewClient(ts.URL, server.WithRetryPolicy(fastRetry(4)), server.WithoutHeartbeat())
		_, err := cl.Health(context.Background())
		ts.Close()
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != code {
			t.Fatalf("status %d: err %v, want APIError %d", code, err, code)
		}
		if got := hits.Load(); got != 1 {
			t.Fatalf("status %d: server saw %d requests, want exactly 1", code, got)
		}
	}
}

// TestCircuitBreakerFailsFastAndRecovers: refusals from a closed port
// trip the breaker; while it is open, requests fail fast even though
// the daemon is back on that port, and after the cooldown one probe
// closes it again.
func TestCircuitBreakerFailsFastAndRecovers(t *testing.T) {
	ctx := context.Background()
	addr := closedAddr(t)
	cl := server.NewClient("http://"+addr,
		server.WithRetryPolicy(server.NoRetry),
		server.WithCircuitBreaker(2, 250*time.Millisecond),
		server.WithoutHeartbeat())

	// Two refused dials trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := cl.Health(ctx); !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("attempt %d against a closed port: err %v, want a refused connection", i, err)
		}
	}

	// The daemon comes back, counting what reaches it.
	var hits atomic.Int32
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port %s taken before the daemon came back: %v", addr, err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, `{"status":"ok"}`)
	})}
	go srv.Serve(ln)
	defer srv.Close()

	// Open: requests fail fast without touching the network.
	_, err = cl.Health(ctx)
	if !errors.Is(err, server.ErrCircuitOpen) {
		t.Fatalf("open breaker: err %v, want ErrCircuitOpen", err)
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("open breaker leaked a request to the network (%d hits)", got)
	}

	// After the cooldown the probe closes the breaker and traffic flows
	// again.
	time.Sleep(300 * time.Millisecond)
	if _, err := cl.Health(ctx); err != nil {
		t.Fatalf("probe after recovery failed: %v", err)
	}
	if _, err := cl.Health(ctx); err != nil {
		t.Fatalf("closed breaker rejected traffic: %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("daemon saw %d requests, want 2", got)
	}
}

// The deadline contract: the retry loop must fit inside the caller's
// context. A backoff that would sleep past the deadline fails
// immediately with the last error instead of burning the remaining
// time asleep.
func TestClientBackoffHonorsCallDeadline(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "30") // hint far past any sane deadline
		http.Error(w, `{"code":"shedding","message":"full","retryable":true}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	cl := server.NewClient(ts.URL,
		server.WithRetryPolicy(server.RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Second, MaxDelay: 60 * time.Second}),
		server.WithoutHeartbeat())
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := cl.Health(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("503-forever should fail")
	}
	// The call must return promptly — around one attempt, not after the
	// 10s backoff and certainly not after MaxAttempts of them.
	if elapsed > time.Second {
		t.Fatalf("call took %v; backoff slept past the 250ms deadline", elapsed)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d attempts; with no deadline room there is only time for 1", got)
	}
	// The error carries the retryable status the last attempt saw.
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err %v should surface the last 503", err)
	}
}

// A transport-level hang (the asymmetric-partition signature: the
// connection opens, bytes vanish) is bounded by the per-attempt
// timeout, so one silent member costs attemptTimeout, not forever.
func TestClientAttemptTimeoutBoundsSilentServer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // never answer
	}))
	defer ts.Close()

	cl := server.NewClient(ts.URL,
		server.WithRetryPolicy(server.NoRetry),
		server.WithAttemptTimeout(100*time.Millisecond),
		server.WithoutHeartbeat())
	start := time.Now()
	_, err := cl.Health(context.Background())
	if err == nil {
		t.Fatal("silent server reported success")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("silent server held the call for %v; attempt timeout did not bound it", elapsed)
	}
}

// The caller's context deadline propagates through every attempt: a
// shorter caller deadline beats a longer attempt timeout.
func TestClientCallerDeadlineBeatsAttemptTimeout(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer ts.Close()

	cl := server.NewClient(ts.URL,
		server.WithRetryPolicy(server.NoRetry),
		server.WithAttemptTimeout(30*time.Second),
		server.WithoutHeartbeat())
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Health(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want the caller's DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("caller deadline of 100ms took %v to fire", elapsed)
	}
}
