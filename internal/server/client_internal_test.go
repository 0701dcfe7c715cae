package server

// White-box tests for client-side retry and circuit-breaker plumbing:
// Retry-After parsing in both RFC 9110 forms, and the breaker's state
// machine including the single-probe half-open rule.

import (
	"errors"
	"net/http"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	if got := parseRetryAfter(""); got != 0 {
		t.Errorf("absent value: %v, want 0", got)
	}
	if got := parseRetryAfter("2"); got != 2*time.Second {
		t.Errorf("delay-seconds: %v, want 2s", got)
	}
	if got := parseRetryAfter("0"); got != 0 {
		t.Errorf("zero seconds: %v, want 0", got)
	}
	if got := parseRetryAfter("-3"); got != 0 {
		t.Errorf("negative seconds: %v, want 0", got)
	}
	if got := parseRetryAfter("soonish"); got != 0 {
		t.Errorf("garbage: %v, want 0", got)
	}

	// HTTP-date form, as a proxy might rewrite it.
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 0 || got > 3*time.Second {
		t.Errorf("future HTTP-date: %v, want in (0, 3s]", got)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(past); got != 0 {
		t.Errorf("past HTTP-date: %v, want 0", got)
	}
}

func TestRetryableStatus(t *testing.T) {
	for code, want := range map[int]bool{
		http.StatusTooManyRequests:     true,  // 429: backpressure, retry
		http.StatusServiceUnavailable:  true,  // 503
		http.StatusInsufficientStorage: false, // daemon's capacity verdict is final
		http.StatusBadRequest:          false, // 4xx: the request will never work
		http.StatusNotFound:            false,
		http.StatusConflict:            false,
		http.StatusOK:                  false,
	} {
		if got := retryableStatus(code); got != want {
			t.Errorf("retryableStatus(%d) = %v, want %v", code, got, want)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, 250*time.Millisecond)

	// Closed: requests flow; one failure is not enough to trip.
	if err := b.allow(); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
	b.record(false)
	if err := b.allow(); err != nil {
		t.Fatalf("one failure tripped a threshold-2 breaker: %v", err)
	}
	b.record(false)

	// Open: fail fast until the cooldown passes.
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker allowed a request: %v", err)
	}
	time.Sleep(300 * time.Millisecond)

	// Half-open: exactly one probe goes out; concurrents fail fast.
	if err := b.allow(); err != nil {
		t.Fatalf("half-open breaker rejected the probe: %v", err)
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open breaker admitted a second probe: %v", err)
	}

	// A failed probe reopens immediately.
	b.record(false)
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("failed probe did not reopen the breaker: %v", err)
	}
	time.Sleep(300 * time.Millisecond)

	// A successful probe closes it again.
	if err := b.allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.record(true)
	if err := b.allow(); err != nil {
		t.Fatalf("breaker did not close after successful probe: %v", err)
	}

	// A nil breaker (no WithCircuitBreaker option) never interferes.
	var nb *breaker
	if err := nb.allow(); err != nil {
		t.Fatalf("nil breaker rejected: %v", err)
	}
	nb.record(false)
}
