package server

// White-box tests for client-side retry plumbing: Retry-After parsing
// in both RFC 9110 forms, and which statuses are retryable.

import (
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
