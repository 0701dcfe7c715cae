package server

// The v1 error model: every non-2xx response under /v1/ carries a
// uniform machine-readable envelope,
//
//	{"code": "capacity_exhausted", "message": "...", "retryable": false,
//	 "retry_after_seconds": 0}
//
// with a small, stable code vocabulary clients can switch on instead
// of string-matching status text.

import (
	"errors"
	"net/http"

	"hetmem/internal/alloc"
	"hetmem/internal/memsim"
	"hetmem/internal/tenant"
)

// The stable v1 error codes.
const (
	// CodeBadRequest: the request was malformed (missing field, unknown
	// attribute or policy, bad cpuset). Retrying unchanged cannot help.
	CodeBadRequest = "bad_request"
	// CodeLeaseExpired: the lease does not exist — never granted,
	// already freed, or reclaimed by the orphan reaper after its TTL
	// lapsed.
	CodeLeaseExpired = "lease_expired"
	// CodeShedding: admission control refused the allocation to protect
	// the machine's remaining headroom. Retry after the hinted delay.
	CodeShedding = "shedding"
	// CodeNodeOffline: the target node went offline mid-request. Retry;
	// the daemon re-ranks around it.
	CodeNodeOffline = "node_offline"
	// CodeTransientFault: an injected or hardware-transient allocation
	// fault. The node is fine; retry.
	CodeTransientFault = "transient_fault"
	// CodeCapacityExhausted: no candidate target can hold the buffer.
	// Retrying will not help — free, shrink, or ask for partial/remote.
	CodeCapacityExhausted = "capacity_exhausted"
	// CodeInternal: an unexpected daemon-side failure.
	CodeInternal = "internal"
	// CodeMemberUnavailable: a cluster router could not reach the
	// member daemon that owns (or would receive) the lease. Retry; the
	// router migrates the member's leases to survivors in the
	// background, after which the same request lands on a live member.
	CodeMemberUnavailable = "member_unavailable"
	// CodeQuotaExceeded: the tenant's per-kind byte quota cannot hold
	// the allocation. Not retryable — the message names the tenant,
	// the memory kind, and the limit; free bytes or raise the quota.
	CodeQuotaExceeded = "quota_exceeded"
	// CodeQueueTimeout: a burstable allocation waited in the bounded
	// admission queue until its deadline without headroom appearing.
	// Retryable — load may drain.
	CodeQueueTimeout = "queue_timeout"
	// CodeAdvisorPaused: the tiering advisor is paused (or not running
	// at all on this daemon) and the request requires it — pausing an
	// already-paused advisor, or asking an advisor-less daemon for its
	// state. Not retryable: an operator must resume (or enable) it.
	CodeAdvisorPaused = "advisor_paused"
	// CodeNotFound: the route is part of /v1 but this backend does not
	// serve it (a cluster router has no tiering advisor). Not retryable.
	CodeNotFound = "not_found"
)

// ErrorBody is the uniform v1 error envelope.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	// RetryAfterSeconds hints when a retryable request is worth
	// retrying (0: client's choice).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// classify maps a daemon error to its HTTP status, v1 code, and
// whether the same request may succeed later. 503 means "retry later"
// (shed load, transient fault, node just went down); 507 means the
// machine is genuinely full and retrying will not help.
func classify(err error) (status int, code string, retryable bool) {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, CodeBadRequest, false
	case errors.Is(err, errNoSuchLease):
		return http.StatusNotFound, CodeLeaseExpired, false
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable, CodeShedding, true
	case errors.Is(err, tenant.ErrOverQuota):
		// 429, not 503: the daemon has room, this tenant does not.
		return http.StatusTooManyRequests, CodeQuotaExceeded, false
	case errors.Is(err, ErrQueueTimedOut):
		return http.StatusServiceUnavailable, CodeQueueTimeout, true
	case errors.Is(err, memsim.ErrTransient):
		return http.StatusServiceUnavailable, CodeTransientFault, true
	case errors.Is(err, memsim.ErrNodeOffline):
		return http.StatusServiceUnavailable, CodeNodeOffline, true
	case errors.Is(err, ErrMemberUnavailable):
		return http.StatusServiceUnavailable, CodeMemberUnavailable, true
	case errors.Is(err, ErrAdvisorPaused):
		// 409: the request conflicts with the advisor's current state,
		// and only an operator action changes that state.
		return http.StatusConflict, CodeAdvisorPaused, false
	case errors.Is(err, errNotServed):
		return http.StatusNotFound, CodeNotFound, false
	case errors.Is(err, alloc.ErrExhausted), errors.Is(err, memsim.ErrNoCapacity):
		// The daemon is healthy; the machine is full. 507 tells the
		// client to free, shrink, or retry with partial/remote.
		return http.StatusInsufficientStorage, CodeCapacityExhausted, false
	}
	return http.StatusInternalServerError, CodeInternal, false
}

// ErrMemberUnavailable is the cluster router's "the owning member is
// down" error: retryable, because the router re-homes the member's
// leases onto survivors in the background. It lives here, next to the
// rest of the v1 error vocabulary, so classify can map it without the
// server importing the cluster package.
var ErrMemberUnavailable = errors.New("server: cluster member unavailable")

// ErrQueueTimedOut is the admission queue's deadline error: a
// burstable allocation waited QueueTimeout (or its request deadline)
// without the watermark clearing.
var ErrQueueTimedOut = errors.New("server: admission queue timeout")

// ErrAdvisorPaused means the tiering advisor is paused or not running
// on this daemon and the request needed it.
var ErrAdvisorPaused = errors.New("server: advisor paused")

// Sentinel errors matching the v1 codes. server.Client maps an error
// envelope back to these, so callers write
//
//	errors.Is(err, server.ErrCapacityExhausted)
//
// instead of matching on status text; errors.As(*APIError) still
// yields the full envelope.
var (
	ErrCodeBadRequest        = codeSentinel(CodeBadRequest)
	ErrLeaseExpired          = codeSentinel(CodeLeaseExpired)
	ErrShedding              = codeSentinel(CodeShedding)
	ErrNodeOffline           = codeSentinel(CodeNodeOffline)
	ErrTransientFault        = codeSentinel(CodeTransientFault)
	ErrCapacityExhausted     = codeSentinel(CodeCapacityExhausted)
	ErrInternal              = codeSentinel(CodeInternal)
	ErrCodeMemberUnavailable = codeSentinel(CodeMemberUnavailable)
	ErrQuotaExceeded         = codeSentinel(CodeQuotaExceeded)
	ErrQueueTimeout          = codeSentinel(CodeQueueTimeout)
	ErrCodeAdvisorPaused     = codeSentinel(CodeAdvisorPaused)
)

// codeSentinel is an error identified purely by its v1 code.
type codeSentinel string

func (c codeSentinel) Error() string { return "server: " + string(c) }
