package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"hetmem/internal/advisor"
	"hetmem/internal/topology"
	"hetmem/internal/wire"
)

// RetryPolicy controls the client's resilience to transient failures:
// transport errors and 502/503/504 responses are retried with
// exponential backoff and jitter, honoring any Retry-After hint the
// daemon sends. Other statuses (400, 404, 507, ...) are never retried
// — they mean the same request will fail the same way.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries; <= 1 disables retry.
	MaxAttempts int
	// BaseDelay is the first backoff, doubled each retry.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (and any Retry-After hint).
	MaxDelay time.Duration
}

// DefaultRetry is the retry policy NewClient installs.
var DefaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}

// NoRetry disables retrying entirely.
var NoRetry = RetryPolicy{MaxAttempts: 1}

// Client is the Go API for a running hetmemd daemon. The zero value is
// not usable; create one with NewClient. A Client is safe for
// concurrent use: concurrent callers share its pool of connections.
//
// Every method takes a context; retries stop when it is done. Alloc
// stamps requests with an idempotency key when the caller did not, so
// a retry of a request whose response was lost returns the original
// lease instead of allocating twice.
type Client struct {
	base  string
	retry RetryPolicy
	// attemptTimeout bounds each exchange (dial through body read).
	// The caller's context bounds the whole call, retries and backoff
	// included; whichever deadline is sooner wins.
	attemptTimeout time.Duration
	hb             *heartbeater
	noHB           bool
	// tenant is stamped on every request as X-Hetmem-Tenant. A
	// per-request tenant in the context (ContextWithTenant) wins.
	tenant string
	// Exactly one transport is set. wc speaks the binary protocol to a
	// unix:// or tcp+bin:// base (clientwire.go); hc speaks HTTP/1.1
	// to an http:// or https:// one (clienthttp.go).
	wc *wire.Client
	hc *httpTransport
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithRetryPolicy overrides the retry policy (use NoRetry to fail
// fast).
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithAttemptTimeout bounds each individual attempt (dial through body
// read) instead of one blanket timeout over the whole call.
// The caller's context still bounds the whole call — attempts, backoff
// sleeps, everything — so a router forwarding a request propagates its
// inbound deadline to the member instead of pinning every hop at 30s.
// Zero keeps the 30s default; negative disables the per-attempt bound
// (the context alone governs).
func WithAttemptTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.attemptTimeout = d }
}

// WithoutHeartbeat disables the automatic renewal of TTL leases.
func WithoutHeartbeat() ClientOption {
	return func(c *Client) { c.noHB = true }
}

// WithTenant stamps every request from this client with the tenant's
// X-Hetmem-Tenant header, so the daemon books the client's allocations
// against that tenant's quotas and priority class. A tenant carried in
// the request context (ContextWithTenant) overrides it per call.
func WithTenant(name string) ClientOption {
	return func(c *Client) { c.tenant = name }
}

// NewClient returns a client for the daemon at base, e.g.
// "http://127.0.0.1:7077" or "https://host:port/prefix". A
// "unix:///path.sock" or "tcp+bin://host:port" base selects the binary
// wire protocol over persistent multiplexed connections instead of
// HTTP; every method, option, and error behaves identically (see
// clientwire.go).
//
// Over HTTP the client keeps up to 128 idle keep-alive connections to
// the one host it talks to, one per concurrent caller, and runs each
// exchange on the caller's goroutine (see clienthttp.go). Proxy
// environment variables are not consulted.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:           strings.TrimRight(base, "/"),
		retry:          DefaultRetry,
		attemptTimeout: 30 * time.Second,
		wc:             wireBaseFor(base),
	}
	if c.wc == nil {
		c.hc = newHTTPTransport(c.base)
	}
	for _, o := range opts {
		o(c)
	}
	if c.retry.MaxAttempts < 1 {
		c.retry.MaxAttempts = 1
	}
	if c.attemptTimeout < 0 {
		c.attemptTimeout = 0
	}
	c.hb = newHeartbeater(c)
	return c
}

// Close stops the background heartbeater (if it ever started) and
// drops the transport's connections (over HTTP, the idle ones). The
// client itself remains usable (a later call re-dials); held TTL
// leases just stop being renewed.
func (c *Client) Close() error {
	c.hb.stopAll()
	if c.wc != nil {
		return c.wc.Close()
	}
	c.hc.closeIdle()
	return nil
}

// APIError is a non-2xx daemon response. Use errors.As to get the full
// envelope, or errors.Is against the code sentinels —
//
//	errors.Is(err, server.ErrCapacityExhausted)
//	errors.Is(err, server.ErrShedding)
//
// — to branch on the stable v1 error code without string matching.
type APIError struct {
	StatusCode int
	// Code is the stable v1 error code ("capacity_exhausted",
	// "shedding", ...); empty when the daemon predates v1.
	Code      string
	Message   string
	Retryable bool
	// RetryAfterSeconds is the daemon's retry hint on retryable errors
	// (0: client's choice).
	RetryAfterSeconds int
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.StatusCode)
	}
	return fmt.Sprintf("server: HTTP %d", e.StatusCode)
}

// Is matches an APIError against the v1 code sentinels, so
// errors.Is(err, server.ErrLeaseExpired) works through the client.
func (e *APIError) Is(target error) bool {
	c, ok := target.(codeSentinel)
	return ok && e.Code == string(c)
}

// retryableStatus reports whether a response status is worth retrying.
// Every other 4xx is terminal: the same request will fail the same
// way, so retrying only adds load.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff computes the attempt'th delay (attempt counts from 0) with
// half-jitter: the delay doubles each attempt and the actual sleep is
// drawn from [delay/2, delay], so synchronized clients spread out.
func (p RetryPolicy) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := p.BaseDelay << uint(attempt)
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	if retryAfter > d {
		d = retryAfter
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	half := d / 2
	return half + time.Duration(mrand.Int63n(int64(half)+1))
}

// parseRetryAfter reads a Retry-After value in either RFC 9110 form:
// delay-seconds (what the daemon emits) or an HTTP-date (what proxies
// in front of it may rewrite it to).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if sec, err := strconv.Atoi(v); err == nil {
		if sec < 0 {
			return 0
		}
		return time.Duration(sec) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// connRefused reports whether a transport error is a refused
// connection. A refused dial is the one transport failure that proves
// the server never saw the request — the kernel bounced the SYN (or
// the socket never existed) before a byte of HTTP left the client —
// so it is safe to retry even for non-idempotent requests. Every
// other transport error (reset mid-exchange, EOF on the response) is
// ambiguous: the server may have processed the request without us
// seeing the answer.
func connRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// doResult is one completed exchange plus how bumpy the road there
// was.
type doResult struct {
	status     int
	body       []byte
	retryAfter time.Duration // the daemon's Retry-After hint, if any
	// transportRetries counts attempts lost to transport errors before
	// this response arrived — i.e. attempts the server may have
	// processed without us seeing the answer.
	transportRetries int
}

// do sends one request with the retry policy. body may be nil (GET).
//
// idempotent declares that repeating the request cannot change the
// outcome (GETs, renews, frees, allocs carrying an idempotency key):
// such requests retry every transport error with backoff. A
// non-idempotent request retries a transport error only when it was a
// refused connection — provably never processed — so a member daemon
// restarting under a router does not turn into duplicated work, and
// an ambiguous mid-exchange failure is surfaced instead of replayed.
//
// id is the lease a lease detail asks about: HTTP puts it in the path,
// the binary transport in the body.
func (c *Client) do(ctx context.Context, op wire.Op, id uint64, payload []byte, idempotent bool) (doResult, error) {
	var res doResult
	var lastErr error
	// Refuse before burning attempts what fails identically every
	// time: an HTTP-only op (the advisor control surface) on a binary
	// transport, an unusable base URL or tenant on HTTP.
	rt := &routes[op]
	tenant := c.requestTenant(ctx)
	if c.wc != nil {
		if !op.Valid() {
			return res, fmt.Errorf("server: %s %s is not available on the binary transport (use an http:// base)", rt.method, rt.path)
		}
		if op == wire.OpLeaseDetail {
			payload = appendFreeRequest(nil, id)
		}
	} else if err := c.hc.check(tenant); err != nil {
		return res, err
	}
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			var retryAfter time.Duration
			if lastErr == nil {
				// Previous attempt was a retryable HTTP status.
				retryAfter = res.retryAfter
			}
			delay := c.retry.backoff(attempt-1, retryAfter)
			// The backoff must not sleep past the caller's deadline: a
			// sleep that cannot be followed by a useful attempt only
			// delays the failure the caller is already owed. Fail now,
			// with the last error attached.
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= delay {
				if lastErr != nil {
					return res, fmt.Errorf("server: deadline expires during retry backoff (attempt %d): %w", attempt, lastErr)
				}
				// Retryable HTTP status with no time left: surface it.
				return res, nil
			}
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return res, ctx.Err()
			case <-t.C:
			}
		}
		// Each attempt gets its own deadline under the caller's: a
		// member that accepted the connection and went silent (an
		// asymmetric partition) fails this attempt at attemptTimeout
		// and the loop moves on, instead of consuming the whole call.
		// Both transports bound it without deriving a context: the wire
		// client with a pooled timer, HTTP with a connection deadline.
		var err error
		if c.wc != nil {
			res.status, res.body, err = c.wc.RoundTrip(ctx, c.attemptTimeout, op, tenant, payload)
			if err == nil {
				res.retryAfter = wireRetryAfter(res.status, res.body)
			}
		} else {
			var r httpResponse
			r, err = c.hc.roundTrip(ctx, c.attemptTimeout, rt, id, tenant, payload)
			res.status, res.body, res.retryAfter = r.status, r.body, parseRetryAfter(r.retryAfter)
		}
		if err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			// Only a request the daemon provably never saw is safe to
			// replay when it is not idempotent: a refused dial, or the
			// wire client's ErrNotSent (a failed dial, or registration on
			// a connection that had already died). Anything later — a
			// reset or EOF mid-exchange, a drop of the muxed connection,
			// an attempt timeout — is ambiguous: the daemon may have
			// processed the request and the answer died on the way back.
			if !idempotent && !connRefused(err) && !errors.Is(err, wire.ErrNotSent) {
				return res, fmt.Errorf("server: transport error on non-idempotent request: %w", err)
			}
			res.transportRetries++
			lastErr = err
			continue
		}
		if retryableStatus(res.status) {
			// The status alone is not the last word: quota_exceeded
			// rides on 429 but is terminal — the daemon has room, this
			// tenant does not, and replaying the request only burns the
			// retry budget against a limit that will not move. Trust
			// the envelope's own retryable verdict when it carries one.
			var v1 ErrorBody
			if json.Unmarshal(res.body, &v1) == nil && v1.Code != "" && !v1.Retryable {
				return res, nil
			}
			lastErr = nil
			continue
		}
		return res, nil
	}
	if lastErr != nil {
		return res, fmt.Errorf("server: %d attempts failed, last: %w", c.retry.MaxAttempts, lastErr)
	}
	// Out of attempts on a retryable status: surface it as an APIError.
	return res, nil
}

// get runs a read op and returns the 200 response's body.
func (c *Client) get(ctx context.Context, op wire.Op, id uint64) ([]byte, error) {
	return okBody(c.do(ctx, op, id, nil, true))
}

// post sends an encoded request body and returns the 200 response's.
func (c *Client) post(ctx context.Context, op wire.Op, payload []byte, idempotent bool) ([]byte, error) {
	return okBody(c.do(ctx, op, 0, payload, idempotent))
}

// okBody is a 200 response's body; any other status is its *APIError.
func okBody(res doResult, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, apiErrorFrom(res)
	}
	return res.body, nil
}

// postJSON is post for the shapes off the hot path: encoding/json
// both ways.
func (c *Client) postJSON(ctx context.Context, op wire.Op, req, out any, idempotent bool) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	body, err := c.post(ctx, op, payload, idempotent)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// apiErrorFrom rebuilds the *APIError from a buffered exchange: the v1
// envelope when present, else the body's text.
func apiErrorFrom(res doResult) error {
	var v1 ErrorBody
	if json.Unmarshal(res.body, &v1) == nil && v1.Code != "" {
		return &APIError{
			StatusCode:        res.status,
			Code:              v1.Code,
			Message:           v1.Message,
			Retryable:         v1.Retryable,
			RetryAfterSeconds: v1.RetryAfterSeconds,
		}
	}
	return &APIError{StatusCode: res.status, Message: strings.TrimSpace(string(res.body))}
}

// newIdempotencyKey draws a random key for an /alloc retry family.
func newIdempotencyKey() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; fall back
		// to math/rand rather than crash a client.
		return fmt.Sprintf("k%016x", mrand.Int63())
	}
	return hex.EncodeToString(b[:])
}

// Topology fetches and rebuilds the daemon's machine topology.
func (c *Client) Topology(ctx context.Context) (*topology.Topology, error) {
	body, err := c.get(ctx, wire.OpTopology, 0)
	if err != nil {
		return nil, err
	}
	return topology.Import(body)
}

// Attrs fetches the attribute dump (the Figure 5 report).
func (c *Client) Attrs(ctx context.Context) ([]AttrReport, error) {
	body, err := c.get(ctx, wire.OpAttrs, 0)
	if err != nil {
		return nil, err
	}
	var out []AttrReport
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Alloc places a buffer on the daemon and returns its lease. When the
// request carries no idempotency key and retry is enabled, the client
// stamps one, so a retried alloc can never double-allocate. A lease
// granted with a TTL is heartbeat-renewed in the background until
// freed (or Close is called); disable with WithoutHeartbeat.
func (c *Client) Alloc(ctx context.Context, req AllocRequest) (AllocResponse, error) {
	if req.IdempotencyKey == "" && c.retry.MaxAttempts > 1 {
		req.IdempotencyKey = newIdempotencyKey()
	}
	if math.IsNaN(req.TTLSeconds) || math.IsInf(req.TTLSeconds, 0) {
		// Not representable in JSON; json.Marshal's error says so.
		_, err := json.Marshal(req.TTLSeconds)
		return AllocResponse{}, err
	}
	// Both transports are done with the payload when post returns.
	rb := getReqBuf()
	*rb = appendAllocRequest(*rb, &req)
	body, err := c.post(ctx, wire.OpAlloc, *rb, req.IdempotencyKey != "")
	putReqBuf(rb)
	if err != nil {
		return AllocResponse{}, err
	}
	// The daemon's appender writes the canonical spelling the scanner
	// reads; any other server's JSON decodes the slow way.
	out, ok := scanAllocResponse(body)
	if !ok {
		var slow AllocResponse // apart from out, so only this path escapes
		if err := json.Unmarshal(body, &slow); err != nil {
			return slow, err
		}
		out = slow
	}
	if out.TTLSeconds > 0 && !c.noHB {
		c.hb.track(out.Lease, time.Duration(out.TTLSeconds*float64(time.Second)))
	}
	return out, nil
}

// AllocBatch places many buffers in one round-trip: the daemon
// journals the whole batch as a single write+fsync and returns
// per-item outcomes in request order. Items are independent — inspect
// each BatchAllocItem for its lease or error.
//
// Batches do not support idempotency keys, so the client does not
// stamp any and does not replay ambiguous transport failures (a blind
// retry could double-allocate the items that succeeded). The one
// transport failure that IS retried, with backoff, is a refused
// connection — the daemon provably never saw the batch, e.g. a member
// restarting behind a router. Use Alloc for fully retry-safe single
// placements. TTL leases granted by a batch are heartbeat-renewed
// like Alloc's.
func (c *Client) AllocBatch(ctx context.Context, reqs []AllocRequest) (BatchAllocResponse, error) {
	for i := range reqs {
		if ttl := reqs[i].TTLSeconds; math.IsNaN(ttl) || math.IsInf(ttl, 0) {
			// Not representable in JSON; json.Marshal's error says so.
			_, err := json.Marshal(ttl)
			return BatchAllocResponse{}, err
		}
	}
	// Room for a typical item up front; a batch of long names grows it
	// once or twice instead of from nothing.
	payload := appendBatchAllocRequest(make([]byte, 0, 16+128*len(reqs)), reqs)
	body, err := c.post(ctx, wire.OpAllocBatch, payload, false)
	if err != nil {
		return BatchAllocResponse{}, err
	}
	// The daemon's and the router's appender write the canonical
	// spelling the scanner reads; anything else decodes the slow way.
	out, ok := scanBatchAllocResponse(body)
	if !ok {
		var slow BatchAllocResponse // apart from out, so only this path escapes
		if err := json.Unmarshal(body, &slow); err != nil {
			return BatchAllocResponse{}, err
		}
		out = slow
	}
	if !c.noHB {
		for _, it := range out.Results {
			if it.Alloc != nil && it.Alloc.TTLSeconds > 0 {
				c.hb.track(it.Alloc.Lease, time.Duration(it.Alloc.TTLSeconds*float64(time.Second)))
			}
		}
	}
	return out, nil
}

// Renew heartbeats a lease, pushing its expiry one TTL into the
// future. A zero ttl keeps the lease's granted TTL.
func (c *Client) Renew(ctx context.Context, lease uint64, ttl time.Duration) (RenewResponse, error) {
	req := RenewRequest{Lease: lease, TTLSeconds: ttl.Seconds()}
	body, err := c.post(ctx, wire.OpRenew, appendRenewRequest(nil, &req), true)
	if err != nil {
		return RenewResponse{}, err
	}
	if out, ok := scanRenew(body); ok {
		return RenewResponse(out), nil
	}
	var out RenewResponse
	err = json.Unmarshal(body, &out)
	return out, err
}

// Free releases a lease. A 404 after a lost response is success: the
// daemon freed the lease on an attempt whose answer never arrived.
func (c *Client) Free(ctx context.Context, lease uint64) error {
	c.hb.untrack(lease)
	res, err := c.do(ctx, wire.OpFree, 0, appendFreeRequest(nil, lease), true)
	if err != nil {
		return err
	}
	if res.status == http.StatusNotFound && res.transportRetries > 0 {
		return nil
	}
	if res.status != http.StatusOK {
		return apiErrorFrom(res)
	}
	return nil
}

// Migrate re-places a leased buffer for a new attribute. A migrate is
// not idempotent (each replay re-ranks and may move the buffer
// again), so only connection-refused transport errors are retried.
func (c *Client) Migrate(ctx context.Context, req MigrateRequest) (MigrateResponse, error) {
	var out MigrateResponse
	err := c.postJSON(ctx, wire.OpMigrate, req, &out, false)
	return out, err
}

// Leases fetches the live lease table summary (with the per-lease list
// when list is true).
func (c *Client) Leases(ctx context.Context, list bool) (LeasesResponse, error) {
	op := wire.OpLeases
	if list {
		op = wire.OpLeaseList
	}
	body, err := c.get(ctx, op, 0)
	if err != nil {
		return LeasesResponse{}, err
	}
	var out LeasesResponse
	err = json.Unmarshal(body, &out)
	return out, err
}

// LeaseDetail fetches one lease's full record — placement, attribute,
// advisor classification, and access telemetry.
func (c *Client) LeaseDetail(ctx context.Context, lease uint64) (LeaseDetailResponse, error) {
	body, err := c.get(ctx, wire.OpLeaseDetail, lease)
	if err != nil {
		return LeaseDetailResponse{}, err
	}
	var out LeaseDetailResponse
	err = json.Unmarshal(body, &out)
	return out, err
}

// Advisor fetches the tiering advisor's state: configuration, cycle
// and move counters, and the rolling decision log. Daemons running
// without an advisor answer 409 advisor_paused
// (errors.Is(err, server.ErrCodeAdvisorPaused)).
func (c *Client) Advisor(ctx context.Context) (advisor.Snapshot, error) {
	body, err := c.get(ctx, opAdvisor, 0)
	if err != nil {
		return advisor.Snapshot{}, err
	}
	var out advisor.Snapshot
	err = json.Unmarshal(body, &out)
	return out, err
}

// AdvisorPause suspends automatic re-placement. Pausing an
// already-paused advisor is a 409 advisor_paused error, so callers
// coordinating a maintenance window can detect a double-pause.
func (c *Client) AdvisorPause(ctx context.Context) error {
	return c.postJSON(ctx, opAdvisorPause, struct{}{}, nil, false)
}

// AdvisorResume restarts automatic re-placement; resuming a running
// advisor is a no-op.
func (c *Client) AdvisorResume(ctx context.Context) error {
	return c.postJSON(ctx, opAdvisorResume, struct{}{}, nil, true)
}

// Health fetches the daemon's health report.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	body, err := c.get(ctx, wire.OpHealth, 0)
	if err != nil {
		return HealthResponse{}, err
	}
	var out HealthResponse
	err = json.Unmarshal(body, &out)
	return out, err
}

// MetricsRaw fetches the /metrics text.
func (c *Client) MetricsRaw(ctx context.Context) (string, error) {
	body, err := c.get(ctx, wire.OpMetrics, 0)
	if len(body) == 0 {
		return "", err
	}
	// Both transports hand back a body no one else holds, so the text
	// can share its bytes.
	return unsafe.String(&body[0], len(body)), err
}

// Metrics fetches and parses /metrics into a series→value map.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	text, err := c.MetricsRaw(ctx)
	if err != nil {
		return nil, err
	}
	return ParseMetrics(text)
}
