package server

// The /v1 surface: one op table, two framings.
//
// Each /v1 op is one function on ops — decode the request, call the
// Backend, append the response JSON (or fail with an error) — and both
// transports call that same function. API frames it over HTTP: the body
// comes from the pooled request buffer or the {id} path value, the
// answer goes out in one Write. WireBackend (wirebridge.go) frames it
// over the binary protocol: the body is the frame's, the answer is the
// frame's. Either way a request gets the same status and the same bytes,
// because they are produced once.
//
// A Backend is a placement node: the daemon's Server (an attached memsim
// Machine) or the cluster Router (a fleet of member daemons). The routes
// only some backends can answer — the lstopo text dump, per-lease
// detail, the advisor — are optional interfaces probed once at
// construction; a backend without one answers the route with a v1 error
// envelope on every transport.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strconv"
	"time"

	"hetmem/internal/advisor"
	"hetmem/internal/wire"
)

// Backend is the placement engine behind the v1 surface: what a node
// must answer, independent of whether the answers come from an attached
// memsim Machine (Server) or from forwarding to a fleet of member
// daemons (cluster.Router).
type Backend interface {
	// TopologyJSON returns the /v1/topology body.
	TopologyJSON(ctx context.Context) ([]byte, error)
	// Attrs returns the attribute dump.
	Attrs(ctx context.Context) ([]AttrReport, error)
	// Alloc places one buffer.
	Alloc(ctx context.Context, req AllocRequest) (AllocResponse, error)
	// AllocBatch places many buffers; per-item outcomes, in order.
	AllocBatch(ctx context.Context, reqs []AllocRequest) (BatchAllocResponse, error)
	// Free releases a lease.
	Free(ctx context.Context, req FreeRequest) (FreeResponse, error)
	// Renew heartbeats a lease.
	Renew(ctx context.Context, req RenewRequest) (RenewResponse, error)
	// Migrate re-places a leased buffer.
	Migrate(ctx context.Context, req MigrateRequest) (MigrateResponse, error)
	// Leases summarizes the live lease table.
	Leases(ctx context.Context, list bool) (LeasesResponse, error)
	// Health reports the node's health.
	Health(ctx context.Context) (HealthResponse, error)
	// WriteMetrics renders the /metrics text.
	WriteMetrics(ctx context.Context, w io.Writer) error
}

// LeaseDetailer is the optional Backend extension behind
// GET /v1/leases/{id} and the binary lease-detail op.
type LeaseDetailer interface {
	LeaseDetail(ctx context.Context, id uint64) (LeaseDetailResponse, error)
}

// AttrsTexter is the optional Backend extension behind
// GET /v1/attrs?format=text: the lstopo rendering of the attributes.
type AttrsTexter interface {
	AttrsText(ctx context.Context) (string, error)
}

// AdvisorController is the optional Backend extension behind
// GET /v1/advisor and POST /v1/advisor/{pause,resume}. The binary
// protocol has no advisor op: it is an operator surface.
type AdvisorController interface {
	AdvisorSnapshot(ctx context.Context) (advisor.Snapshot, error)
	SetAdvisorPaused(ctx context.Context, paused bool) error
}

// AdvisorControlResponse acknowledges a pause or resume.
type AdvisorControlResponse struct {
	Paused bool `json:"paused"`
}

// errNotServed answers a route whose optional extension the backend
// does not implement.
var errNotServed = errors.New("server: not served by this backend")

// The ops only HTTP can name. They sit past the binary protocol's last
// op, where wire decoding refuses a frame before it reaches a handler.
const (
	opAttrsText wire.Op = 128 + iota // GET /v1/attrs?format=text
	opAdvisor
	opAdvisorPause
	opAdvisorResume
)

// ops is the op table: a Backend, the optional extensions it
// implements, and the metrics every framing records into.
type ops struct {
	b       Backend
	detail  LeaseDetailer     // nil: no per-lease detail
	text    AttrsTexter       // nil: no text attribute dump
	advisor AdvisorController // nil: no advisor
	metrics *Metrics
	// retryAfterSeconds is the Retry-After hint stamped on 503s.
	retryAfterSeconds int
}

func newOps(b Backend, metrics *Metrics, retryAfterSeconds int) ops {
	if retryAfterSeconds <= 0 {
		retryAfterSeconds = 1
	}
	o := ops{b: b, metrics: metrics, retryAfterSeconds: retryAfterSeconds}
	o.detail, _ = b.(LeaseDetailer)
	o.text, _ = b.(AttrsTexter)
	o.advisor, _ = b.(AdvisorController)
	return o
}

// serve runs one op with the body a framing carried: it decodes, calls
// the backend, and appends the response to dst. On error dst comes back
// as it was and the framing appends the error envelope instead.
func (o *ops) serve(ctx context.Context, op wire.Op, body, dst []byte) ([]byte, error) {
	switch op {
	case wire.OpTopology:
		out, err := o.b.TopologyJSON(ctx)
		if err != nil {
			return dst, err
		}
		return append(dst, out...), nil

	case wire.OpAttrs:
		out, err := o.b.Attrs(ctx)
		return appendJSON(dst, out, err)

	case wire.OpAlloc:
		req, err := decodeAllocRequest(body)
		if err != nil {
			return dst, err
		}
		resp, err := o.b.Alloc(ctx, req)
		if err != nil {
			return dst, err
		}
		return appendAllocResponse(dst, &resp), nil

	case wire.OpAllocBatch:
		req, err := decodeBatchAllocRequest(body)
		if err != nil {
			return dst, err
		}
		resp, err := o.b.AllocBatch(ctx, req.Requests)
		if err != nil {
			return dst, err
		}
		return appendBatchAllocResponse(dst, &resp), nil

	case wire.OpFree:
		req, err := decodeFreeRequest(body)
		if err != nil {
			return dst, err
		}
		resp, err := o.b.Free(ctx, req)
		if err != nil {
			return dst, err
		}
		return appendFreeResponse(dst, &resp), nil

	case wire.OpRenew:
		req, err := decodeRenewRequest(body)
		if err != nil {
			return dst, err
		}
		resp, err := o.b.Renew(ctx, req)
		if err != nil {
			return dst, err
		}
		return appendRenewResponse(dst, &resp), nil

	case wire.OpMigrate:
		req, err := decodeMigrateRequest(body)
		if err != nil {
			return dst, err
		}
		resp, err := o.b.Migrate(ctx, req)
		return appendJSON(dst, resp, err)

	case wire.OpLeases, wire.OpLeaseList:
		resp, err := o.b.Leases(ctx, op == wire.OpLeaseList)
		return appendJSON(dst, resp, err)

	case wire.OpLeaseDetail:
		// The binary body reuses the free-request shape: {"lease": N}.
		req, err := decodeFreeRequest(body)
		if err != nil {
			return dst, err
		}
		return o.leaseDetail(ctx, req.Lease, dst)

	case wire.OpHealth:
		resp, err := o.b.Health(ctx)
		return appendJSON(dst, resp, err)

	case wire.OpMetrics:
		w := sliceWriter{dst: dst}
		if err := o.b.WriteMetrics(ctx, &w); err != nil {
			return dst, err
		}
		return w.dst, nil

	case opAttrsText:
		if o.text == nil {
			return dst, fmt.Errorf("%w: format=text is not served by this backend", ErrBadRequest)
		}
		out, err := o.text.AttrsText(ctx)
		if err != nil {
			return dst, err
		}
		return append(dst, out...), nil

	case opAdvisor, opAdvisorPause, opAdvisorResume:
		if o.advisor == nil {
			return dst, fmt.Errorf("%w: no tiering advisor", errNotServed)
		}
		if op == opAdvisor {
			snap, err := o.advisor.AdvisorSnapshot(ctx)
			return appendJSON(dst, snap, err)
		}
		paused := op == opAdvisorPause
		return appendJSON(dst, AdvisorControlResponse{Paused: paused}, o.advisor.SetAdvisorPaused(ctx, paused))
	}
	return dst, fmt.Errorf("%w: unsupported wire op %s", ErrBadRequest, op)
}

// leaseDetail is the lease-detail op once the framing has the ID: from
// the path on HTTP, from the body on the binary transport.
func (o *ops) leaseDetail(ctx context.Context, id uint64, dst []byte) ([]byte, error) {
	if o.detail == nil {
		return dst, fmt.Errorf("%w: %d", errNoSuchLease, id)
	}
	resp, err := o.detail.LeaseDetail(ctx, id)
	if err != nil {
		return dst, err
	}
	return appendLeaseDetailResponse(dst, &resp), nil
}

// appendJSON appends v exactly as encoding/json's Encoder writes it,
// newline included: the encoding of every response without a
// hand-rolled appender. A non-nil err passes through with dst untouched.
func appendJSON(dst []byte, v any, err error) ([]byte, error) {
	if err != nil {
		return dst, err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, b...), '\n'), nil
}

// errorBody builds the v1 envelope for an error. A forwarded *APIError
// passes through verbatim — the member already classified it, and
// re-deriving the code here would launder, say, a member's
// capacity_exhausted into internal.
func errorBody(err error, retryAfterSeconds int) (int, ErrorBody) {
	var fwd *APIError
	if errors.As(err, &fwd) && fwd.Code != "" {
		return fwd.StatusCode, ErrorBody{
			Code:              fwd.Code,
			Message:           fwd.Message,
			Retryable:         fwd.Retryable,
			RetryAfterSeconds: fwd.RetryAfterSeconds,
		}
	}
	status, code, retryable := classify(err)
	body := ErrorBody{Code: code, Message: err.Error(), Retryable: retryable}
	if status == http.StatusServiceUnavailable {
		body.RetryAfterSeconds = retryAfterSeconds
	}
	return status, body
}

// ErrorBodyFor shapes err as the v1 error envelope, exactly as the
// surface would (including *APIError passthrough), for callers that
// embed envelopes in larger responses — e.g. per-item batch outcomes
// built outside the op table.
func ErrorBodyFor(err error, retryAfterSeconds int) ErrorBody {
	if retryAfterSeconds <= 0 {
		retryAfterSeconds = 1
	}
	_, body := errorBody(err, retryAfterSeconds)
	return body
}

// NewInstanceID draws a random per-boot instance ID of the kind
// surfaced in /v1/health and /metrics, so a router (or an operator)
// can tell a restarted daemon from the one it was polling a second
// ago behind the same address. Exported for the cluster router, which
// carries its own.
func NewInstanceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; fall back
		// to math/rand rather than refuse to boot.
		return fmt.Sprintf("i%015x", mrand.Int63())
	}
	return hex.EncodeToString(b[:])
}

// APIOptions tunes the surface.
type APIOptions struct {
	// RetryAfterSeconds is the Retry-After hint on 503 responses
	// (default 1).
	RetryAfterSeconds int
}

// API is the HTTP framing of the op table over any Backend.
type API struct {
	ops
	mux *http.ServeMux
}

// NewAPI mounts the v1 surface over a backend, with its own metrics.
func NewAPI(b Backend, opts APIOptions) *API {
	return newAPI(b, NewMetrics(), opts.RetryAfterSeconds)
}

// newAPI mounts the v1 surface over b, recording into metrics — the
// daemon passes its own, so the HTTP and binary series are one set.
func newAPI(b Backend, metrics *Metrics, retryAfterSeconds int) *API {
	a := &API{ops: newOps(b, metrics, retryAfterSeconds), mux: http.NewServeMux()}
	for pattern, op := range map[string]wire.Op{
		"GET /v1/topology":        wire.OpTopology,
		"GET /v1/attrs":           wire.OpAttrs,
		"POST /v1/alloc":          wire.OpAlloc,
		"POST /v1/alloc/batch":    wire.OpAllocBatch,
		"POST /v1/free":           wire.OpFree,
		"POST /v1/renew":          wire.OpRenew,
		"POST /v1/migrate":        wire.OpMigrate,
		"GET /v1/leases":          wire.OpLeases,
		"GET /v1/leases/{id}":     wire.OpLeaseDetail,
		"GET /v1/health":          wire.OpHealth,
		"GET /v1/metrics":         wire.OpMetrics,
		"GET /v1/advisor":         opAdvisor,
		"POST /v1/advisor/pause":  opAdvisorPause,
		"POST /v1/advisor/resume": opAdvisorResume,
	} {
		a.mux.HandleFunc(pattern, a.handler(op))
	}
	return a
}

// handler frames one route over HTTP: the query may pick the op's
// variant, the lease-detail ID comes from the path, and a POST body is
// read into a pooled buffer. The answer is built in a pooled buffer and
// written in one Write, and the request is counted under its endpoint
// and the HTTP transport. The X-Hetmem-Tenant header reaches the
// backend through the context.
func (a *API) handler(route wire.Op) http.HandlerFunc {
	ep := opEndpoints[route]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r = withRequestTenant(r)
		op := route
		switch {
		case op == wire.OpLeases && r.URL.Query().Get("list") != "":
			op = wire.OpLeaseList
		case op == wire.OpAttrs && r.URL.Query().Get("format") == "text":
			op = opAttrsText
		}
		bp := getRespBuf()
		var (
			out []byte
			err error
		)
		switch {
		case op == wire.OpLeaseDetail:
			v := r.PathValue("id")
			if id, perr := strconv.ParseUint(v, 10, 64); perr != nil || id == 0 {
				err = fmt.Errorf("%w: bad lease id %q", ErrBadRequest, v)
			} else {
				out, err = a.leaseDetail(r.Context(), id, *bp)
			}
		case r.Method == http.MethodPost:
			rb := getReqBuf()
			var body []byte
			if body, err = readRequest(r.Body, rb); err == nil {
				out, err = a.serve(r.Context(), op, body, *bp)
			}
			putReqBuf(rb)
		default:
			out, err = a.serve(r.Context(), op, nil, *bp)
		}
		status, ctype := http.StatusOK, "application/json"
		if op == wire.OpMetrics || op == opAttrsText {
			ctype = "text/plain; charset=utf-8"
		}
		if err != nil {
			var eb ErrorBody
			status, eb = errorBody(err, a.retryAfterSeconds)
			if status == http.StatusServiceUnavailable {
				ra := eb.RetryAfterSeconds
				if ra <= 0 {
					ra = a.retryAfterSeconds
				}
				w.Header().Set("Retry-After", strconv.Itoa(ra))
			}
			ctype = "application/json"
			out = appendErrorEnvelope(*bp, &eb)
		}
		h := w.Header()
		h.Set("Content-Type", ctype)
		// Up to 2 KiB net/http measures a single-Write body itself;
		// stamping a small one by hand would cost an allocation. Past
		// that it would go out chunked, and a client that is not told the
		// length grows its read buffer by doubling.
		if len(out) > 2048 {
			h.Set("Content-Length", strconv.Itoa(len(out)))
		}
		if status != http.StatusOK {
			w.WriteHeader(status)
		}
		w.Write(out)
		if cap(out) <= maxPooledResp {
			*bp = out // keep what the buffer grew to
		}
		putRespBuf(bp)

		a.metrics.Observe(ep, time.Since(start), status >= 400)
		// The HTTP slot of the per-transport counters; the binary
		// listeners feed theirs from inside wire.Server.
		hs := a.metrics.TransportStats(TransportHTTP)
		hs.Requests.Add(1)
		if r.ContentLength > 0 {
			hs.BytesRx.Add(uint64(r.ContentLength))
		}
		hs.BytesTx.Add(uint64(len(out)))
	}
}

// Handler returns the surface's HTTP handler.
func (a *API) Handler() http.Handler { return a.mux }

// Metrics returns the surface's live request metrics.
func (a *API) Metrics() *Metrics { return a.metrics }
