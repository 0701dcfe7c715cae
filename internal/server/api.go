package server

// The machine-less v1 HTTP surface. PR 6 splits the daemon's HTTP
// plumbing — route mounting with deprecated legacy aliases, request
// instrumentation, and the uniform v1 error envelope — out of Server
// into apiBase, and defines Backend: the interface a placement node
// must implement to serve the /v1 API. Server keeps its optimized
// hand-rolled handlers on top of apiBase; the cluster router
// (internal/cluster) implements Backend and mounts the same surface
// via NewAPI, reusing the wire format, error vocabulary, and metrics
// plumbing without an attached Machine.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strconv"
	"time"
)

// Backend is the placement engine behind the v1 HTTP surface: what a
// node must answer, independent of whether the answers come from an
// attached memsim Machine (Server) or from forwarding to a fleet of
// member daemons (cluster.Router).
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

// apiBase is the HTTP plumbing shared by every v1 surface: the mux,
// the request metrics, and the error envelope. Server and API embed
// it, so both mount routes, instrument requests, and shape errors
// identically.
type apiBase struct {
	mux     *http.ServeMux
	metrics *Metrics
	// retryAfterSeconds is the Retry-After hint stamped on 503s.
	retryAfterSeconds int
}

func newAPIBase(retryAfterSeconds int) apiBase {
	if retryAfterSeconds <= 0 {
		retryAfterSeconds = 1
	}
	return apiBase{
		mux:               http.NewServeMux(),
		metrics:           NewMetrics(),
		retryAfterSeconds: retryAfterSeconds,
	}
}

// route mounts one endpoint twice: the canonical /v1 path, and the
// pre-v1 unversioned path as a deprecated alias. The alias answers
// normally (old error bodies included — see writeError) but stamps a
// Deprecation header and a successor-version link, per RFC 9745, so
// clients learn where to move. The deprecation policy is one release:
// the aliases disappear in v2.
func (a *apiBase) route(method, path string, ep Endpoint, h http.HandlerFunc) {
	a.mux.HandleFunc(method+" /v1"+path, a.instrument(ep, h))
	a.mux.HandleFunc(method+" "+path, a.instrument(ep, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "</v1"+path+`>; rel="successor-version"`)
		h(w, r)
	}))
}

// instrument wraps a handler with request counting and latency
// observation, and stamps the X-Hetmem-Tenant header (when present)
// into the request context — one chokepoint, so the daemon's own
// handlers and a forwarding Backend see the tenant the same way. On a
// forwarding node the observed latency IS the member round trip, so
// the per-endpoint histograms double as the forwarded-request latency
// rollup.
func (a *apiBase) instrument(e Endpoint, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, withRequestTenant(r))
		a.metrics.Observe(e, time.Since(start), sw.status >= 400)
		// The HTTP slot of the per-transport counters; the binary
		// listeners feed theirs from inside wire.Server.
		hs := a.metrics.TransportStats(TransportHTTP)
		hs.Requests.Add(1)
		if r.ContentLength > 0 {
			hs.BytesRx.Add(uint64(r.ContentLength))
		}
		hs.BytesTx.Add(uint64(sw.bytes))
	}
}

// errorBody builds the v1 envelope for an error. A forwarded
// *APIError passes through verbatim — the member already classified
// it, and re-deriving the code here would launder, say, a member's
// capacity_exhausted into internal.
func (a *apiBase) errorBody(err error) (int, ErrorBody) {
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
		body.RetryAfterSeconds = a.retryAfterSeconds
	}
	return status, body
}

func (a *apiBase) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, body := a.errorBody(err)
	if status == http.StatusServiceUnavailable {
		ra := body.RetryAfterSeconds
		if ra <= 0 {
			ra = a.retryAfterSeconds
		}
		w.Header().Set("Retry-After", strconv.Itoa(ra))
	}
	if isV1(r) {
		writeJSON(w, status, body)
		return
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
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

// ErrorBodyFor shapes err as the v1 error envelope, exactly as the
// HTTP surface would (including *APIError passthrough), for callers
// that embed envelopes in larger responses — e.g. per-item batch
// outcomes built outside a handler.
func ErrorBodyFor(err error, retryAfterSeconds int) ErrorBody {
	if retryAfterSeconds <= 0 {
		retryAfterSeconds = 1
	}
	a := apiBase{retryAfterSeconds: retryAfterSeconds}
	_, body := a.errorBody(err)
	return body
}

// APIOptions tunes the generic surface.
type APIOptions struct {
	// RetryAfterSeconds is the Retry-After hint on 503 responses
	// (default 1).
	RetryAfterSeconds int
}

// API serves the full v1 surface (plus the deprecated legacy aliases)
// against any Backend. It is the HTTP layer of a node that has no
// attached Machine: decode, delegate, encode, instrument — the same
// wire format, error envelope, and metrics series as the daemon's own
// handlers.
type API struct {
	apiBase
	backend Backend
}

// NewAPI mounts the v1 surface over a backend.
func NewAPI(b Backend, opts APIOptions) *API {
	a := &API{apiBase: newAPIBase(opts.RetryAfterSeconds), backend: b}
	a.route("GET", "/topology", EpTopology, a.handleTopology)
	a.route("GET", "/attrs", EpAttrs, a.handleAttrs)
	a.route("POST", "/alloc", EpAlloc, a.handleAlloc)
	a.route("POST", "/free", EpFree, a.handleFree)
	a.route("POST", "/renew", EpRenew, a.handleRenew)
	a.route("POST", "/migrate", EpMigrate, a.handleMigrate)
	a.route("GET", "/leases", EpLeases, a.handleLeases)
	a.route("GET", "/metrics", EpMetrics, a.handleMetrics)
	a.route("GET", "/health", EpHealth, a.handleHealth)
	a.mux.HandleFunc("POST /v1/alloc/batch", a.instrument(EpAllocBatch, a.handleAllocBatch))
	return a
}

// Handler returns the surface's HTTP handler.
func (a *API) Handler() http.Handler { return a.mux }

// Metrics returns the surface's live request metrics.
func (a *API) Metrics() *Metrics { return a.metrics }

func (a *API) handleTopology(w http.ResponseWriter, r *http.Request) {
	body, err := a.backend.TopologyJSON(r.Context())
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (a *API) handleAttrs(w http.ResponseWriter, r *http.Request) {
	out, err := a.backend.Attrs(r.Context())
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) handleAlloc(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeAllocRequest(r.Body)
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	resp, err := a.backend.Alloc(r.Context(), req)
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleAllocBatch(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeBatchAllocRequest(r.Body)
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	resp, err := a.backend.AllocBatch(r.Context(), req.Requests)
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleFree(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeFreeRequest(r.Body)
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	resp, err := a.backend.Free(r.Context(), req)
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleRenew(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRenewRequest(r.Body)
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	resp, err := a.backend.Renew(r.Context(), req)
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleMigrate(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeMigrateRequest(r.Body)
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	resp, err := a.backend.Migrate(r.Context(), req)
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleLeases(w http.ResponseWriter, r *http.Request) {
	resp, err := a.backend.Leases(r.Context(), r.URL.Query().Get("list") != "")
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp, err := a.backend.Health(r.Context())
	if err != nil {
		a.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if err := serveMetrics(w, r, a.backend); err != nil {
		a.writeError(w, r, err)
	}
}

// serveMetrics answers a metrics read from one pooled buffer with its
// length stamped. Written piece by piece the text (several KiB) passes
// the size up to which net/http works out Content-Length itself and
// goes out chunked, and a client that is not told the length grows its
// read buffer by doubling.
func serveMetrics(w http.ResponseWriter, r *http.Request, b Backend) error {
	bp := getRespBuf()
	defer putRespBuf(bp)
	sw := sliceWriter{dst: *bp}
	err := b.WriteMetrics(r.Context(), &sw)
	*bp = sw.dst // keep what the buffer grew to
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(sw.dst)))
	w.Write(sw.dst)
	return nil
}
