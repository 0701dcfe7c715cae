package server

// The binary-transport bridge: WireBackend adapts any Backend (the
// daemon's Server or the cluster Router) to wire.Handler, so the
// -uds and -tcp-bin listeners dispatch into exactly the code the /v1
// HTTP surface runs — same decoders, same placement paths, same error
// classification, same metrics. The transports differ only in framing.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hetmem/internal/wire"
)

// LeaseDetailer is the optional Backend extension behind the binary
// lease-detail op (and GET /v1/leases/{id}). The cluster router does
// not implement it — per-lease detail is a machine-daemon surface —
// and the wire op answers 404 there, matching the router's HTTP mux.
type LeaseDetailer interface {
	LeaseDetail(ctx context.Context, id uint64) (LeaseDetailResponse, error)
}

// WireBackend dispatches decoded wire requests into a Backend.
type WireBackend struct {
	b  Backend
	ld LeaseDetailer // nil when the backend has no per-lease detail
	a  apiBase       // errorBody shaping; mux unused
}

// NewWireBackend bridges b onto the binary protocol. metrics receives
// the same per-endpoint observations the HTTP surface records — pass
// the surface's own *Metrics so both transports roll up into one set
// of series.
func NewWireBackend(b Backend, metrics *Metrics, retryAfterSeconds int) *WireBackend {
	if retryAfterSeconds <= 0 {
		retryAfterSeconds = 1
	}
	wb := &WireBackend{b: b, a: apiBase{metrics: metrics, retryAfterSeconds: retryAfterSeconds}}
	wb.ld, _ = b.(LeaseDetailer)
	return wb
}

// WireHandler returns the daemon's binary-protocol dispatcher, sharing
// the HTTP surface's metrics and Retry-After hint.
func (s *Server) WireHandler() wire.Handler {
	return NewWireBackend(s, s.metrics, s.cfg.RetryAfterSeconds)
}

// WireHandler returns the generic surface's binary-protocol
// dispatcher; the cluster router serves the wire ops through it.
func (a *API) WireHandler() wire.Handler {
	return NewWireBackend(a.backend, a.metrics, a.retryAfterSeconds)
}

// opEndpoints maps wire ops onto the HTTP surface's endpoint counters,
// so hetmemd_requests_total{endpoint=...} totals requests across every
// transport.
var opEndpoints = map[wire.Op]Endpoint{
	wire.OpTopology:    EpTopology,
	wire.OpAttrs:       EpAttrs,
	wire.OpAlloc:       EpAlloc,
	wire.OpAllocBatch:  EpAllocBatch,
	wire.OpFree:        EpFree,
	wire.OpRenew:       EpRenew,
	wire.OpMigrate:     EpMigrate,
	wire.OpLeases:      EpLeases,
	wire.OpLeaseList:   EpLeases,
	wire.OpLeaseDetail: EpLeaseDetail,
	wire.OpHealth:      EpHealth,
	wire.OpMetrics:     EpMetrics,
}

// ServeWire implements wire.Handler: decode the op's JSON body with
// the /v1 decoders, run the Backend, and append the /v1 response JSON
// (or the v1 error envelope) to dst.
func (wb *WireBackend) ServeWire(ctx context.Context, op wire.Op, tenant string, body, dst []byte) (int, []byte) {
	start := time.Now()
	if tenant != "" {
		ctx = ContextWithTenant(ctx, tenant)
	}
	status, out := wb.serve(ctx, op, body, dst)
	if ep, ok := opEndpoints[op]; ok && wb.a.metrics != nil {
		wb.a.metrics.Observe(ep, time.Since(start), status >= 400)
	}
	return status, out
}

func (wb *WireBackend) serve(ctx context.Context, op wire.Op, body, dst []byte) (int, []byte) {
	switch op {
	case wire.OpTopology:
		out, err := wb.b.TopologyJSON(ctx)
		if err != nil {
			return wb.fail(dst, err)
		}
		return http.StatusOK, append(dst, out...)

	case wire.OpAttrs:
		out, err := wb.b.Attrs(ctx)
		if err != nil {
			return wb.fail(dst, err)
		}
		return wb.marshal(dst, out)

	case wire.OpAlloc:
		req, err := decodeAllocRequest(body)
		if err != nil {
			return wb.fail(dst, err)
		}
		resp, err := wb.b.Alloc(ctx, req)
		if err != nil {
			return wb.fail(dst, err)
		}
		return http.StatusOK, appendAllocResponse(dst, &resp)

	case wire.OpAllocBatch:
		req, err := decodeBatchAllocRequest(body)
		if err != nil {
			return wb.fail(dst, err)
		}
		resp, err := wb.b.AllocBatch(ctx, req.Requests)
		if err != nil {
			return wb.fail(dst, err)
		}
		return http.StatusOK, appendBatchAllocResponse(dst, &resp)

	case wire.OpFree:
		req, err := decodeFreeRequest(body)
		if err != nil {
			return wb.fail(dst, err)
		}
		resp, err := wb.b.Free(ctx, req)
		if err != nil {
			return wb.fail(dst, err)
		}
		return http.StatusOK, appendFreeResponse(dst, &resp)

	case wire.OpRenew:
		req, err := decodeRenewRequest(body)
		if err != nil {
			return wb.fail(dst, err)
		}
		resp, err := wb.b.Renew(ctx, req)
		if err != nil {
			return wb.fail(dst, err)
		}
		return http.StatusOK, appendRenewResponse(dst, &resp)

	case wire.OpMigrate:
		req, err := decodeMigrateRequest(body)
		if err != nil {
			return wb.fail(dst, err)
		}
		resp, err := wb.b.Migrate(ctx, req)
		if err != nil {
			return wb.fail(dst, err)
		}
		return wb.marshal(dst, resp)

	case wire.OpLeases, wire.OpLeaseList:
		resp, err := wb.b.Leases(ctx, op == wire.OpLeaseList)
		if err != nil {
			return wb.fail(dst, err)
		}
		return wb.marshal(dst, resp)

	case wire.OpLeaseDetail:
		if wb.ld == nil {
			// No per-lease detail on this backend (the cluster router):
			// same outcome as its HTTP mux, a 404.
			return wb.fail(dst, fmt.Errorf("%w: 0", errNoSuchLease))
		}
		// The body reuses the free-request shape: {"lease": N}.
		req, err := decodeFreeRequest(body)
		if err != nil {
			return wb.fail(dst, err)
		}
		resp, err := wb.ld.LeaseDetail(ctx, req.Lease)
		if err != nil {
			return wb.fail(dst, err)
		}
		return http.StatusOK, appendLeaseDetailResponse(dst, &resp)

	case wire.OpHealth:
		resp, err := wb.b.Health(ctx)
		if err != nil {
			return wb.fail(dst, err)
		}
		return wb.marshal(dst, resp)

	case wire.OpMetrics:
		w := sliceWriter{dst: dst}
		if err := wb.b.WriteMetrics(ctx, &w); err != nil {
			return wb.fail(dst, err)
		}
		return http.StatusOK, w.dst

	default:
		return wb.fail(dst, fmt.Errorf("%w: unsupported wire op %s", ErrBadRequest, op))
	}
}

// fail appends the v1 error envelope — byte-identical to what the
// HTTP surface writes for the same error.
func (wb *WireBackend) fail(dst []byte, err error) (int, []byte) {
	status, eb := wb.a.errorBody(err)
	return status, appendErrorBody(dst, &eb)
}

// marshal appends v's JSON for the responses that have no hand-rolled
// appender (they are off the allocation hot path).
func (wb *WireBackend) marshal(dst []byte, v any) (int, []byte) {
	out, err := json.Marshal(v)
	if err != nil {
		return wb.fail(dst, err)
	}
	return http.StatusOK, append(dst, out...)
}

// sliceWriter is an io.Writer appending into a caller-owned slice, so
// WriteMetrics renders straight into the response frame buffer.
type sliceWriter struct{ dst []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.dst = append(w.dst, p...)
	return len(p), nil
}
