package server

// The binary framing of the op table (api.go): WireBackend adapts any
// Backend (the daemon's Server or the cluster Router) to wire.Handler,
// so the -uds and -tcp-bin listeners run exactly the op functions the
// /v1 HTTP surface runs — same decoders, same placement paths, same
// encoders, same error envelope, same metrics. Only the framing
// differs: the op and its body come from the frame, and the status and
// bytes go back in one.

import (
	"context"
	"net/http"
	"time"

	"hetmem/internal/wire"
)

// WireBackend dispatches decoded wire requests into a Backend.
type WireBackend struct{ ops }

// NewWireBackend bridges b onto the binary protocol. metrics receives
// the same per-endpoint observations the HTTP surface records — pass
// the surface's own *Metrics so both transports roll up into one set
// of series.
func NewWireBackend(b Backend, metrics *Metrics, retryAfterSeconds int) *WireBackend {
	return &WireBackend{newOps(b, metrics, retryAfterSeconds)}
}

// WireHandler returns the daemon's binary-protocol dispatcher, sharing
// the HTTP surface's metrics and Retry-After hint.
func (s *Server) WireHandler() wire.Handler { return s.api.WireHandler() }

// WireHandler returns the surface's binary-protocol dispatcher.
func (a *API) WireHandler() wire.Handler { return &WireBackend{a.ops} }

// ServeWire implements wire.Handler: run the op on the frame's body and
// answer with its bytes, or with the v1 error envelope.
func (wb *WireBackend) ServeWire(ctx context.Context, op wire.Op, tenant string, body, dst []byte) (int, []byte) {
	start := time.Now()
	if tenant != "" {
		ctx = ContextWithTenant(ctx, tenant)
	}
	status := http.StatusOK
	out, err := wb.serve(ctx, op, body, dst)
	if err != nil {
		var eb ErrorBody
		status, eb = errorBody(err, wb.retryAfterSeconds)
		out = appendErrorEnvelope(dst, &eb)
	}
	if op > 0 && op < numOps && wb.metrics != nil {
		wb.metrics.observe(routes[op].ep, time.Since(start), status >= 400)
	}
	return status, out
}

// sliceWriter is an io.Writer appending into a caller-owned slice, so
// WriteMetrics renders straight into the response buffer.
type sliceWriter struct{ dst []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.dst = append(w.dst, p...)
	return len(p), nil
}
