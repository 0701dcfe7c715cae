package server

// Hand-rolled response encoding for the four hot endpoints
// (/v1/alloc, /v1/alloc/batch, /v1/renew, /v1/free). Each encoder
// appends into a pooled buffer and must emit exactly what
// encoding/json would for the same value — TestResponseEncodersMatchJSON
// pins the equivalence byte-for-byte, so clients cannot tell the
// encoders apart.
// Config.LegacyEncoding routes the hot endpoints back through
// encoding/json for A/B benchmarking.

import (
	"net/http"

	"hetmem/internal/jsonenc"
)

// writeBody writes a fully encoded 200 JSON response in one Write.
// net/http derives Content-Length itself for a small single-write body
// (no chunked framing), and stamping it by hand would cost the one
// strconv.Itoa allocation this file exists to avoid.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// appendAllocResponse appends r as JSON, mirroring the AllocResponse
// struct tags (attr_fell_back, partial, remote, ttl_seconds omitempty).
func appendAllocResponse(dst []byte, r *AllocResponse) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "lease")
	dst = jsonenc.AppendUint(dst, r.Lease)
	dst = jsonenc.AppendKey(dst, "placement")
	dst = jsonenc.AppendString(dst, r.Placement)
	dst = jsonenc.AppendKey(dst, "attr_used")
	dst = jsonenc.AppendString(dst, r.AttrUsed)
	if r.AttrFellBack {
		dst = jsonenc.AppendKey(dst, "attr_fell_back")
		dst = jsonenc.AppendBool(dst, true)
	}
	dst = jsonenc.AppendKey(dst, "rank")
	dst = jsonenc.AppendInt(dst, int64(r.Rank))
	if r.Partial {
		dst = jsonenc.AppendKey(dst, "partial")
		dst = jsonenc.AppendBool(dst, true)
	}
	if r.Remote {
		dst = jsonenc.AppendKey(dst, "remote")
		dst = jsonenc.AppendBool(dst, true)
	}
	if r.TTLSeconds != 0 {
		dst = jsonenc.AppendKey(dst, "ttl_seconds")
		dst = jsonenc.AppendFloat(dst, r.TTLSeconds)
	}
	if r.Tenant != "" {
		dst = jsonenc.AppendKey(dst, "tenant")
		dst = jsonenc.AppendString(dst, r.Tenant)
	}
	if r.Advice != "" {
		dst = jsonenc.AppendKey(dst, "advice")
		dst = jsonenc.AppendString(dst, r.Advice)
	}
	return append(dst, '}')
}

// appendLeaseDetailResponse appends a GET /v1/leases/{id} body,
// mirroring the LeaseDetailResponse struct tags (telemetry is not
// omitempty: an untouched buffer reports explicit zeros).
func appendLeaseDetailResponse(dst []byte, r *LeaseDetailResponse) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "lease")
	dst = jsonenc.AppendUint(dst, r.Lease)
	dst = jsonenc.AppendKey(dst, "name")
	dst = jsonenc.AppendString(dst, r.Name)
	dst = jsonenc.AppendKey(dst, "size")
	dst = jsonenc.AppendUint(dst, r.Size)
	dst = jsonenc.AppendKey(dst, "attr")
	dst = jsonenc.AppendString(dst, r.Attr)
	dst = jsonenc.AppendKey(dst, "placement")
	dst = jsonenc.AppendString(dst, r.Placement)
	if r.Tenant != "" {
		dst = jsonenc.AppendKey(dst, "tenant")
		dst = jsonenc.AppendString(dst, r.Tenant)
	}
	if r.Initiator != "" {
		dst = jsonenc.AppendKey(dst, "initiator")
		dst = jsonenc.AppendString(dst, r.Initiator)
	}
	if r.TTLSeconds != 0 {
		dst = jsonenc.AppendKey(dst, "ttl_seconds")
		dst = jsonenc.AppendFloat(dst, r.TTLSeconds)
	}
	if r.Class != "" {
		dst = jsonenc.AppendKey(dst, "class")
		dst = jsonenc.AppendString(dst, r.Class)
	}
	dst = jsonenc.AppendKey(dst, "telemetry")
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "llc_misses")
	dst = jsonenc.AppendUint(dst, r.Telemetry.LLCMisses)
	dst = jsonenc.AppendKey(dst, "random_misses")
	dst = jsonenc.AppendUint(dst, r.Telemetry.RandomMisses)
	dst = jsonenc.AppendKey(dst, "loads")
	dst = jsonenc.AppendUint(dst, r.Telemetry.Loads)
	dst = jsonenc.AppendKey(dst, "stores")
	dst = jsonenc.AppendUint(dst, r.Telemetry.Stores)
	dst = append(dst, '}')
	return append(dst, '}')
}

// appendErrorBody appends the v1 error envelope.
func appendErrorBody(dst []byte, e *ErrorBody) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "code")
	dst = jsonenc.AppendString(dst, e.Code)
	dst = jsonenc.AppendKey(dst, "message")
	dst = jsonenc.AppendString(dst, e.Message)
	dst = jsonenc.AppendKey(dst, "retryable")
	dst = jsonenc.AppendBool(dst, e.Retryable)
	if e.RetryAfterSeconds != 0 {
		dst = jsonenc.AppendKey(dst, "retry_after_seconds")
		dst = jsonenc.AppendInt(dst, int64(e.RetryAfterSeconds))
	}
	return append(dst, '}')
}

// appendBatchAllocResponse appends the per-item outcome envelope.
func appendBatchAllocResponse(dst []byte, r *BatchAllocResponse) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "results")
	dst = append(dst, '[')
	for i := range r.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		it := &r.Results[i]
		dst = append(dst, '{')
		if it.Alloc != nil {
			dst = jsonenc.AppendKey(dst, "alloc")
			dst = appendAllocResponse(dst, it.Alloc)
		}
		if it.Error != nil {
			dst = jsonenc.AppendKey(dst, "error")
			dst = appendErrorBody(dst, it.Error)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	dst = jsonenc.AppendKey(dst, "succeeded")
	dst = jsonenc.AppendInt(dst, int64(r.Succeeded))
	dst = jsonenc.AppendKey(dst, "failed")
	dst = jsonenc.AppendInt(dst, int64(r.Failed))
	return append(dst, '}')
}

// appendRenewResponse appends a heartbeat ack (ttl_seconds is not
// omitempty: a never-expiring lease reports 0 explicitly).
func appendRenewResponse(dst []byte, r *RenewResponse) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "lease")
	dst = jsonenc.AppendUint(dst, r.Lease)
	dst = jsonenc.AppendKey(dst, "ttl_seconds")
	dst = jsonenc.AppendFloat(dst, r.TTLSeconds)
	return append(dst, '}')
}

// appendFreeResponse appends a free ack.
func appendFreeResponse(dst []byte, r *FreeResponse) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "lease")
	dst = jsonenc.AppendUint(dst, r.Lease)
	dst = jsonenc.AppendKey(dst, "freed")
	dst = jsonenc.AppendBool(dst, r.Freed)
	return append(dst, '}')
}

// The client's side of the same bargain: the three hot request bodies,
// byte for byte what json.Marshal writes for them (HTML escaping
// included — FuzzRequestEncodersMatchJSON), so a daemon cannot tell
// which encoder a client used and the canonical spelling the server's
// scanner reads is the one this client sends.

// appendAllocRequest appends r as JSON, mirroring the AllocRequest
// struct tags. TTLSeconds must be finite (json.Marshal refuses NaN and
// the infinities; see Client.Alloc).
func appendAllocRequest(dst []byte, r *AllocRequest) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "name")
	dst = jsonenc.AppendStringHTML(dst, r.Name)
	dst = jsonenc.AppendKey(dst, "size")
	dst = jsonenc.AppendUint(dst, r.Size)
	dst = jsonenc.AppendKey(dst, "attr")
	dst = jsonenc.AppendStringHTML(dst, r.Attr)
	if r.Initiator != "" {
		dst = jsonenc.AppendKey(dst, "initiator")
		dst = jsonenc.AppendStringHTML(dst, r.Initiator)
	}
	if r.Policy != "" {
		dst = jsonenc.AppendKey(dst, "policy")
		dst = jsonenc.AppendStringHTML(dst, r.Policy)
	}
	if r.Partial {
		dst = jsonenc.AppendKey(dst, "partial")
		dst = jsonenc.AppendBool(dst, true)
	}
	if r.Remote {
		dst = jsonenc.AppendKey(dst, "remote")
		dst = jsonenc.AppendBool(dst, true)
	}
	if r.IdempotencyKey != "" {
		dst = jsonenc.AppendKey(dst, "idempotency_key")
		dst = jsonenc.AppendStringHTML(dst, r.IdempotencyKey)
	}
	if r.TTLSeconds != 0 {
		dst = jsonenc.AppendKey(dst, "ttl_seconds")
		dst = jsonenc.AppendFloat(dst, r.TTLSeconds)
	}
	return append(dst, '}')
}

// appendRenewRequest appends a heartbeat (ttl_seconds omitempty: 0
// keeps the granted TTL).
func appendRenewRequest(dst []byte, r *RenewRequest) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "lease")
	dst = jsonenc.AppendUint(dst, r.Lease)
	if r.TTLSeconds != 0 {
		dst = jsonenc.AppendKey(dst, "ttl_seconds")
		dst = jsonenc.AppendFloat(dst, r.TTLSeconds)
	}
	return append(dst, '}')
}

// appendFreeRequest appends {"lease":N}, the body of a free and of the
// binary transport's lease detail.
func appendFreeRequest(dst []byte, lease uint64) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "lease")
	dst = jsonenc.AppendUint(dst, lease)
	return append(dst, '}')
}

// writeAllocResponse writes an alloc response through the zero-alloc
// encoder (or encoding/json when LegacyEncoding is on).
func (s *Server) writeAllocResponse(w http.ResponseWriter, resp *AllocResponse) {
	if s.cfg.LegacyEncoding {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	bp := getRespBuf()
	b := appendAllocResponse(*bp, resp)
	writeBody(w, b)
	*bp = b[:0]
	putRespBuf(bp)
}

// writeBatchAllocResponse writes a batch response.
func (s *Server) writeBatchAllocResponse(w http.ResponseWriter, resp *BatchAllocResponse) {
	if s.cfg.LegacyEncoding {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	bp := getRespBuf()
	b := appendBatchAllocResponse(*bp, resp)
	writeBody(w, b)
	*bp = b[:0]
	putRespBuf(bp)
}

// writeRenewResponse writes a heartbeat ack.
func (s *Server) writeRenewResponse(w http.ResponseWriter, resp *RenewResponse) {
	if s.cfg.LegacyEncoding {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	bp := getRespBuf()
	b := appendRenewResponse(*bp, resp)
	writeBody(w, b)
	*bp = b[:0]
	putRespBuf(bp)
}

// writeLeaseDetailResponse writes a lease-detail response.
func (s *Server) writeLeaseDetailResponse(w http.ResponseWriter, resp LeaseDetailResponse) {
	if s.cfg.LegacyEncoding {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	bp := getRespBuf()
	b := appendLeaseDetailResponse(*bp, &resp)
	writeBody(w, b)
	*bp = b[:0]
	putRespBuf(bp)
}

// writeFreeResponse writes a free ack.
func (s *Server) writeFreeResponse(w http.ResponseWriter, resp *FreeResponse) {
	if s.cfg.LegacyEncoding {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	bp := getRespBuf()
	b := appendFreeResponse(*bp, resp)
	writeBody(w, b)
	*bp = b[:0]
	putRespBuf(bp)
}
