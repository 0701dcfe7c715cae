package server

// Hand-rolled response encoding for the hot ops (alloc, batch, renew,
// free, lease detail) and the error envelope. Each encoder appends into
// a pooled buffer and must emit exactly what encoding/json would for
// the same value — TestResponseEncodersMatchJSON pins the equivalence
// byte-for-byte, so clients cannot tell the encoders apart.

import "hetmem/internal/jsonenc"

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

// appendErrorBody appends the v1 error envelope as a batch item
// carries it.
func appendErrorBody(dst []byte, e *ErrorBody) []byte {
	return appendError(dst, e, jsonenc.AppendString)
}

// appendErrorEnvelope appends a whole error response: the envelope as
// encoding/json's Encoder writes it, HTML-escaped and newline-ended.
func appendErrorEnvelope(dst []byte, e *ErrorBody) []byte {
	return append(appendError(dst, e, jsonenc.AppendStringHTML), '\n')
}

func appendError(dst []byte, e *ErrorBody, appendString func([]byte, string) []byte) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "code")
	dst = appendString(dst, e.Code)
	dst = jsonenc.AppendKey(dst, "message")
	dst = appendString(dst, e.Message)
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

// The client's side of the same bargain: the four hot request bodies,
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

// appendBatchAllocRequest appends {"requests":[...]}, each item as
// appendAllocRequest writes it; a nil slice is null, as json.Marshal
// writes it. Every TTLSeconds must be finite (see Client.AllocBatch).
func appendBatchAllocRequest(dst []byte, reqs []AllocRequest) []byte {
	dst = append(dst, '{')
	dst = jsonenc.AppendKey(dst, "requests")
	if reqs == nil {
		dst = append(dst, "null"...)
		return append(dst, '}')
	}
	dst = append(dst, '[')
	for i := range reqs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendAllocRequest(dst, &reqs[i])
	}
	return append(dst, ']', '}')
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
