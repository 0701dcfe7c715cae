package server

// The client half of the binary transport. NewClient picks the
// transport from the base URL's scheme:
//
//	http://host:port     HTTP/1.1 (https:// over TLS); see clienthttp.go
//	unix:///path.sock    binary protocol over a unix domain socket
//	tcp+bin://host:port  binary protocol over multiplexed TCP conns
//
// The binary transports speak internal/wire: a few persistent
// connections (one per concurrent caller, up to min(GOMAXPROCS, 4);
// a lone caller opens one), many in-flight requests tagged with
// request IDs, no per-request dial or header parsing. Everything above
// the exchange — retry policy, idempotency keys, heartbeats, tenant
// stamping, error envelopes — is shared with the HTTP path, so a
// caller only ever changes the base URL.

import (
	"context"
	"encoding/json"
	"strings"
	"time"

	"hetmem/internal/wire"
)

// wireBaseFor returns the wire client for a binary-scheme base URL,
// or nil when base is plain HTTP.
func wireBaseFor(base string) *wire.Client {
	if p, ok := strings.CutPrefix(base, "unix://"); ok {
		return wire.NewClient("unix", p)
	}
	if hp, ok := strings.CutPrefix(base, "tcp+bin://"); ok {
		return wire.NewClient("tcp", hp)
	}
	return nil
}

// wireRetryAfter recovers the daemon's retry hint on the binary
// transport. HTTP carries it as a Retry-After header; the wire
// response has no headers, but the v1 error envelope embeds the same
// number, so retryable statuses read it from the body.
func wireRetryAfter(status int, body []byte) time.Duration {
	if !retryableStatus(status) {
		return 0
	}
	var eb ErrorBody
	if json.Unmarshal(body, &eb) == nil && eb.RetryAfterSeconds > 0 {
		return time.Duration(eb.RetryAfterSeconds) * time.Second
	}
	return 0
}

// requestTenant resolves the tenant for one exchange: the context's
// per-request tenant wins over the client default — the same
// precedence the HTTP path applies to the X-Hetmem-Tenant header.
func (c *Client) requestTenant(ctx context.Context) string {
	if t := TenantFromContext(ctx); t != "" {
		return t
	}
	return c.tenant
}
