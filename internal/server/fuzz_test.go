package server

import (
	"bytes"
	"testing"

	"hetmem/internal/bitmap"
)

// FuzzDecodeRequest throws arbitrary bytes at the daemon's request
// decoders: they must never panic, and whatever they accept must
// satisfy the decode-time contract. For an alloc that is
// validateAllocRequest's: non-empty name, non-zero size, a known
// policy, a non-negative TTL and a parsable initiator. An empty attr
// is legal at decode time — the advisor answers it with advice, and a
// daemon without one refuses it at placement
// (TestAttrlessAllocWithoutAdvisorRefused). A free needs a lease, a
// migrate a lease and an attr, a batch one to MaxBatchAllocs items.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"name":"hot","size":1073741824,"attr":"Bandwidth","initiator":"0-19"}`))
	f.Add([]byte(`{"name":"big","size":1,"attr":"Capacity","policy":"bind","partial":true,"remote":true}`))
	f.Add([]byte(`{"lease":42}`))
	f.Add([]byte(`{"lease":7,"attr":"Latency","initiator":"0,2,4-8"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","size":-1,"attr":"a"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"name":"x","size":1,"attr":"a"} {"again":true}`))
	f.Add([]byte(`{"lease":1}}`))
	f.Add([]byte(`{"lease":1}]`))
	f.Add([]byte(`{"name":"x","size":1,"attr":"a"}}`))
	f.Add([]byte(`{"nAme":"0","siZe":1}`))
	f.Add([]byte(`{"requests":[{"name":"x","size":1},{"lease":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeAllocRequest(bytes.NewReader(data)); err == nil {
			if req.Name == "" || req.Size == 0 || req.TTLSeconds < 0 {
				t.Fatalf("accepted invalid alloc request: %+v", req)
			}
			switch req.Policy {
			case "", "preferred", "bind":
			default:
				t.Fatalf("accepted invalid policy: %+v", req)
			}
			if req.Initiator != "" {
				if b, err := bitmap.ParseList(req.Initiator); err != nil || b.IsZero() {
					t.Fatalf("accepted invalid initiator: %+v: %v", req, err)
				}
			}
		}
		if req, err := decodeBatchAllocRequest(data); err == nil {
			if n := len(req.Requests); n == 0 || n > MaxBatchAllocs {
				t.Fatalf("accepted a batch of %d items", n)
			}
		}
		if req, err := decodeFreeRequest(data); err == nil {
			if req.Lease == 0 {
				t.Fatalf("accepted invalid free request: %+v", req)
			}
		}
		if req, err := decodeMigrateRequest(data); err == nil {
			if req.Lease == 0 || req.Attr == "" {
				t.Fatalf("accepted invalid migrate request: %+v", req)
			}
		}
	})
}
