package server

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest throws arbitrary bytes at the daemon's three
// request decoders: they must never panic, and whatever they accept
// must satisfy the documented invariants (non-empty name/attr,
// non-zero size/lease, parsable initiator).
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

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeAllocRequest(bytes.NewReader(data)); err == nil {
			if req.Name == "" || req.Size == 0 || req.Attr == "" {
				t.Fatalf("accepted invalid alloc request: %+v", req)
			}
			switch req.Policy {
			case "", "preferred", "bind":
			default:
				t.Fatalf("accepted invalid policy: %+v", req)
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
