package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"hetmem/internal/memsim"
)

// marshalRef is the reference encoding the hand-rolled encoders must
// match byte for byte: encoding/json with HTML escaping off (the hot
// responses are machine-to-machine JSON, never embedded in HTML, and
// jsonenc deliberately skips the < dance).
func marshalRef(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

var encoderCases = []struct {
	name string
	val  any
	enc  func(dst []byte) []byte
}{
	{
		name: "alloc minimal",
		val:  &AllocResponse{Lease: 1, Placement: "DRAM#0", AttrUsed: "Capacity"},
		enc: func(dst []byte) []byte {
			return appendAllocResponse(dst, &AllocResponse{Lease: 1, Placement: "DRAM#0", AttrUsed: "Capacity"})
		},
	},
	{
		name: "alloc full",
		val: &AllocResponse{
			Lease: 18446744073709551615, Placement: "MCDRAM#4+DRAM#0",
			AttrUsed: "Bandwidth", AttrFellBack: true, Rank: 3,
			Partial: true, Remote: true, TTLSeconds: 30,
		},
		enc: func(dst []byte) []byte {
			return appendAllocResponse(dst, &AllocResponse{
				Lease: 18446744073709551615, Placement: "MCDRAM#4+DRAM#0",
				AttrUsed: "Bandwidth", AttrFellBack: true, Rank: 3,
				Partial: true, Remote: true, TTLSeconds: 30,
			})
		},
	},
	{
		name: "alloc fractional ttl",
		val:  &AllocResponse{Lease: 7, Placement: "HBM#2", AttrUsed: "Latency", TTLSeconds: 0.05},
		enc: func(dst []byte) []byte {
			return appendAllocResponse(dst, &AllocResponse{Lease: 7, Placement: "HBM#2", AttrUsed: "Latency", TTLSeconds: 0.05})
		},
	},
	{
		name: "alloc with advice",
		val: &AllocResponse{
			Lease: 11, Placement: "NVDIMM#2", AttrUsed: "Capacity",
			TTLSeconds: 5, Tenant: "team-a", Advice: "Capacity",
		},
		enc: func(dst []byte) []byte {
			return appendAllocResponse(dst, &AllocResponse{
				Lease: 11, Placement: "NVDIMM#2", AttrUsed: "Capacity",
				TTLSeconds: 5, Tenant: "team-a", Advice: "Capacity",
			})
		},
	},
	{
		name: "lease detail minimal",
		val:  &LeaseDetailResponse{Lease: 3, Name: "buf", Size: 4096, Attr: "Capacity", Placement: "DRAM#0"},
		enc: func(dst []byte) []byte {
			return appendLeaseDetailResponse(dst, &LeaseDetailResponse{Lease: 3, Name: "buf", Size: 4096, Attr: "Capacity", Placement: "DRAM#0"})
		},
	},
	{
		name: "lease detail full",
		val: &LeaseDetailResponse{
			Lease: 18446744073709551615, Name: "graph \"index\"", Size: 6 << 30,
			Attr: "Latency", Placement: "NVDIMM#2", Tenant: "team-b",
			Initiator: "0-19", TTLSeconds: 30.5, Class: "Latency",
			Telemetry: memsim.Telemetry{LLCMisses: 123456, RandomMisses: 120000, Loads: 250000000, Stores: 7},
		},
		enc: func(dst []byte) []byte {
			return appendLeaseDetailResponse(dst, &LeaseDetailResponse{
				Lease: 18446744073709551615, Name: "graph \"index\"", Size: 6 << 30,
				Attr: "Latency", Placement: "NVDIMM#2", Tenant: "team-b",
				Initiator: "0-19", TTLSeconds: 30.5, Class: "Latency",
				Telemetry: memsim.Telemetry{LLCMisses: 123456, RandomMisses: 120000, Loads: 250000000, Stores: 7},
			})
		},
	},
	{
		name: "error plain",
		val:  &ErrorBody{Code: "capacity", Message: "no node can fit 4096 bytes", Retryable: false},
		enc: func(dst []byte) []byte {
			return appendErrorBody(dst, &ErrorBody{Code: "capacity", Message: "no node can fit 4096 bytes"})
		},
	},
	{
		name: "error retryable with escapes",
		val:  &ErrorBody{Code: "overload", Message: "shed \"load\"\n\ttry later", Retryable: true, RetryAfterSeconds: 2},
		enc: func(dst []byte) []byte {
			return appendErrorBody(dst, &ErrorBody{Code: "overload", Message: "shed \"load\"\n\ttry later", Retryable: true, RetryAfterSeconds: 2})
		},
	},
	{
		name: "renew",
		val:  &RenewResponse{Lease: 42, TTLSeconds: 12.5},
		enc: func(dst []byte) []byte {
			return appendRenewResponse(dst, &RenewResponse{Lease: 42, TTLSeconds: 12.5})
		},
	},
	{
		name: "renew never expires",
		val:  &RenewResponse{Lease: 42},
		enc: func(dst []byte) []byte {
			return appendRenewResponse(dst, &RenewResponse{Lease: 42})
		},
	},
	{
		name: "free",
		val:  &FreeResponse{Lease: 9, Freed: true},
		enc: func(dst []byte) []byte {
			return appendFreeResponse(dst, &FreeResponse{Lease: 9, Freed: true})
		},
	},
	{
		name: "batch empty",
		val:  &BatchAllocResponse{Results: []BatchAllocItem{}},
		enc: func(dst []byte) []byte {
			return appendBatchAllocResponse(dst, &BatchAllocResponse{Results: []BatchAllocItem{}})
		},
	},
	{
		name: "batch mixed",
		val: &BatchAllocResponse{
			Results: []BatchAllocItem{
				{Alloc: &AllocResponse{Lease: 1, Placement: "DRAM#0", AttrUsed: "Capacity", TTLSeconds: 5}},
				{Error: &ErrorBody{Code: "bad_request", Message: "unknown attribute \"Zap\""}},
				{Alloc: &AllocResponse{Lease: 2, Placement: "HBM#1", AttrUsed: "Bandwidth", Rank: 1}},
			},
			Succeeded: 2, Failed: 1,
		},
		enc: func(dst []byte) []byte {
			return appendBatchAllocResponse(dst, &BatchAllocResponse{
				Results: []BatchAllocItem{
					{Alloc: &AllocResponse{Lease: 1, Placement: "DRAM#0", AttrUsed: "Capacity", TTLSeconds: 5}},
					{Error: &ErrorBody{Code: "bad_request", Message: "unknown attribute \"Zap\""}},
					{Alloc: &AllocResponse{Lease: 2, Placement: "HBM#1", AttrUsed: "Bandwidth", Rank: 1}},
				},
				Succeeded: 2, Failed: 1,
			})
		},
	},
}

// TestResponseEncodersMatchJSON pins the hand-rolled hot-path encoders
// to encoding/json byte for byte, so a client reading with encoding/json
// sees the bytes it would have marshalled itself.
func TestResponseEncodersMatchJSON(t *testing.T) {
	for _, tc := range encoderCases {
		t.Run(tc.name, func(t *testing.T) {
			want := marshalRef(t, tc.val)
			got := tc.enc(nil)
			if !bytes.Equal(got, want) {
				t.Errorf("encoder diverges from encoding/json\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestResponseEncodersZeroAlloc pins the encoders at zero allocations
// when appending into a buffer with room — the property the response
// pool depends on.
func TestResponseEncodersZeroAlloc(t *testing.T) {
	buf := make([]byte, 0, 4096)
	for _, tc := range encoderCases {
		tc := tc
		allocs := testing.AllocsPerRun(200, func() {
			buf = tc.enc(buf[:0])
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
