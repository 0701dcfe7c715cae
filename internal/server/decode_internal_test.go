package server

// The request decoders and the client's request encoders against their
// definitions. A decoder is decodeStrict plus the field checks; the
// jsonenc scanners in front of it may only ever agree with it, and the
// hand-appended request bodies may only ever be json.Marshal's bytes.
// Both are held by differential fuzzing; the seeds below run as plain
// tests on every `go test`.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hetmem/internal/core"
)

// decodeCases are the spellings worth naming: canonical ones, valid
// JSON the scanner leaves to encoding/json, and bodies no decoder may
// accept.
var decodeCases = []string{
	`{"name":"hot","size":1073741824,"attr":"Bandwidth","initiator":"0-19"}`,
	`{"name":"big","size":1,"attr":"Capacity","policy":"bind","partial":true,"remote":true,"idempotency_key":"k1","ttl_seconds":2.5}`,
	`{"lease":42}`,
	`{"lease":7,"ttl_seconds":30}`,
	`{"lease":7,"attr":"Latency","initiator":"0,2,4-8"}`,
	`{"lease":20001,"placement":"DRAM#0","attr_used":"Bandwidth","rank":0}`,
	`{"lease":9,"placement":"MCDRAM#4+DRAM#0","attr_used":"Capacity","attr_fell_back":true,"rank":3,"partial":true,"remote":true,"ttl_seconds":0.05,"tenant":"gold","advice":"Capacity"}`,
	"{ \"lease\" : 42 }\n",
	`{}`,
	// Escapes, a repeated key, a case-folded key, null, exponents and
	// the integer spellings encoding/json has its own opinion on.
	`{"name":"a\"b\\cé","size":1,"attr":"Bandwidth"}`,
	`{"name":"é\u2028","size":1,"attr":"Band\/width"}`,
	`{"lease":1,"lease":2}`,
	`{"Lease":5}`,
	`{"LEASE":5,"TTL_Seconds":1}`,
	`{"lease":null}`,
	`{"name":null,"size":1,"attr":"Capacity"}`,
	`{"lease":01}`,
	`{"lease":1e3}`,
	`{"lease":7,"ttl_seconds":1e3}`,
	`{"lease":-0}`,
	`{"lease":7,"ttl_seconds":-0}`,
	`{"lease":7,"ttl_seconds":-1}`,
	`{"lease":184467440737095516150}`,
	`{"lease":18446744073709551615}`,
	`{"lease":7,"placement":"x","attr_used":"y","rank":-9223372036854775809}`,
	"{\"name\":\"bad \xff utf8\",\"size\":1,\"attr\":\"Capacity\"}",
	// Rejections.
	`{"lease":1}}`,
	`{"lease":1}]`,
	`{"lease":1} {"again":true}`,
	`{"name":"x","size":1,"attr":"a"} trailing`,
	`{"name":"x","size":1,"attr":"Capacity"}}`,
	`{"name":"x","size":-1,"attr":"a"}`,
	`{"name":"x","size":1,"attr":"a","bogus":1}`,
	`{"name":"x","size":1,"attr":"a","policy":"weird"}`,
	`{"name":"x","size":1,"attr":"a","initiator":"zz"}`,
	`{"lease":"7"}`,
	`{"lease":{"id":7}}`,
	`{"lease":0}`,
	`{`,
	``,
	`not json`,
	`[]`,
	// Batches: the canonical request and response, the empty and null
	// spellings, one more item than a batch may hold, and items the
	// scanner declines, which send the whole body to encoding/json.
	`{"requests":[{"name":"a","size":1,"attr":"Capacity"},{"name":"b","size":4096,"attr":"Bandwidth","initiator":"0-19","ttl_seconds":30}]}`,
	`{"results":[{"alloc":{"lease":1,"placement":"DRAM#0","attr_used":"Capacity","rank":0}},{"error":{"code":"bad_request","message":"server: bad request: missing attr","retryable":false}}],"succeeded":1,"failed":1}`,
	`{"requests":null}`,
	`{"requests":[]}`,
	`{"results":null,"succeeded":0,"failed":0}`,
	`{"results":[],"succeeded":0,"failed":0}`,
	`{"requests":[` + strings.Repeat(`{"name":"x","size":1,"attr":"Capacity"},`, MaxBatchAllocs) + `{"name":"x","size":1,"attr":"Capacity"}]}`,
	`{"requests":[{"name":"a","size":1,"attr":"Capacity"},null]}`,
	`{"requests":[{"name":"a","size":1,"attr":"Capacity","bogus":1}]}`,
	`{"requests":[{"name":"a","size":1,"attr":"Capacity"},{"name":"b\"c","size":2,"attr":"Latency"},{"name":"d","size":3,"attr":"Bandwidth"}]}`,
	`{"requests":[{"name":"a","size":1,"attr":"Capacity"},]}`,
	`{"results":[{"alloc":{"lease":1,"placement":"DRAM#0","attr_used":"Capacity","rank":0}},{"error":{"code":"bad_request","message":"unknown attribute \"Zap\"","retryable":false}}],"succeeded":1,"failed":1}`,
	`{"results":[{"alloc":null}],"succeeded":0,"failed":0}`,
	`{"results":[{}],"succeeded":0,"failed":0}`,
	`{"results":[{"error":{"code":"shedding","message":"shed","retryable":true,"retry_after_seconds":2}}],"succeeded":0,"failed":1}`,
}

// TestDecodersRejectTrailingData: a stray closing brace or bracket
// after the value used to pass json.Decoder.More, and every decoder
// accepted it on every transport.
func TestDecodersRejectTrailingData(t *testing.T) {
	bodies := map[string]func(string) error{
		`{"lease":1}`: func(b string) error {
			_, err := decodeFreeRequest([]byte(b))
			return err
		},
		`{"lease":1,"ttl_seconds":2}`: func(b string) error {
			_, err := decodeRenewRequest([]byte(b))
			return err
		},
		`{"name":"x","size":1,"attr":"Capacity"}`: func(b string) error {
			_, err := DecodeAllocRequest(strings.NewReader(b))
			return err
		},
		`{"requests":[{"name":"x","size":1,"attr":"Capacity"}]}`: func(b string) error {
			_, err := decodeBatchAllocRequest([]byte(b))
			return err
		},
		`{"lease":1,"attr":"Capacity"}`: func(b string) error {
			_, err := decodeMigrateRequest([]byte(b))
			return err
		},
	}
	for body, decode := range bodies {
		for _, ws := range []string{"", "\n", " \t\r\n"} {
			if err := decode(body + ws); err != nil {
				t.Errorf("%q: %v", body+ws, err)
			}
		}
		for _, tail := range []string{"}", "]", " }", "\n]", " 2", "{", `{"again":true}`, "x"} {
			err := decode(body + tail)
			if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "trailing data after JSON value") {
				t.Errorf("%q: err = %v, want the trailing-data bad request", body+tail, err)
			}
		}
	}
}

// checkScan: whatever scan accepts, ref accepts and reads to the same
// struct. ref is decodeStrict for a request, json.Unmarshal for a
// response the client reads.
func checkScan[T any](t *testing.T, what string, data []byte, scan func([]byte) (T, bool), ref func([]byte, any) error) {
	t.Helper()
	got, ok := scan(data)
	if !ok {
		return
	}
	var want T
	if err := ref(data, &want); err != nil {
		t.Fatalf("%s accepted %q, which encoding/json refuses: %v", what, data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q) = %+v, encoding/json says %+v", what, data, got, want)
	}
}

// checkDecode: a decoder answers as its reference path alone — the
// same decodeBody without a scanner — down to the error text.
func checkDecode[T any](t *testing.T, what string, data []byte, decode func([]byte) (T, error), validate func(T) error) {
	t.Helper()
	got, gotErr := decode(data)
	want, wantErr := decodeBody(data, nil, validate)
	switch {
	case gotErr == nil && wantErr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s(%q) = %+v, the reference decode says %+v", what, data, got, want)
		}
	case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error():
		t.Fatalf("%s(%q): err %v, the reference decode says %v", what, data, gotErr, wantErr)
	}
}

// FuzzScanMatchesJSON holds every scanner to its contract on arbitrary
// bytes: what it accepts, encoding/json accepts and reads to the same
// struct, so each decoder answers exactly as its encoding/json path
// alone would.
func FuzzScanMatchesJSON(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScan(t, "scanAllocRequest", data, scanAllocRequest, decodeStrict)
		checkScan(t, "scanFreeRequest", data, scanFreeRequest, decodeStrict)
		checkScan(t, "scanRenew", data, scanRenew, decodeStrict)
		checkScan(t, "scanRenew as a response", data, func(b []byte) (RenewResponse, bool) {
			r, ok := scanRenew(b)
			return RenewResponse(r), ok
		}, json.Unmarshal)
		checkScan(t, "scanAllocResponse", data, scanAllocResponse, json.Unmarshal)
		checkScan(t, "scanBatchAllocRequest", data, scanBatchAllocRequest, decodeStrict)
		checkScan(t, "scanBatchAllocResponse", data, scanBatchAllocResponse, json.Unmarshal)

		checkDecode(t, "decodeAllocRequest", data, decodeAllocRequest, nil)
		checkDecode(t, "decodeFreeRequest", data, decodeFreeRequest, validateFreeRequest)
		checkDecode(t, "decodeRenewRequest", data, decodeRenewRequest, validateRenewRequest)
		checkDecode(t, "decodeBatchAllocRequest", data, decodeBatchAllocRequest, validateBatchAllocRequest)
	})
}

// TestScannersTakeTheHotShapes: the differential above would also pass
// with scanners that decline everything. What the repository's own
// encoders write must be read without encoding/json.
func TestScannersTakeTheHotShapes(t *testing.T) {
	alloc := AllocRequest{Name: "b1099511627777-9f3a11c2", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
		Policy: "bind", Partial: true, Remote: true, IdempotencyKey: "9f3a11c29f3a11c29f3a11c2", TTLSeconds: 0.05}
	if got, ok := scanAllocRequest(appendAllocRequest(nil, &alloc)); !ok || got != alloc {
		t.Errorf("scanAllocRequest = %+v, %v", got, ok)
	}
	if got, ok := scanFreeRequest(appendFreeRequest(nil, 20001)); !ok || got.Lease != 20001 {
		t.Errorf("scanFreeRequest = %+v, %v", got, ok)
	}
	renew := RenewRequest{Lease: 7, TTLSeconds: 30}
	if got, ok := scanRenew(appendRenewRequest(nil, &renew)); !ok || got != renew {
		t.Errorf("scanRenew = %+v, %v", got, ok)
	}
	if got, ok := scanRenew(appendRenewResponse(nil, &RenewResponse{Lease: 7})); !ok || got.Lease != 7 {
		t.Errorf("scanRenew on a response = %+v, %v", got, ok)
	}
	resp := AllocResponse{Lease: 1 << 63, Placement: "MCDRAM#4+DRAM#0", AttrUsed: "Bandwidth", AttrFellBack: true,
		Rank: 3, Partial: true, Remote: true, TTLSeconds: 30, Tenant: "gold", Advice: "Capacity"}
	if got, ok := scanAllocResponse(appendAllocResponse(nil, &resp)); !ok || got != resp {
		t.Errorf("scanAllocResponse = %+v, %v", got, ok)
	}
	batch := BatchAllocRequest{Requests: []AllocRequest{
		{Name: "b1099511627777-9f3a11c2", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19", TTLSeconds: 30},
		{Name: "b1099511627778-9f3a11c2", Size: 4096, Attr: "Capacity"},
	}}
	if got, ok := scanBatchAllocRequest(appendBatchAllocRequest(nil, batch.Requests)); !ok || !reflect.DeepEqual(got, batch) {
		t.Errorf("scanBatchAllocRequest = %+v, %v", got, ok)
	}
	miss := ErrorBodyFor(fmt.Errorf("%w: missing attr", ErrBadRequest), 0)
	batchResp := BatchAllocResponse{
		Results:   []BatchAllocItem{{Alloc: &resp}, {Error: &miss}},
		Succeeded: 1, Failed: 1,
	}
	if got, ok := scanBatchAllocResponse(appendBatchAllocResponse(nil, &batchResp)); !ok || !reflect.DeepEqual(got, batchResp) {
		t.Errorf("scanBatchAllocResponse = %+v, %v", got, ok)
	}
}

// FuzzRequestEncodersMatchJSON: the bodies server.Client appends are
// json.Marshal's, byte for byte, whatever the field values — escapes,
// HTML's three, the line separators, invalid UTF-8, any finite float.
func FuzzRequestEncodersMatchJSON(f *testing.F) {
	f.Add("hot", uint64(1<<30), "Bandwidth", "0-19", "", false, false, "", 0.0, uint64(42))
	f.Add("a\"b\\c\n\x00\b\f\x7f", uint64(1), "<b>&amp;</b>", "0,2,4-8", "bind", true, true, "9f3a11c2", 2.5, uint64(1))
	f.Add("line\u2028sep\u2029", uint64(math.MaxUint64), "bad \xff\xfe utf8", "", "preferred", false, true, "kéy", 1e3, uint64(math.MaxUint64))
	f.Add("Lease", uint64(0), "null", "01", "-0", true, false, "1e3", math.Copysign(0, -1), uint64(0))
	f.Add("", uint64(10), "", "", "", false, false, "", 1e21, uint64(10))
	f.Add("x", uint64(7), "y", "", "", false, false, "", 1e-7, uint64(7))
	f.Add("x", uint64(7), "y", "", "", false, false, "", -123456.789, uint64(7))
	f.Add("x", uint64(7), "y", "", "", false, false, "", math.MaxFloat64, uint64(7))
	f.Add("x", uint64(7), "y", "", "", false, false, "", math.SmallestNonzeroFloat64, uint64(7))
	f.Fuzz(func(t *testing.T, name string, size uint64, attr, initiator, policy string, partial, remote bool, key string, ttl float64, lease uint64) {
		if math.IsNaN(ttl) || math.IsInf(ttl, 0) {
			t.Skip("json.Marshal refuses it; Client.Alloc and Client.AllocBatch return that error")
		}
		alloc := AllocRequest{Name: name, Size: size, Attr: attr, Initiator: initiator, Policy: policy,
			Partial: partial, Remote: remote, IdempotencyKey: key, TTLSeconds: ttl}
		matchesMarshal(t, appendAllocRequest(nil, &alloc), alloc)
		renew := RenewRequest{Lease: lease, TTLSeconds: ttl}
		matchesMarshal(t, appendRenewRequest(nil, &renew), renew)
		matchesMarshal(t, appendFreeRequest(nil, lease), FreeRequest{Lease: lease})
		for _, reqs := range [][]AllocRequest{nil, {}, {alloc}, {alloc, {Name: key, Size: lease, Attr: initiator, Policy: policy}}} {
			matchesMarshal(t, appendBatchAllocRequest(nil, reqs), BatchAllocRequest{Requests: reqs})
		}
	})
}

// TestNonFiniteTTLRefusedBeforeSending: JSON has no NaN or infinity,
// so json.Marshal refuses such a TTL, and Client.Alloc and
// Client.AllocBatch return its error before anything is sent — the
// appenders would otherwise write 0, "no TTL", and the daemon would
// grant a lease that never expires.
func TestNonFiniteTTLRefusedBeforeSending(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys)
	defer srv.Close()
	ctx := context.Background()
	for _, transport := range []string{"http", "uds"} {
		t.Run(transport, func(t *testing.T) {
			base, stop, err := ServeTransport(srv, transport)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			cl := NewClient(base, WithRetryPolicy(NoRetry), WithoutHeartbeat())
			defer cl.Close()
			for _, ttl := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				_, want := json.Marshal(ttl)
				if want == nil {
					t.Fatalf("json.Marshal(%v) succeeded", ttl)
				}
				req := AllocRequest{Name: "ttl", Size: 4096, Attr: "Capacity", TTLSeconds: ttl}
				if _, err := cl.Alloc(ctx, req); err == nil || err.Error() != want.Error() {
					t.Errorf("Alloc with ttl %v: %v, want %v", ttl, err, want)
				}
				ok := AllocRequest{Name: "ok", Size: 4096, Attr: "Capacity"}
				if _, err := cl.AllocBatch(ctx, []AllocRequest{ok, req}); err == nil || err.Error() != want.Error() {
					t.Errorf("AllocBatch with ttl %v: %v, want %v", ttl, err, want)
				}
			}
			if n := srv.Metrics().requests[epAlloc].Load() + srv.Metrics().requests[epAllocBatch].Load(); n != 0 {
				t.Errorf("the daemon saw %d alloc requests; one with a non-finite TTL was sent", n)
			}
		})
	}
}

func matchesMarshal(t *testing.T, got []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appended %s\njson.Marshal(%+v) says\n         %s", got, v, want)
	}
}
