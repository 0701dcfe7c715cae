package server

// Allocation budgets for the hot request path. The zero-alloc work in
// this package (pooled request/response buffers, pooled leases, interned
// initiators, hand-rolled encoders, pooled journal frames) is only as
// durable as a test that fails when someone quietly re-introduces a
// per-request allocation — these budgets are that test. They measure
// whole handler invocations through the real mux (routing, decode,
// placement, journal append, encode) with a recycled ResponseWriter, so
// the counted allocations are the ones a live daemon would pay.
//
// The budgets are deliberately a little above the measured steady state
// (see the constants) to absorb Go-version noise, but far below the
// pre-pooling numbers, so a regression of even a few allocs per request
// trips them.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"testing"

	"hetmem/internal/core"
)

// Budgets, in average allocations per run. Measured steady state on
// go1.24: alloc+free 8, renew 1 (11 and 2 under -race, where sync.Pool
// drops a quarter of its puts); a one-node placement is one object, its
// segment held inside the buffer, and the tenant charge reads it into
// a stack array. With the request scanner in front of
// encoding/json and the handler writing status and body itself, what
// remains is net/http's connection-less ServeHTTP path (route match,
// context, header writes), the strings the request carries, and the
// placement itself. The headroom covers toolchain noise and the race
// build, not a leaked per-request allocation chain — one body through
// encoding/json's decoder alone costs 8.
const (
	allocFreeBudget = 14
	renewBudget     = 4
	// Measured steady state 2: the path-value string and the placement
	// string. The encoder itself is pooled and free.
	leaseDetailBudget = 4
	// One GET /v1/metrics on a journaled daemon with three tenants.
	// Measured 27 (29 under -race): the node-usage slice and its
	// sort, the tenant snapshot, one line buffer per renderer and the
	// response buffer's growth. Through fmt.Fprintf it cost 564.
	metricsBudget = 36
	// One Client.Alloc + Client.Free over a unix socket to a daemon
	// without a journal, counted process-wide: client and daemon, both
	// ends of the wire. Measured 15 (21 under -race); a waiter
	// channel made per round trip instead of pooled would add two to
	// each of the pair's requests, and encoding the alloc body into a
	// fresh slice instead of a pooled one five.
	wireAllocFreeBudget = 23
	// One 16-item Client.AllocBatch on the same socket, leases kept:
	// client and daemon, 9.4 per item. Measured 151 (155 under
	// -race); through encoding/json at both ends the same batch cost
	// 222 (230) before placements stopped allocating a segment slice,
	// 184 (188) while each placed item's response was copied to the
	// heap on its own, and 168 (172) while each tenant charge copied
	// the placement.
	wireBatchBudget = 163
	// The same pair over HTTP/1.1 on loopback TCP. Measured 61 (67
	// under -race); the client's exchange is 2 of them, a copy of each
	// response body, and net/http's server half about 55, whose count
	// drifts between toolchains more than the headroom's worth. Through
	// net/http's Transport the pair cost 204.
	httpAllocFreeBudget = 83
)

// budgetRW is a recyclable ResponseWriter: headers survive across
// requests (rewritten in place) and the body buffer is reused.
type budgetRW struct {
	h    http.Header
	body []byte
}

func (w *budgetRW) Header() http.Header         { return w.h }
func (w *budgetRW) Write(b []byte) (int, error) { w.body = append(w.body, b...); return len(b), nil }
func (w *budgetRW) WriteHeader(int)             {}

// budgetReq builds one reusable request whose body is rewound per run.
func budgetReq(method, path string, body *bytes.Reader) *http.Request {
	return &http.Request{
		Method: method,
		URL:    &url.URL{Path: path},
		Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header),
		Body:   io.NopCloser(body),
		Host:   "budget.test",
	}
}

// parseLeaseID pulls the lease ID out of an alloc response body
// without allocating.
func parseLeaseID(t *testing.T, body []byte) uint64 {
	t.Helper()
	i := bytes.Index(body, []byte(`"lease":`))
	if i < 0 {
		t.Fatalf("no lease in response %s", body)
	}
	var id uint64
	for _, c := range body[i+len(`"lease":`):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func TestAllocBudget(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(sys, Config{
		JournalPath: filepath.Join(t.TempDir(), "wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	w := &budgetRW{h: make(http.Header), body: make([]byte, 0, 4096)}
	serve := func(req *http.Request, body *bytes.Reader, payload []byte) {
		body.Reset(payload)
		w.body = w.body[:0]
		h.ServeHTTP(w, req)
	}

	t.Run("alloc_free", func(t *testing.T) {
		allocPayload := []byte(`{"name":"budget","size":4096,"attr":"Capacity"}`)
		allocBody := bytes.NewReader(nil)
		allocReq := budgetReq("POST", "/v1/alloc", allocBody)
		freeBody := bytes.NewReader(nil)
		freeReq := budgetReq("POST", "/v1/free", freeBody)
		freePayload := make([]byte, 0, 64)

		roundTrip := func() {
			serve(allocReq, allocBody, allocPayload)
			id := parseLeaseID(t, w.body)
			freePayload = append(freePayload[:0], `{"lease":`...)
			freePayload = strconv.AppendUint(freePayload, id, 10)
			freePayload = append(freePayload, '}')
			serve(freeReq, freeBody, freePayload)
			if !bytes.Contains(w.body, []byte(`"freed":true`)) {
				t.Fatalf("free failed: %s", w.body)
			}
		}
		roundTrip() // warm pools and caches outside the measurement
		allocs := testing.AllocsPerRun(500, roundTrip)
		t.Logf("alloc+free: %.1f allocs/op (budget %d)", allocs, allocFreeBudget)
		if allocs > allocFreeBudget {
			t.Errorf("alloc+free round trip costs %.1f allocs/op, budget %d — the hot path regressed",
				allocs, allocFreeBudget)
		}
	})

	t.Run("lease_detail", func(t *testing.T) {
		allocPayload := []byte(`{"name":"budget-detail","size":4096,"attr":"Capacity"}`)
		allocBody := bytes.NewReader(nil)
		allocReq := budgetReq("POST", "/v1/alloc", allocBody)
		serve(allocReq, allocBody, allocPayload)
		id := parseLeaseID(t, w.body)

		detailBody := bytes.NewReader(nil)
		detailReq := budgetReq("GET", "/v1/leases/"+strconv.FormatUint(id, 10), detailBody)

		detail := func() { serve(detailReq, detailBody, nil) }
		detail()
		if !bytes.Contains(w.body, []byte(`"telemetry":`)) {
			t.Fatalf("lease detail failed: %s", w.body)
		}
		allocs := testing.AllocsPerRun(500, detail)
		t.Logf("lease detail: %.1f allocs/op (budget %d)", allocs, leaseDetailBudget)
		if allocs > leaseDetailBudget {
			t.Errorf("lease detail costs %.1f allocs/op, budget %d — the encoder path regressed",
				allocs, leaseDetailBudget)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		for _, tn := range bookTenants {
			ctx := ContextWithTenant(context.Background(), tn)
			if _, err := srv.Alloc(ctx, AllocRequest{Name: "budget-" + tn, Size: 4096, Attr: "Capacity"}); err != nil {
				t.Fatal(err)
			}
		}
		metricsBody := bytes.NewReader(nil)
		metricsReq := budgetReq("GET", "/v1/metrics", metricsBody)
		render := func() { serve(metricsReq, metricsBody, nil) }
		render()
		for _, tn := range bookTenants {
			if !bytes.Contains(w.body, []byte(`hetmemd_tenant_sheds_total{tenant="`+tn+`"}`)) {
				t.Fatalf("metrics render lacks tenant %s:\n%s", tn, w.body)
			}
		}
		allocs := testing.AllocsPerRun(200, render)
		t.Logf("metrics render: %.1f allocs/op (budget %d)", allocs, metricsBudget)
		if allocs > metricsBudget {
			t.Errorf("metrics render costs %.1f allocs/op, budget %d — fmt is back on the render path",
				allocs, metricsBudget)
		}
	})

	t.Run("renew", func(t *testing.T) {
		allocPayload := []byte(`{"name":"budget-renew","size":4096,"attr":"Capacity","ttl_seconds":60}`)
		allocBody := bytes.NewReader(nil)
		allocReq := budgetReq("POST", "/v1/alloc", allocBody)
		serve(allocReq, allocBody, allocPayload)
		id := parseLeaseID(t, w.body)

		renewPayload := []byte(`{"lease":` + strconv.FormatUint(id, 10) + `}`)
		renewBody := bytes.NewReader(nil)
		renewReq := budgetReq("POST", "/v1/renew", renewBody)

		renew := func() { serve(renewReq, renewBody, renewPayload) }
		renew()
		if !bytes.Contains(w.body, []byte(`"ttl_seconds":`)) {
			t.Fatalf("renew failed: %s", w.body)
		}
		allocs := testing.AllocsPerRun(500, renew)
		t.Logf("renew: %.1f allocs/op (budget %d)", allocs, renewBudget)
		if allocs > renewBudget {
			t.Errorf("renew costs %.1f allocs/op, budget %d — the hot path regressed",
				allocs, renewBudget)
		}
	})
}

// TestWireAllocBudget is the binary transport's budget: the typed
// client's alloc+free pair, and its 16-item batch alloc, against a
// journal-less daemon on a unix socket. AllocsPerRun counts the whole
// process, so this is the cost of both codecs, the wire client's
// response copy, and the daemon's placement — the benchmark's uds_hot
// pair and set-up batches without the benchmark's own bookkeeping.
func TestWireAllocBudget(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys)
	defer srv.Close()
	base, stop, err := ServeTransport(srv, "uds")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cl := NewClient(base, WithRetryPolicy(NoRetry), WithoutHeartbeat())
	defer cl.Close()
	ctx := context.Background()

	t.Run("alloc_free", func(t *testing.T) {
		req := AllocRequest{Name: "budget-wire", Size: 4096, Attr: "Capacity", Initiator: "0-19"}
		roundTrip := func() {
			resp, err := cl.Alloc(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Free(ctx, resp.Lease); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ { // dial, and warm the pools on both ends
			roundTrip()
		}
		allocs := testing.AllocsPerRun(500, roundTrip)
		t.Logf("wire alloc+free: %.1f allocs/op (budget %d)", allocs, wireAllocFreeBudget)
		if allocs > wireAllocFreeBudget {
			t.Errorf("wire alloc+free round trip costs %.1f allocs/op, budget %d — reflection, a per-request context or a per-request waiter is back on the path",
				allocs, wireAllocFreeBudget)
		}
	})

	t.Run("batch", func(t *testing.T) {
		reqs := make([]AllocRequest, 16)
		for i := range reqs {
			reqs[i] = AllocRequest{Name: "budget-batch", Size: 4096, Attr: "Capacity", Initiator: "0-19"}
		}
		// The leases stay: freeing them would count the frees too.
		// The lease table's growth over the run is amortized in.
		batch := func() {
			resp, err := cl.AllocBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Succeeded != len(reqs) {
				t.Fatalf("batch placed %d of %d: %+v", resp.Succeeded, len(reqs), resp)
			}
		}
		for i := 0; i < 16; i++ {
			batch()
		}
		allocs := testing.AllocsPerRun(200, batch)
		t.Logf("wire 16-item batch: %.1f allocs/op (budget %d)", allocs, wireBatchBudget)
		if allocs > wireBatchBudget {
			t.Errorf("wire 16-item batch costs %.1f allocs/op, budget %d — encoding/json is back on the batch path",
				allocs, wireBatchBudget)
		}
	})
}

// TestHTTPAllocBudget is TestWireAllocBudget over HTTP: the typed
// client's alloc+free pair against a journal-less daemon behind
// httptest's net/http server, counted for the whole process — the
// client's exchange, the server's connection handling, both codecs and
// the placement.
func TestHTTPAllocBudget(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL, WithRetryPolicy(NoRetry), WithoutHeartbeat())
	defer cl.Close()

	ctx := context.Background()
	req := AllocRequest{Name: "budget-http", Size: 4096, Attr: "Capacity", Initiator: "0-19"}
	roundTrip := func() {
		resp, err := cl.Alloc(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Free(ctx, resp.Lease); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // dial, and warm the pools on both ends
		roundTrip()
	}
	allocs := testing.AllocsPerRun(500, roundTrip)
	t.Logf("http alloc+free: %.1f allocs/op (budget %d)", allocs, httpAllocFreeBudget)
	if allocs > httpAllocFreeBudget {
		t.Errorf("http alloc+free round trip costs %.1f allocs/op, budget %d — a per-request context, goroutine hand-off or header map is back on the client's path",
			allocs, httpAllocFreeBudget)
	}
}

// TestLeasesSummaryCostIndependentOfLeases pins the scaling of the
// /v1/leases summary: it sums the shard books, so what it allocates
// (two maps and a slice, sized by nodes and tenants) is the same at
// 1 000 leases and at 20 000.
func TestLeasesSummaryCostIndependentOfLeases(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys)
	defer srv.Close()
	standing := 0
	allocsAt := func(n int) float64 {
		t.Helper()
		for ; standing < n; standing++ {
			ctx := ContextWithTenant(context.Background(), bookTenants[standing%len(bookTenants)])
			attr := []string{"Capacity", "Latency"}[standing%2]
			if _, err := srv.Alloc(ctx, AllocRequest{Name: "standing", Size: 4096, Attr: attr}); err != nil {
				t.Fatal(err)
			}
		}
		var resp LeasesResponse
		allocs := testing.AllocsPerRun(100, func() { resp, _ = srv.Leases(context.Background(), false) })
		if resp.Count != n {
			t.Fatalf("summary counts %d leases, want %d", resp.Count, n)
		}
		return allocs
	}
	small, large := allocsAt(1000), allocsAt(20000)
	t.Logf("Leases(false): %.0f allocs at 1 000 leases, %.0f at 20 000", small, large)
	if small != large {
		t.Errorf("Leases(false) costs %.0f allocs at 1 000 leases and %.0f at 20 000 — the summary walks the leases again", small, large)
	}
}
