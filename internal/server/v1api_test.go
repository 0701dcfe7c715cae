package server_test

// API tests: the uniform v1 error envelope (golden bodies), the typed
// client errors, the batch allocation endpoint, and the fast-path
// metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hetmem/internal/core"
	"hetmem/internal/faults"
	"hetmem/internal/journal"
	"hetmem/internal/server"
)

// postJSON fires one raw POST so tests can hit exact paths and inspect
// raw bodies without the client's conveniences in the way.
func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestV1ErrorEnvelope pins the v1 error contract with golden bodies:
// stable code, exact message, retryable flag, and the retry hint.
func TestV1ErrorEnvelope(t *testing.T) {
	_, _, ts, _ := startConfigured(t, "xeon", server.Config{ShedWatermark: 0.5, RetryAfterSeconds: 2})

	cases := []struct {
		name       string
		path, body string
		status     int
		golden     string
	}{
		{
			name: "bad_request",
			path: "/v1/alloc", body: `{"name":"x","size":1,"attr":"Nope"}`,
			status: http.StatusBadRequest,
			golden: `{"code":"bad_request","message":"server: bad request: unknown attribute \"Nope\"","retryable":false}`,
		},
		{
			name: "lease_expired",
			path: "/v1/free", body: `{"lease":424242}`,
			status: http.StatusNotFound,
			golden: `{"code":"lease_expired","message":"server: no such lease: 424242","retryable":false}`,
		},
		{
			name: "migrate_unknown_lease",
			path: "/v1/migrate", body: `{"lease":424242,"attr":"Bandwidth"}`,
			status: http.StatusNotFound,
			golden: `{"code":"lease_expired","message":"server: no such lease: 424242","retryable":false}`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+c.path, c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.status, body)
			}
			if got := strings.TrimSpace(string(body)); got != c.golden {
				t.Errorf("envelope\n got %s\nwant %s", got, c.golden)
			}
		})
	}

	// Shedding: 503 with retryable=true, the retry hint in the body,
	// and the Retry-After header agreeing with it.
	resp, body := postJSON(t, ts.URL+"/v1/alloc",
		`{"name":"huge","size":18446744073709551615,"attr":"Capacity"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed alloc: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", resp.Header.Get("Retry-After"))
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != server.CodeShedding || !eb.Retryable || eb.RetryAfterSeconds != 2 {
		t.Errorf("shed envelope %+v, want code=shedding retryable=true retry_after=2", eb)
	}
}

// TestClientTypedErrors: the client rebuilds the envelope into an
// errors.As-able *APIError that errors.Is-matches the code sentinels.
func TestClientTypedErrors(t *testing.T) {
	ctx := context.Background()
	_, cl := startDaemon(t, "xeon")

	err := cl.Free(ctx, 987654)
	if err == nil {
		t.Fatal("free of unknown lease succeeded")
	}
	if !errors.Is(err, server.ErrLeaseExpired) {
		t.Errorf("errors.Is(err, ErrLeaseExpired) = false for %v", err)
	}
	if errors.Is(err, server.ErrCapacityExhausted) {
		t.Errorf("err matched the wrong sentinel: %v", err)
	}
	var ae *server.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("errors.As(*APIError) = false for %v", err)
	}
	if ae.StatusCode != http.StatusNotFound || ae.Code != server.CodeLeaseExpired {
		t.Errorf("APIError = %+v, want 404/lease_expired", ae)
	}

	_, err = cl.Alloc(ctx, server.AllocRequest{Name: "x", Size: 1, Attr: "Nope"})
	if !errors.Is(err, server.ErrCodeBadRequest) {
		t.Errorf("unknown attribute: errors.Is(ErrCodeBadRequest) = false for %v", err)
	}
}

// TestAllocBatch: per-item outcomes — valid items place and are
// leased, invalid items fail in place without vetoing their siblings.
func TestAllocBatch(t *testing.T) {
	ctx := context.Background()
	_, cl := startDaemon(t, "xeon")

	reqs := []server.AllocRequest{
		{Name: "a", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"},
		{Name: "bad-attr", Size: 1 << 20, Attr: "Nope"},
		{Name: "b", Size: 1 << 20, Attr: "Latency", Initiator: "0-19"},
		{Name: "keyed", Size: 1 << 20, Attr: "Capacity", IdempotencyKey: "k1"},
		{Name: "", Size: 1 << 20, Attr: "Capacity"},
	}
	resp, err := cl.AllocBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(resp.Results), len(reqs))
	}
	if resp.Succeeded != 2 || resp.Failed != 3 {
		t.Fatalf("succeeded=%d failed=%d, want 2/3", resp.Succeeded, resp.Failed)
	}
	for _, i := range []int{0, 2} {
		if resp.Results[i].Alloc == nil || resp.Results[i].Alloc.Lease == 0 {
			t.Errorf("item %d should have placed: %+v", i, resp.Results[i])
		}
	}
	for _, i := range []int{1, 3, 4} {
		e := resp.Results[i].Error
		if e == nil || e.Code != server.CodeBadRequest {
			t.Errorf("item %d should be a per-item bad_request, got %+v", i, resp.Results[i])
		}
	}

	// The placed leases are real: free them through the normal path.
	for _, i := range []int{0, 2} {
		if err := cl.Free(ctx, resp.Results[i].Alloc.Lease); err != nil {
			t.Errorf("free of batch lease %d: %v", resp.Results[i].Alloc.Lease, err)
		}
	}

	// Envelope-level failures are batch-level errors.
	if _, err := cl.AllocBatch(ctx, nil); !errors.Is(err, server.ErrCodeBadRequest) {
		t.Errorf("empty batch: %v, want bad_request", err)
	}
	over := make([]server.AllocRequest, server.MaxBatchAllocs+1)
	for i := range over {
		over[i] = server.AllocRequest{Name: "x", Size: 1, Attr: "Capacity"}
	}
	if _, err := cl.AllocBatch(ctx, over); !errors.Is(err, server.ErrCodeBadRequest) {
		t.Errorf("oversized batch: %v, want bad_request", err)
	}
}

// TestBatchAllocDurable: batch-placed leases go through the journal
// like single allocs — a restarted daemon restores every batch lease
// that was not freed.
func TestBatchAllocDurable(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{JournalPath: filepath.Join(dir, "wal"), GroupCommit: true}
	srv, err := server.NewWithConfig(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	cl := server.NewClient(ts.URL)

	reqs := make([]server.AllocRequest, 6)
	for i := range reqs {
		reqs[i] = server.AllocRequest{
			Name: fmt.Sprintf("batch%d", i), Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
		}
	}
	resp, err := cl.AllocBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 0 {
		t.Fatalf("batch had %d failures", resp.Failed)
	}
	// Free one so the restart must tell the difference.
	if err := cl.Free(ctx, resp.Results[0].Alloc.Lease); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.NewWithConfig(sys2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.LeaseCount(); got != len(reqs)-1 {
		t.Fatalf("restored %d leases, want %d", got, len(reqs)-1)
	}
}

// TestGroupCommitServerConcurrentDurability: many clients allocating
// through a group-commit daemon; after a clean restart every acked
// lease that was not freed is back, and every freed one stays gone.
func TestGroupCommitServerConcurrentDurability(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{JournalPath: filepath.Join(dir, "wal"), GroupCommit: true}
	srv, err := server.NewWithConfig(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	const clients, perClient = 8, 10
	kept := make([][]uint64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.NoRetry))
			for i := 0; i < perClient; i++ {
				resp, err := cl.Alloc(ctx, server.AllocRequest{
					Name: "gc", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
				})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if i%2 == 0 {
					if err := cl.Free(ctx, resp.Lease); err != nil {
						t.Errorf("client %d free: %v", c, err)
						return
					}
				} else {
					kept[c] = append(kept[c], resp.Lease)
				}
			}
		}(c)
	}
	wg.Wait()
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	want := map[uint64]bool{}
	for _, ls := range kept {
		for _, l := range ls {
			want[l] = true
		}
	}
	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.NewWithConfig(sys2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.LeaseCount(); got != len(want) {
		t.Fatalf("restored %d leases, want %d", got, len(want))
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	cl := server.NewClient(ts2.URL)
	lr, err := cl.Leases(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lr.Leases {
		if !want[l.Lease] {
			t.Errorf("lease %d resurrected (was freed or never acked)", l.Lease)
		}
	}
}

// TestJournalRecordsCountSyncFailedAppends: a record that reached the
// WAL counts in hetmemd_journal_records_total even when its fsync
// failed, for a batch exactly as for a single alloc. A failed alloc leaves
// two records (itself and its compensating free), which is also what a
// restart replays: the restarted daemon's counter starts at the number
// of records it read back.
func TestJournalRecordsCountSyncFailedAppends(t *testing.T) {
	ctx := context.Background()
	hot := server.AllocRequest{Name: "unsynced", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"}
	for _, tc := range []struct {
		name  string
		cfg   server.Config
		batch int // items sent through /v1/alloc/batch; 0 = one /v1/alloc
		want  float64
	}{
		{"group-commit", server.Config{GroupCommit: true}, 0, 2},
		{"batch-group-commit", server.Config{GroupCommit: true}, 3, 6},
		{"batch-of-one-group-commit", server.Config{GroupCommit: true}, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := faults.NewFaultFS(faults.OS, 1)
			tc.cfg.JournalPath = filepath.Join(t.TempDir(), "wal")
			tc.cfg.FS = ffs
			sys, err := core.NewSystem("xeon", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.NewWithConfig(sys, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}

			ffs.FailSyncs(1)
			if tc.batch == 0 {
				if _, err := srv.Alloc(ctx, hot); err == nil {
					t.Fatal("alloc acked although its fsync failed")
				}
			} else {
				reqs := make([]server.AllocRequest, tc.batch)
				for i := range reqs {
					reqs[i] = hot
				}
				resp, err := srv.AllocBatch(ctx, reqs)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Succeeded != 0 {
					t.Fatalf("%d batch items acked although their fsync failed", resp.Succeeded)
				}
			}
			if got := float64(srv.Metrics().JournalRecords.Load()); got != tc.want {
				t.Fatalf("hetmemd_journal_records_total = %v, want %v (sync-failed allocs + compensating frees)", got, tc.want)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			sys2, err := core.NewSystem("xeon", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			srv2, err := server.NewWithConfig(sys2, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Close()
			if got := float64(srv2.Metrics().JournalRecords.Load()); got != tc.want {
				t.Fatalf("restart replayed %v records, the first daemon counted %v", got, tc.want)
			}
			if n := srv2.LeaseCount(); n != 0 {
				t.Fatalf("restart resurrected %d leases nobody was granted", n)
			}
		})
	}
}

// TestOneItemBatchJournalsLikeAlloc: a single alloc is a batch of one,
// so the two journal the same record for the same request — every
// field but the lease ID, which each grant draws afresh.
func TestOneItemBatchJournalsLikeAlloc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithConfig(sys, server.Config{JournalPath: path, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := server.ContextWithTenant(context.Background(), "team-a")
	req := server.AllocRequest{
		Name: "same", Size: 3 << 20, Attr: "Bandwidth", Initiator: "0-19",
		TTLSeconds: 90, Partial: true, Remote: true,
	}
	if _, err := srv.Alloc(ctx, req); err != nil {
		t.Fatal(err)
	}
	if resp, err := srv.AllocBatch(ctx, []server.AllocRequest{req}); err != nil || resp.Succeeded != 1 {
		t.Fatalf("one-item batch: %+v, %v", resp, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	st, res, err := journal.OpenStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(res.Records) != 2 {
		t.Fatalf("replayed %d records, want 2: %+v", len(res.Records), res.Records)
	}
	single, batch := res.Records[0], res.Records[1]
	if single.Lease == batch.Lease {
		t.Fatalf("both grants journaled lease %d", single.Lease)
	}
	single.Lease, batch.Lease = 0, 0
	if !reflect.DeepEqual(single, batch) {
		t.Fatalf("a single alloc and a one-item batch journal different records:\nalloc %+v\nbatch %+v", single, batch)
	}
	if single.Tenant != "team-a" || single.TTLMillis != 90000 || single.Initiator != "0-19" {
		t.Fatalf("alloc record lost request fields: %+v", single)
	}
}

// TestAllocFailedCountsEachRefusal: hetmemd_alloc_failed_total counts
// every request the daemon refuses, once, whether it came alone or as
// a batch item, straight to the backend, over HTTP or over frames —
// for a malformed request, an unknown attribute, a quota miss and a
// placement that does not fit alike.
func TestAllocFailedCountsEachRefusal(t *testing.T) {
	srv, ts := startTenantServer(t, server.Config{})
	udsBase, stop, err := server.ServeTransport(srv, "uds")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	ctx := context.Background()
	// What the backend and a client both offer.
	type allocator interface {
		Alloc(context.Context, server.AllocRequest) (server.AllocResponse, error)
		AllocBatch(context.Context, []server.AllocRequest) (server.BatchAllocResponse, error)
	}
	paths := []struct {
		name string
		b    allocator
	}{
		{"backend", srv},
		{"http", wireClient(t, ts.URL, server.WithRetryPolicy(server.NoRetry))},
		{"frames", wireClient(t, udsBase, server.WithRetryPolicy(server.NoRetry))},
	}
	for _, tc := range []struct {
		name   string
		tenant string
		req    server.AllocRequest
		code   string
	}{
		{"malformed", "", server.AllocRequest{Name: "", Size: 1 << 20, Attr: "Capacity"}, server.CodeBadRequest},
		{"unknown-attr", "", server.AllocRequest{Name: "x", Size: 1 << 20, Attr: "Nope"}, server.CodeBadRequest},
		{"quota-miss", "q", server.AllocRequest{Name: "x", Size: 64 << 20, Attr: "Capacity"}, server.CodeQuotaExceeded},
		{"placement", "", server.AllocRequest{Name: "x", Size: 1 << 40, Attr: "Capacity", Policy: "bind"}, server.CodeCapacityExhausted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range paths {
				t.Run(p.name, func(t *testing.T) {
					ctx := server.ContextWithTenant(ctx, tc.tenant)
					before := srv.Metrics().AllocFailed.Load()
					_, err := p.b.Alloc(ctx, tc.req)
					if err == nil || server.ErrorBodyFor(err, 1).Code != tc.code {
						t.Fatalf("alloc: got %v, want %s", err, tc.code)
					}
					if got := srv.Metrics().AllocFailed.Load() - before; got != 1 {
						t.Fatalf("a refused alloc moved alloc_failed_total by %d, want 1", got)
					}
					before = srv.Metrics().AllocFailed.Load()
					resp, err := p.b.AllocBatch(ctx, []server.AllocRequest{tc.req})
					if err != nil || resp.Failed != 1 || resp.Results[0].Error.Code != tc.code {
						t.Fatalf("batch: %+v, %v, want %s", resp, err, tc.code)
					}
					if got := srv.Metrics().AllocFailed.Load() - before; got != 1 {
						t.Fatalf("a refused batch item moved alloc_failed_total by %d, want 1", got)
					}
				})
			}
		})
	}
	if n := srv.LeaseCount(); n != 0 {
		t.Fatalf("%d leases survived refused requests", n)
	}
}

// TestMetricsFastPathCounters: /metrics exposes the candidate-cache
// counters and the group-commit batch-size histogram.
func TestMetricsFastPathCounters(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithConfig(sys, server.Config{
		JournalPath: filepath.Join(dir, "wal"), GroupCommit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := server.NewClient(ts.URL)

	// Identical placements: the second one hits the cache.
	for i := 0; i < 3; i++ {
		resp, err := cl.Alloc(ctx, server.AllocRequest{
			Name: "m", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Free(ctx, resp.Lease); err != nil {
			t.Fatal(err)
		}
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["hetmemd_placement_cache_hits_total"] < 2 {
		t.Errorf("cache hits = %v, want >= 2", m["hetmemd_placement_cache_hits_total"])
	}
	if m["hetmemd_placement_cache_misses_total"] < 1 {
		t.Errorf("cache misses = %v, want >= 1", m["hetmemd_placement_cache_misses_total"])
	}
	if m["hetmemd_journal_batch_size_count"] < 1 {
		t.Errorf("journal batch histogram empty: %v", m["hetmemd_journal_batch_size_count"])
	}
	if m["hetmemd_journal_batch_size_sum"] < 6 {
		t.Errorf("journal batch sum = %v, want >= 6 (3 allocs + 3 frees)", m["hetmemd_journal_batch_size_sum"])
	}
}

// TestCacheInvalidationOnHealthTransition: a fault-driven health
// transition must re-rank placements — the cached pre-fault ranking
// may not survive into the post-fault daemon.
func TestCacheInvalidationOnHealthTransition(t *testing.T) {
	ctx := context.Background()
	sys, injector, ts, cl := startConfigured(t, "xeon", server.Config{})

	// Warm the cache.
	resp, err := cl.Alloc(ctx, server.AllocRequest{
		Name: "warm", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
	})
	if err != nil {
		t.Fatal(err)
	}
	node := nodeOSOf(t, resp.Placement)

	// Knock the placed node offline: the health machinery invalidates
	// the cache, so the next identical alloc re-ranks (a miss) and
	// lands elsewhere.
	if err := injector.Apply(faults.Event{NodeOS: node, Kind: faults.Offline}); err != nil {
		t.Fatal(err)
	}

	resp2, err := cl.Alloc(ctx, server.AllocRequest{
		Name: "after", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
	})
	if err != nil {
		t.Fatal(err)
	}
	if nodeOSOf(t, resp2.Placement) == node {
		t.Errorf("post-fault alloc landed on the offline node %d", node)
	}
	_, misses := sys.Allocator.CacheStats()
	if misses < 2 {
		t.Errorf("health transition did not force a re-rank: misses=%d", misses)
	}
	_ = ts
}
