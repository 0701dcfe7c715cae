package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/faults"
	"hetmem/internal/server"
)

// startConfigured boots a daemon with a Config and wires a fault
// injector into its health state machine, the way chaostest does.
func startConfigured(t testing.TB, platform string, cfg server.Config) (*core.System, *faults.Injector, *httptest.Server, *server.Client) {
	t.Helper()
	sys, err := core.NewSystem(platform, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithConfig(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	injector := faults.NewInjector(faults.NewMachineTarget(sys.Machine))
	injector.Subscribe(srv.ApplyFault)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return sys, injector, ts, server.NewClient(ts.URL)
}

// nodeOSOf extracts the OS index from a placement like "DRAM#0".
func nodeOSOf(t *testing.T, placement string) int {
	t.Helper()
	i := strings.LastIndexByte(placement, '#')
	if i < 0 {
		t.Fatalf("placement %q has no node", placement)
	}
	var os int
	if _, err := fmt.Sscanf(placement[i+1:], "%d", &os); err != nil {
		t.Fatalf("placement %q: %v", placement, err)
	}
	return os
}

func TestOfflineNodeEvacuatesLeasesAndRecovers(t *testing.T) {
	ctx := context.Background()
	_, injector, _, cl := startConfigured(t, "xeon", server.Config{})

	resp, err := cl.Alloc(ctx, server.AllocRequest{
		Name: "hot", Size: 1 << 30, Attr: "Bandwidth", Initiator: "0-19",
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := nodeOSOf(t, resp.Placement)

	// Kill the node under the lease: the daemon must move it.
	if err := injector.Apply(faults.Event{NodeOS: victim, Kind: faults.Offline}); err != nil {
		t.Fatal(err)
	}
	leases, err := cl.Leases(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases.Leases) != 1 {
		t.Fatalf("leases: %+v", leases)
	}
	if got := leases.Leases[0].Placement; strings.Contains(got, fmt.Sprintf("#%d", victim)) {
		t.Fatalf("lease still on offline node: %s", got)
	}

	// /health reports the node offline and overall status degraded.
	health, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("health status %q, want degraded", health.Status)
	}
	found := false
	for _, n := range health.Nodes {
		if n.OS == victim {
			found = true
			if n.State != "offline" {
				t.Fatalf("node %d state %q, want offline", victim, n.State)
			}
		}
	}
	if !found {
		t.Fatalf("node %d missing from health report: %+v", victim, health.Nodes)
	}

	// New placements steer clear of the dead node.
	resp2, err := cl.Alloc(ctx, server.AllocRequest{
		Name: "hot2", Size: 1 << 30, Attr: "Bandwidth", Initiator: "0-19",
	})
	if err != nil {
		t.Fatal(err)
	}
	if nodeOSOf(t, resp2.Placement) == victim {
		t.Fatalf("new alloc landed on offline node: %s", resp2.Placement)
	}

	// The move is visible in the counters.
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["hetmemd_auto_migrate_total"] != 1 {
		t.Fatalf("auto_migrate_total = %v, want 1", m["hetmemd_auto_migrate_total"])
	}
	if m["hetmemd_health_transitions_total"] == 0 {
		t.Fatal("health_transitions_total did not move")
	}
	if m[fmt.Sprintf("hetmemd_node_health{node=%q}", fmt.Sprintf("DRAM#%d", victim))] != 2 {
		t.Fatalf("node health gauge not offline: %v", m)
	}

	// Heal: the node returns to service and to the health report.
	if err := injector.Apply(faults.Event{NodeOS: victim, Kind: faults.Online}); err != nil {
		t.Fatal(err)
	}
	health, err = cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("health status after heal %q, want ok", health.Status)
	}
}

func TestDegradedNodeIsDemotedNotExcluded(t *testing.T) {
	ctx := context.Background()
	_, injector, _, cl := startConfigured(t, "xeon", server.Config{})

	probe, err := cl.Alloc(ctx, server.AllocRequest{
		Name: "probe", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
	})
	if err != nil {
		t.Fatal(err)
	}
	best := nodeOSOf(t, probe.Placement)
	if err := cl.Free(ctx, probe.Lease); err != nil {
		t.Fatal(err)
	}

	// Degrade the preferred node: placements shift off it.
	if err := injector.Apply(faults.Event{NodeOS: best, Kind: faults.Degrade, BWFactor: 0.3, LatFactor: 2}); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Alloc(ctx, server.AllocRequest{
		Name: "shifted", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
	})
	if err != nil {
		t.Fatal(err)
	}
	if nodeOSOf(t, resp.Placement) == best {
		t.Fatalf("alloc still on degraded node: %s", resp.Placement)
	}
	health, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range health.Nodes {
		if n.OS == best && n.State != "degraded" {
			t.Fatalf("node %d state %q, want degraded", best, n.State)
		}
	}
}

func TestAdmissionControlShedsWith503AndRetryAfter(t *testing.T) {
	ctx := context.Background()
	_, _, ts, cl := startConfigured(t, "xeon", server.Config{
		ShedWatermark:     1e-9, // everything sheds
		RetryAfterSeconds: 3,
	})

	// The typed client sees a 503 APIError.
	fastRetry := server.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	cl = server.NewClient(ts.URL, server.WithRetryPolicy(fastRetry))
	_, err := cl.Alloc(ctx, server.AllocRequest{Name: "x", Size: 1 << 20, Attr: "Bandwidth"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed error = %v, want 503", err)
	}

	// The raw response carries the Retry-After contract.
	resp, err := http.Post(ts.URL+"/v1/alloc", "application/json",
		strings.NewReader(`{"name":"x","size":1048576,"attr":"Bandwidth"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want 3", got)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["hetmemd_shed_total"] < 2 {
		t.Fatalf("shed_total = %v, want >= 2", m["hetmemd_shed_total"])
	}
}

func TestIdempotencyKeyNeverDoubleAllocates(t *testing.T) {
	ctx := context.Background()
	_, _, _, cl := startConfigured(t, "xeon", server.Config{})

	req := server.AllocRequest{
		Name: "idem", Size: 1 << 30, Attr: "Bandwidth", Initiator: "0-19",
		IdempotencyKey: "key-1",
	}
	first, err := cl.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent duplicates all coalesce onto the same lease.
	const dups = 16
	var wg sync.WaitGroup
	leases := make([]uint64, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cl.Alloc(ctx, req)
			if err != nil {
				t.Error(err)
				return
			}
			leases[i] = resp.Lease
		}(i)
	}
	wg.Wait()
	for i, l := range leases {
		if l != first.Lease {
			t.Fatalf("duplicate %d got lease %d, want %d", i, l, first.Lease)
		}
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["hetmemd_alloc_total"] != 1 {
		t.Fatalf("alloc_total = %v after %d duplicate requests, want 1", m["hetmemd_alloc_total"], dups+1)
	}
	if m["hetmemd_idempotent_replays_total"] != dups {
		t.Fatalf("idempotent_replays_total = %v, want %d", m["hetmemd_idempotent_replays_total"], dups)
	}

	// Freeing the lease retires the key: the same key allocates anew.
	if err := cl.Free(ctx, first.Lease); err != nil {
		t.Fatal(err)
	}
	again, err := cl.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Lease == first.Lease {
		t.Fatal("retired idempotency key replayed a freed lease")
	}
}

func TestClientRetriesTransientFaultTransparently(t *testing.T) {
	ctx := context.Background()
	sys, injector, _, cl := startConfigured(t, "xeon", server.Config{})

	// Arm one transient failure on every node: the first attempt fails
	// with 503 wherever it lands, the retry drains the fault.
	for _, n := range sys.Machine.Nodes() {
		if err := injector.Apply(faults.Event{NodeOS: n.OSIndex(), Kind: faults.Transient, Failures: 1}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := cl.Alloc(ctx, server.AllocRequest{
		Name: "flaky", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
	})
	if err != nil {
		t.Fatalf("alloc through transient fault: %v", err)
	}
	if resp.Lease == 0 {
		t.Fatalf("no lease: %+v", resp)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["hetmemd_alloc_failed_total"] == 0 {
		t.Fatal("expected the first attempt to fail server-side")
	}
	if m["hetmemd_alloc_total"] != 1 {
		t.Fatalf("alloc_total = %v, want 1 (no double alloc on retry)", m["hetmemd_alloc_total"])
	}
}

func TestClientRetryBackoffAndIdempotencyKeyStamping(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	var attempts int
	var keys []string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.AllocRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		mu.Lock()
		attempts++
		n := attempts
		keys = append(keys, req.IdempotencyKey)
		mu.Unlock()
		if n < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(server.ErrorBody{Code: server.CodeShedding, Message: "try again", Retryable: true})
			return
		}
		json.NewEncoder(w).Encode(server.AllocResponse{Lease: 7, Placement: "DRAM#0"})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
	}))
	resp, err := cl.Alloc(ctx, server.AllocRequest{Name: "r", Size: 1, Attr: "Bandwidth"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease != 7 {
		t.Fatalf("lease %d, want 7", resp.Lease)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 3 {
		t.Fatalf("server saw %d attempts, want 3", attempts)
	}
	// Every retry must carry the same, non-empty idempotency key.
	if keys[0] == "" {
		t.Fatal("client did not stamp an idempotency key")
	}
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Fatalf("idempotency key changed across retries: %v", keys)
		}
	}
}

func TestClientFreeToleratesLostResponse(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	calls := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			// The daemon freed the lease but the response is lost: sever
			// the connection without answering.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder cannot hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		// The retry finds the lease gone.
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(server.ErrorBody{Code: server.CodeNotFound, Message: "no such lease"})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	}))
	if err := cl.Free(ctx, 1); err != nil {
		t.Fatalf("free after lost response: %v", err)
	}

	// Without a lost response, a 404 is a real error.
	if err := cl.Free(ctx, 2); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("clean 404 free: %v, want error", err)
	}
}
