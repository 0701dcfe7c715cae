package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hetmem/internal/core"
	"hetmem/internal/server"
)

// startDaemon boots an in-process daemon on the named platform.
func startDaemon(t testing.TB, platform string) (*httptest.Server, *server.Client) {
	t.Helper()
	sys, err := core.NewSystem(platform, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(sys).Handler())
	t.Cleanup(ts.Close)
	return ts, server.NewClient(ts.URL)
}

func TestTopologyEndpoint(t *testing.T) {
	ctx := context.Background()
	_, cl := startDaemon(t, "xeon")
	topo, err := cl.Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(topo.NUMANodes()); n != 4 {
		t.Fatalf("xeon topology has %d NUMA nodes over the wire, want 4", n)
	}
}

func TestAttrsEndpoint(t *testing.T) {
	ctx := context.Background()
	ts, cl := startDaemon(t, "xeon")
	attrs, err := cl.Attrs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]server.AttrReport{}
	for _, a := range attrs {
		byName[a.Name] = a
	}
	for _, want := range []string{"Capacity", "Bandwidth", "Latency"} {
		if len(byName[want].Values) == 0 {
			t.Errorf("attribute %s has no values in the dump", want)
		}
	}
	// Initiator-dependent attributes must carry initiators.
	for _, v := range byName["Bandwidth"].Values {
		if v.Initiator == "" {
			t.Errorf("Bandwidth value for %s has no initiator", v.Target)
		}
	}

	// The text rendering (Figure 5) is served under ?format=text.
	resp, err := http.Get(ts.URL + "/v1/attrs?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "Bandwidth") {
		t.Errorf("text attrs dump missing Bandwidth: %q", buf[:n])
	}
}

func TestAllocFreeMigrateRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, cl := startDaemon(t, "xeon")

	// Bandwidth from package 0 should land on its local DRAM.
	resp, err := cl.Alloc(ctx, server.AllocRequest{
		Name: "hot", Size: 1 << 30, Attr: "Bandwidth", Initiator: "0-19",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease == 0 || !strings.HasPrefix(resp.Placement, "DRAM#") {
		t.Fatalf("alloc: %+v", resp)
	}

	// Capacity should pick an NVDIMM.
	big, err := cl.Alloc(ctx, server.AllocRequest{
		Name: "big", Size: 200 << 30, Attr: "Capacity", Initiator: "0-19",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(big.Placement, "NVDIMM#") {
		t.Fatalf("capacity request placed on %s, want NVDIMM", big.Placement)
	}

	// Migrating the hot buffer for Capacity moves it with a real cost.
	mig, err := cl.Migrate(ctx, server.MigrateRequest{Lease: resp.Lease, Attr: "Capacity", Initiator: "0-19"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(mig.Placement, "NVDIMM#") || mig.CostSeconds <= 0 {
		t.Fatalf("migrate: %+v", mig)
	}

	// The lease table sees both buffers.
	leases, err := cl.Leases(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if leases.Count != 2 || len(leases.Leases) != 2 {
		t.Fatalf("leases: %+v", leases)
	}

	if err := cl.Free(ctx, resp.Lease); err != nil {
		t.Fatal(err)
	}
	if err := cl.Free(ctx, big.Lease); err != nil {
		t.Fatal(err)
	}
	// Double free over the API is a clean 404, not corruption.
	if err := cl.Free(ctx, resp.Lease); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("double free error = %v, want 404", err)
	}
}

func TestAllocErrors(t *testing.T) {
	ctx := context.Background()
	ts, cl := startDaemon(t, "xeon")

	cases := []struct {
		name string
		req  server.AllocRequest
		code string
	}{
		{"unknown attr", server.AllocRequest{Name: "x", Size: 1, Attr: "Nope"}, "400"},
		{"bad initiator", server.AllocRequest{Name: "x", Size: 1, Attr: "Bandwidth", Initiator: "zz"}, "400"},
		{"bad policy", server.AllocRequest{Name: "x", Size: 1, Attr: "Bandwidth", Policy: "weird"}, "400"},
		{"too big", server.AllocRequest{Name: "x", Size: 1 << 62, Attr: "Bandwidth", Remote: true}, "507"},
	}
	for _, c := range cases {
		if _, err := cl.Alloc(ctx, c.req); err == nil || !strings.Contains(err.Error(), c.code) {
			t.Errorf("%s: err = %v, want HTTP %s", c.name, err, c.code)
		}
	}

	// Malformed JSON and unknown fields are 400s.
	for _, body := range []string{"{", `{"name":"x","bogus":1}`, `{"name":"x","size":1,"attr":"Bandwidth"} trailing`,
		`{"name":"x","size":1,"attr":"Bandwidth"}}`, `{"name":"x","size":1,"attr":"Bandwidth"}]`} {
		resp, err := http.Post(ts.URL+"/v1/alloc", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/alloc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/alloc: status %d, want 405", resp.StatusCode)
	}
}

func TestMetricsTrackAllocations(t *testing.T) {
	ctx := context.Background()
	_, cl := startDaemon(t, "knl-snc4-flat")

	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var leases []uint64
	for i := 0; i < 5; i++ {
		resp, err := cl.Alloc(ctx, server.AllocRequest{
			Name: "m", Size: 1 << 30, Attr: "Bandwidth", Initiator: "0-15",
		})
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, resp.Lease)
	}
	if err := cl.Free(ctx, leases[0]); err != nil {
		t.Fatal(err)
	}

	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := after["hetmemd_alloc_total"] - before["hetmemd_alloc_total"]; got != 5 {
		t.Errorf("alloc_total moved by %v, want 5", got)
	}
	if got := after["hetmemd_free_total"] - before["hetmemd_free_total"]; got != 1 {
		t.Errorf("free_total moved by %v, want 1", got)
	}
	if got := after["hetmemd_leases_active"]; got != 4 {
		t.Errorf("leases_active = %v, want 4", got)
	}
	// 4 GiB live on MCDRAM nodes (bandwidth requests on KNL).
	if got := server.SumSeries(after, "hetmemd_node_bytes_in_use"); got != 4<<30 {
		t.Errorf("bytes in use = %v, want %v", got, uint64(4)<<30)
	}
	if server.SumSeries(after, "hetmemd_requests_total") <= server.SumSeries(before, "hetmemd_requests_total") {
		t.Error("request counters did not move")
	}
	// Histogram sanity: count series match request counters.
	if after[`hetmemd_request_seconds_count{endpoint="alloc"}`] != after[`hetmemd_requests_total{endpoint="alloc"}`] {
		t.Error("latency histogram count diverges from request counter")
	}
}

// TestConcurrentClients hammers one daemon from many goroutines and
// then checks the books balance. Run with -race.
func TestConcurrentClients(t *testing.T) {
	ctx := context.Background()
	ts, cl := startDaemon(t, "xeon")

	const clients = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cc := server.NewClient(ts.URL)
			var leases []uint64
			for i := 0; i < 30; i++ {
				resp, err := cc.Alloc(ctx, server.AllocRequest{
					Name: "c", Size: 32 << 20, Attr: attrFor(id + i), Partial: true, Remote: true,
				})
				if err != nil {
					t.Error(err)
					continue
				}
				leases = append(leases, resp.Lease)
				if len(leases) > 4 {
					if err := cc.Free(ctx, leases[0]); err != nil {
						t.Error(err)
					}
					leases = leases[1:]
				}
			}
			for _, l := range leases {
				if err := cc.Free(ctx, l); err != nil {
					t.Error(err)
				}
			}
		}(c)
	}
	wg.Wait()

	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics["hetmemd_leases_active"]; got != 0 {
		t.Errorf("leases_active = %v after full drain, want 0", got)
	}
	if got := server.SumSeries(metrics, "hetmemd_node_bytes_in_use"); got != 0 {
		t.Errorf("bytes in use = %v after full drain, want 0", got)
	}
	if got := metrics["hetmemd_alloc_total"]; got != clients*30 {
		t.Errorf("alloc_total = %v, want %d", got, clients*30)
	}
}

func attrFor(i int) string {
	switch i % 3 {
	case 0:
		return "Bandwidth"
	case 1:
		return "Latency"
	default:
		return "Capacity"
	}
}

func TestLoadTestAndConsistency(t *testing.T) {
	ctx := context.Background()
	ts, _ := startDaemon(t, "xeon")
	stats, err := server.LoadTest(ctx, ts.URL, server.LoadOptions{
		Clients:           8,
		RequestsPerClient: 40,
		Seed:              1,
	})
	if err != nil {
		t.Fatalf("%v (stats: %s)", err, stats)
	}
	if stats.Failed != 0 || stats.Allocs == 0 || stats.Frees == 0 {
		t.Fatalf("stats: %s", stats)
	}
	desc, err := server.VerifyConsistency(ctx, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(stats.String(), "/", desc)
}
