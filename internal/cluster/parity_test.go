package cluster

// Wire parity for the router's read endpoints. The bodies of
// /v1/leases, /v1/leases?list=1 and the /v1/metrics series (values
// masked) on a quiescent router are compared byte for byte against
// testdata/parity/router_*.golden, written by this same test
// (-update-parity) at 0d3bea2 — the last commit whose router answered
// HTTP through its own handlers. How the router encodes a body is free
// to change; what a client reads is not.

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetmem/internal/server"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/parity/router_*.golden from this build")

func TestRouterReadBodiesMatchParent(t *testing.T) {
	sim := startTestSim(t, SimOptions{Router: Config{PollInterval: time.Hour}})
	ctx := context.Background()
	sim.Router.PollOnce(ctx) // every member row carries its instance ID

	// A fixed population through the backend (no request metrics but the
	// three reads'): three tenants, every attribute, one migrated, one
	// freed.
	var ids []uint64
	for i, req := range []server.AllocRequest{
		{Name: "grid", Size: 3 << 20, Attr: "Bandwidth"},
		{Name: "index", Size: 5 << 20, Attr: "Latency"},
		{Name: "archive", Size: 7 << 20, Attr: "Capacity"},
		{Name: "scratch", Size: 1 << 20, Attr: "Bandwidth"},
		{Name: "halo", Size: 2 << 20, Attr: "Latency"},
	} {
		rctx := ctx
		if i > 0 { // the first lease stays untenanted: the default tenant
			rctx = server.ContextWithTenant(ctx, []string{"astro", "bio", "chem"}[i%3])
		}
		resp, err := sim.Router.Alloc(rctx, req)
		if err != nil {
			t.Fatalf("alloc %s: %v", req.Name, err)
		}
		ids = append(ids, resp.Lease)
	}
	if _, err := sim.Router.Migrate(ctx, server.MigrateRequest{Lease: ids[2], Attr: "Bandwidth"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Router.Free(ctx, server.FreeRequest{Lease: ids[3]}); err != nil {
		t.Fatal(err)
	}

	for _, ep := range []struct{ file, path string }{
		{"router_leases", "/v1/leases"},
		{"router_leases_list", "/v1/leases?list=1"},
		{"router_metrics_series", "/v1/metrics"},
	} {
		rec := httptest.NewRecorder()
		sim.Router.Handler().ServeHTTP(rec, httptest.NewRequest("GET", ep.path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d %s", ep.path, rec.Code, rec.Body)
		}
		got := rec.Body.Bytes()
		if ep.file == "router_metrics_series" {
			got = maskMetricValues(got)
		}
		golden := filepath.Join("testdata", "parity", ep.file+".golden")
		if *updateParity {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s differs from %s:\n got: %s\nwant: %s", ep.path, golden, got, want)
		}
	}
}

// maskMetricValues keeps every line of the metrics text and masks what
// a rerun cannot reproduce in it — each value and every instance ID —
// so the series are pinned by name, labels and order.
func maskMetricValues(text []byte) []byte {
	var out []byte
	for _, line := range strings.SplitAfter(string(text), "\n") {
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = line[:i] + "\n"
		}
		if i := strings.Index(line, "instance_id="); i >= 0 {
			line = line[:i] + "instance_id}\n"
		}
		out = append(out, line...)
	}
	return out
}
