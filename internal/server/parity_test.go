package server_test

// Wire parity for the read endpoints. The bodies of /v1/leases,
// /v1/leases?list=1, /v1/attrs and /v1/metrics on a quiescent daemon
// are compared byte for byte against testdata/parity/*.golden, which
// were written by this same test (-update-parity) at commit b75ef9e —
// the last one that served them from the epoch snapshot — and
// metrics_series.golden at 8daef1e, the last one that wrote the metrics
// text onto the connection in pieces. How the daemon keeps its books
// and builds its bodies is free to change; what a client reads is not.
// A change that means to alter a body regenerates the files and says
// so.

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetmem/internal/core"
	"hetmem/internal/memsim"
	"hetmem/internal/server"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/parity/*.golden from this build")

func TestReadBodiesMatchParent(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys)
	defer srv.Close()

	// A fixed population through the backend (no request metrics but the
	// four reads'): three tenants, every attribute, one lease spread over
	// several nodes, one migrated, one freed, one with telemetry.
	base := context.Background()
	var ids []uint64
	for i, req := range []server.AllocRequest{
		{Name: "grid", Size: 3 << 20, Attr: "Bandwidth", Initiator: "0-19"},
		{Name: "index", Size: 5 << 20, Attr: "Latency", Initiator: "20-39"},
		{Name: "archive", Size: 7 << 30, Attr: "Capacity"},
		{Name: "spill", Size: 900 << 30, Attr: "Capacity", Initiator: "0-19", Partial: true, Remote: true},
		{Name: "scratch", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"},
		{Name: "halo", Size: 2 << 20, Attr: "Latency", Initiator: "0-19"},
	} {
		ctx := base
		if i > 0 { // the first lease stays untenanted: the default tenant
			ctx = server.ContextWithTenant(base, []string{"astro", "bio", "chem"}[i%3])
		}
		resp, err := srv.Alloc(ctx, req)
		if err != nil {
			t.Fatalf("alloc %s: %v", req.Name, err)
		}
		ids = append(ids, resp.Lease)
	}
	if _, err := srv.Migrate(base, server.MigrateRequest{Lease: ids[2], Attr: "Bandwidth", Initiator: "20-39"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Free(base, server.FreeRequest{Lease: ids[4]}); err != nil {
		t.Fatal(err)
	}
	ini := sys.InitiatorForPackage(0)
	sys.Engine(ini).Phase("touch", []memsim.Access{{Buffer: sys.Machine.Buffers()[0], RandomReads: 1_000_000, MLP: 4}})

	for _, ep := range []struct{ file, path string }{
		{"leases", "/v1/leases"},
		{"leases_list", "/v1/leases?list=1"},
		{"attrs", "/v1/attrs"},
		{"metrics", "/v1/metrics"},
		{"metrics_series", "/v1/metrics"},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", ep.path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d %s", ep.path, rec.Code, rec.Body)
		}
		got := rec.Body.Bytes()
		switch ep.file {
		case "metrics":
			got = stableMetrics(got)
		case "metrics_series":
			got = metricsSeries(got)
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

// TestMetricsAnsweredWithLength: the metrics text is longer than what
// net/http will measure for itself, so the surface must stamp the
// length — a chunked answer sends the reading client into a regrow
// loop.
func TestMetricsAnsweredWithLength(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
		t.Errorf("metrics answered with Content-Length %d, Transfer-Encoding %v for a %d-byte body",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if _, err := server.ParseMetrics(string(body)); err != nil || len(body) < 2048 {
		t.Errorf("%d-byte metrics body, parse error %v", len(body), err)
	}
}

// metricsSeries keeps every line of the metrics text and masks what a
// rerun cannot reproduce in it — each value and the per-boot instance
// ID — so the series stableMetrics drops are still pinned by name,
// labels and order.
func metricsSeries(text []byte) []byte {
	var out []byte
	for _, line := range strings.SplitAfter(string(text), "\n") {
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = line[:i] + "\n"
		}
		if strings.HasPrefix(line, "hetmemd_instance_info") {
			line = "hetmemd_instance_info\n"
		}
		out = append(out, line...)
	}
	return out
}

// stableMetrics drops the two series a rerun cannot reproduce: the
// per-boot instance ID and the request latency histograms.
func stableMetrics(text []byte) []byte {
	var out []byte
	for _, line := range strings.SplitAfter(string(text), "\n") {
		if strings.HasPrefix(line, "hetmemd_instance_info") || strings.HasPrefix(line, "hetmemd_request_seconds") {
			continue
		}
		out = append(out, line...)
	}
	return out
}
