package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/server"
)

// boot starts the daemon on a random port and returns its base URL.
func boot(t *testing.T, platform string) string {
	t.Helper()
	srv, err := buildServer(platform, false, server.Config{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	hs := newHTTPServer(srv.Handler(), srv.Metrics().TransportStats(server.TransportHTTP))
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return "http://" + ln.Addr().String()
}

// TestDaemonEndToEnd boots the daemon on a random port, hits every
// endpoint, and checks that /metrics counters move.
func TestDaemonEndToEnd(t *testing.T) {
	base := boot(t, "xeon")
	cl := server.NewClient(base)
	ctx := context.Background()

	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// GET /topology
	topo, err := cl.Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.NUMANodes()) == 0 {
		t.Fatal("topology has no NUMA nodes")
	}

	// GET /attrs
	attrs, err := cl.Attrs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) == 0 {
		t.Fatal("no attributes")
	}

	// POST /alloc
	ar, err := cl.Alloc(ctx, server.AllocRequest{Name: "e2e", Size: 1 << 30, Attr: "Bandwidth", Initiator: "0-19"})
	if err != nil {
		t.Fatal(err)
	}

	// POST /migrate
	if _, err := cl.Migrate(ctx, server.MigrateRequest{Lease: ar.Lease, Attr: "Capacity", Initiator: "0-19"}); err != nil {
		t.Fatal(err)
	}

	// GET /leases
	leases, err := cl.Leases(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if leases.Count != 1 || leases.Bytes != 1<<30 {
		t.Fatalf("leases: %+v", leases)
	}

	// POST /free
	if err := cl.Free(ctx, ar.Lease); err != nil {
		t.Fatal(err)
	}

	// GET /metrics: every exercised endpoint's counter moved.
	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"topology", "attrs", "alloc", "migrate", "leases", "free", "metrics"} {
		key := `hetmemd_requests_total{endpoint="` + ep + `"}`
		if after[key] <= before[key] {
			t.Errorf("counter %s did not move (%v -> %v)", key, before[key], after[key])
		}
	}
	for k, want := range map[string]float64{
		"hetmemd_alloc_total":   1,
		"hetmemd_migrate_total": 1,
		"hetmemd_free_total":    1,
		"hetmemd_leases_active": 0,
	} {
		if after[k] != want {
			t.Errorf("%s = %v, want %v", k, after[k], want)
		}
	}
}

func TestServeErrors(t *testing.T) {
	if err := run([]string{"serve", "-p", "bogus"}, io.Discard); err == nil {
		t.Fatal("unknown platform should fail")
	}
	if err := run([]string{"serve", "-addr", "256.0.0.1:bad"}, io.Discard); err == nil {
		t.Fatal("bad address should fail")
	}
}

func TestRunUsage(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("no args should fail")
	}
	if err := run([]string{"bogus"}, io.Discard); err == nil {
		t.Fatal("unknown subcommand should fail")
	}
	var out strings.Builder
	if err := run([]string{"platforms"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "xeon") || !strings.Contains(out.String(), "knl-snc4-flat") {
		t.Fatalf("platforms output: %q", out.String())
	}
}

// TestLoadtestSelfHosted runs the self-hosted load test the acceptance
// criteria describe (scaled down for CI) and checks it reports
// consistent books and zero failures.
func TestLoadtestSelfHosted(t *testing.T) {
	var out strings.Builder
	err := run([]string{"loadtest", "-clients", "8", "-requests", "30", "-seed", "7"}, &out)
	if err != nil {
		t.Fatalf("%v (output: %s)", err, out.String())
	}
	if !strings.Contains(out.String(), "0 failed") {
		t.Fatalf("expected zero failed requests: %q", out.String())
	}
	if !strings.Contains(out.String(), "books consistent") {
		t.Fatalf("expected consistency check: %q", out.String())
	}
}

// TestLoadtestAgainstRunningDaemon points the load generator at an
// already-running daemon over the -addr flag.
func TestLoadtestAgainstRunningDaemon(t *testing.T) {
	base := boot(t, "knl-snc4-flat")
	var out strings.Builder
	err := run([]string{"loadtest", "-addr", base, "-clients", "4", "-requests", "20"}, &out)
	if err != nil {
		t.Fatalf("%v (output: %s)", err, out.String())
	}

	// The daemon that served the load is still healthy.
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics after load: HTTP %d", resp.StatusCode)
	}
}

// TestServeGracefulShutdown boots the real serve path with a journal,
// drives one allocation, sends SIGTERM, and expects a clean drain with
// the journal flushed.
func TestServeGracefulShutdown(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wal")
	addr := "127.0.0.1:0"
	// Pick a concrete free port first so the client knows where to go.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	addr = ln.Addr().String()
	ln.Close()

	var mu sync.Mutex
	var out strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return out.Write(p)
	})
	udsPath := filepath.Join(os.TempDir(), "hetmemd-serve-test.sock")
	defer os.Remove(udsPath)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", addr, "-uds", udsPath, "-p", "xeon", "-journal", journal, "-no-advisor"}, w)
	}()

	// Wait for the daemon to come up, then do real work over the wire.
	base := "http://" + addr
	cl := server.NewClient(base)
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cl.Health(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not come up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := cl.Alloc(ctx, server.AllocRequest{Name: "g", Size: 1 << 30, Attr: "Bandwidth", Initiator: "0-19"}); err != nil {
		t.Fatal(err)
	}

	// The -uds side listener serves the same daemon over the binary
	// protocol.
	wcl := server.NewClient("unix://"+udsPath, server.WithoutHeartbeat())
	defer wcl.Close()
	if _, err := wcl.Health(ctx); err != nil {
		t.Fatalf("health over the uds wire listener: %v", err)
	}

	// The registered NotifyContext turns our SIGTERM into a graceful
	// drain instead of killing the test process.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down after SIGTERM")
	}
	mu.Lock()
	logText := out.String()
	mu.Unlock()
	if !strings.Contains(logText, "journal flushed") {
		t.Fatalf("no flush confirmation: %q", logText)
	}

	// The journal is intact: a restart restores the lease.
	srv, err := server.NewWithConfig(mustSystem(t), server.Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.LeaseCount() != 1 {
		t.Fatalf("restored %d leases, want 1", srv.LeaseCount())
	}
}

// TestHTTPActiveConnsGauge checks that the HTTP transport's
// live-connection series counts one kept-alive connection while it is
// open and drops back to 0 once it closes.
func TestHTTPActiveConnsGauge(t *testing.T) {
	srv, err := buildServer("xeon", false, server.Config{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(srv.Handler(), srv.Metrics().TransportStats(server.TransportHTTP))
	go hs.Serve(ln)
	defer hs.Close()
	gauge := func() float64 {
		t.Helper()
		var text strings.Builder
		if err := srv.WriteMetrics(context.Background(), &text); err != nil {
			t.Fatal(err)
		}
		m, err := server.ParseMetrics(text.String())
		if err != nil {
			t.Fatal(err)
		}
		return m[`hetmemd_transport_active_conns{transport="http"}`]
	}

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	for i := 0; i < 2; i++ { // two requests on the one kept-alive connection
		if _, err := io.WriteString(c, "GET /v1/health HTTP/1.1\r\nHost: gauge.test\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Close {
			t.Fatalf("health: status %d, close %v; want 200 on a kept-alive connection", resp.StatusCode, resp.Close)
		}
		if g := gauge(); g != 1 {
			t.Fatalf("after request %d on one open connection the gauge reads %v, want 1", i+1, g)
		}
	}
	c.Close()
	// The server sees the close asynchronously, on the connection's
	// own goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for gauge() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gauge still reads %v 5s after the connection closed, want 0", gauge())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func mustSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
