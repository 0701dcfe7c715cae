package server_test

// Transport-parity and failure-model tests for the binary wire
// protocol: the daemon behind unix:// and tcp+bin:// bases must be
// byte-for-byte the same /v1 service as http://, including error
// envelopes, idempotency replay, and tenant attribution; a connection
// dropped mid-request must retry idempotent calls and fail
// non-idempotent ones fast; and mixed HTTP + binary load against one
// daemon must leave consistent books. Run with -race: the chaos and
// mid-drop tests exercise the mux concurrently.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/server"
	"hetmem/internal/wire"
)

// startWireDaemon boots one daemon and exposes it over all three
// transports, returning the three base URLs.
func startWireDaemon(t testing.TB, platform string, cfg server.Config) (srv *server.Server, httpBase, udsBase, tcpBase string) {
	t.Helper()
	sys, err := core.NewSystem(platform, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err = server.NewWithConfig(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	udsBase, stopUDS, err := server.ServeTransport(srv, "uds")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopUDS)
	tcpBase, stopTCP, err := server.ServeTransport(srv, "tcp-bin")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopTCP)
	return srv, ts.URL, udsBase, tcpBase
}

func wireClient(t testing.TB, base string, opts ...server.ClientOption) *server.Client {
	t.Helper()
	cl := server.NewClient(base, append([]server.ClientOption{server.WithoutHeartbeat()}, opts...)...)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestWireTransportParity drives the same operations through all
// three bases and requires identical answers — including the full
// error envelope (status, code, message) on failures.
func TestWireTransportParity(t *testing.T) {
	_, httpBase, udsBase, tcpBase := startWireDaemon(t, "xeon", server.Config{})
	ctx := context.Background()

	bases := map[string]string{"http": httpBase, "uds": udsBase, "tcp-bin": tcpBase}
	for name, base := range bases {
		t.Run(name, func(t *testing.T) {
			cl := wireClient(t, base)

			topo, err := cl.Topology(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(topo.NUMANodes()); n != 4 {
				t.Fatalf("topology over %s: %d NUMA nodes, want 4", name, n)
			}
			attrs, err := cl.Attrs(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(attrs) == 0 {
				t.Fatalf("no attrs over %s", name)
			}

			ar, err := cl.Alloc(ctx, server.AllocRequest{Name: "parity-" + name, Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"})
			if err != nil {
				t.Fatal(err)
			}
			mr, err := cl.Migrate(ctx, server.MigrateRequest{Lease: ar.Lease, Attr: "Capacity", Initiator: "0-19"})
			if err != nil {
				t.Fatal(err)
			}
			if mr.Placement == "" {
				t.Fatalf("empty migrate placement over %s", name)
			}
			detail, err := cl.LeaseDetail(ctx, ar.Lease)
			if err != nil {
				t.Fatal(err)
			}
			if detail.Lease != ar.Lease {
				t.Fatalf("lease detail over %s: got %d want %d", name, detail.Lease, ar.Lease)
			}
			if _, err := cl.Leases(ctx, true); err != nil {
				t.Fatal(err)
			}
			if err := cl.Free(ctx, ar.Lease); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Health(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Metrics(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Error-envelope parity: the same bad requests must come back with
	// the same status, stable code, and message on every transport.
	type envelope struct {
		status  int
		code    string
		message string
	}
	for _, bad := range []struct {
		name string
		call func(cl *server.Client) error
	}{
		{"bad attr", func(cl *server.Client) error {
			_, err := cl.Alloc(ctx, server.AllocRequest{Name: "x", Size: 1 << 20, Attr: "Nonsense"})
			return err
		}},
		{"no such lease", func(cl *server.Client) error {
			return cl.Free(ctx, 999999)
		}},
		{"no such lease detail", func(cl *server.Client) error {
			_, err := cl.LeaseDetail(ctx, 999999)
			return err
		}},
		{"zero size", func(cl *server.Client) error {
			_, err := cl.Alloc(ctx, server.AllocRequest{Name: "x", Attr: "Bandwidth"})
			return err
		}},
	} {
		var want envelope
		for _, name := range []string{"http", "uds", "tcp-bin"} {
			cl := wireClient(t, bases[name], server.WithRetryPolicy(server.NoRetry))
			err := bad.call(cl)
			var apiErr *server.APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("%s over %s: want *APIError, got %v", bad.name, name, err)
			}
			got := envelope{apiErr.StatusCode, apiErr.Code, apiErr.Message}
			if name == "http" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s envelope mismatch: http %+v vs %s %+v", bad.name, want, name, got)
			}
		}
	}

	// Raw-body parity: spellings the typed client never sends — a
	// stray closer behind the value, and valid JSON the request scanner
	// leaves to encoding/json — get the same status and the same
	// envelope bytes on every transport.
	uds := wire.NewClient("unix", strings.TrimPrefix(udsBase, "unix://"))
	defer uds.Close()
	tcp := wire.NewClient("tcp", strings.TrimPrefix(tcpBase, "tcp+bin://"))
	defer tcp.Close()
	for _, raw := range []struct {
		path   string
		op     wire.Op
		body   string
		status int
	}{
		{"/v1/free", wire.OpFree, `{"lease":1}}`, 400},
		{"/v1/free", wire.OpFree, `{"lease":1}]`, 400},
		{"/v1/renew", wire.OpRenew, `{"lease":1}}`, 400},
		{"/v1/alloc", wire.OpAlloc, `{"name":"x","size":1,"attr":"Capacity"}]`, 400},
		{"/v1/free", wire.OpFree, `{"lease":1,"lease":999999}`, 404}, // last one wins
		{"/v1/free", wire.OpFree, `{"Lease":999999}`, 404},           // keys fold case
		{"/v1/free", wire.OpFree, `{"lease":1e3}`, 400},              // not an integer spelling
		{"/v1/free", wire.OpFree, `{"lease":null}`, 400},             // null leaves the zero lease
		{"/v1/alloc", wire.OpAlloc, `{"name":"x","size":01,"attr":"Capacity"}`, 400},
		{"/v1/alloc", wire.OpAlloc, `{"name":"\u0078","size":1,"attr":"Nonsense"}`, 400},
	} {
		resp, err := http.Post(httpBase+raw.path, "application/json", strings.NewReader(raw.body))
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != raw.status {
			t.Errorf("%s %s over http: status %d, want %d (%s)", raw.path, raw.body, resp.StatusCode, raw.status, want)
		}
		for name, wc := range map[string]*wire.Client{"uds": uds, "tcp-bin": tcp} {
			status, got, err := wc.RoundTrip(ctx, 0, raw.op, "", []byte(raw.body))
			if err != nil {
				t.Fatal(err)
			}
			if status != resp.StatusCode || strings.TrimSpace(string(got)) != strings.TrimSpace(string(want)) {
				t.Errorf("%s %s: http answered %d %s, %s answered %d %s", raw.path, raw.body, resp.StatusCode, want, name, status, got)
			}
		}
	}
}

// TestWireIdempotencyReplay proves the idempotency table works across
// the binary transport: replaying an alloc with the same key over uds
// returns the same lease, and a replay over a *different* transport
// still hits the same table.
func TestWireIdempotencyReplay(t *testing.T) {
	_, httpBase, udsBase, _ := startWireDaemon(t, "xeon", server.Config{})
	ctx := context.Background()
	cl := wireClient(t, udsBase)

	req := server.AllocRequest{Name: "idem", Size: 1 << 20, Attr: "Bandwidth", IdempotencyKey: "wire-key-1"}
	first, err := cl.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cl.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Lease != first.Lease || again.Placement != first.Placement {
		t.Fatalf("uds replay minted a new lease: %+v vs %+v", first, again)
	}
	hcl := wireClient(t, httpBase)
	cross, err := hcl.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cross.Lease != first.Lease {
		t.Fatalf("cross-transport replay minted a new lease: %d vs %d", cross.Lease, first.Lease)
	}
	if err := cl.Free(ctx, first.Lease); err != nil {
		t.Fatal(err)
	}
}

// TestWireTenantAttribution proves the tenant field in the binary
// request frame reaches the quota accountant: a tenant with a 32 MiB
// DRAM quota is rejected for 64 MiB over uds with the same
// quota_exceeded envelope HTTP produces.
func TestWireTenantAttribution(t *testing.T) {
	dir := t.TempDir()
	tenants := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenants, []byte(`{"tenants":{"q":{"class":"best-effort","quotas":{"DRAM":33554432}}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, udsBase, _ := startWireDaemon(t, "synthetic:package:1 core:1 pu:1 mem:package:DRAM:256MiB:bw=90:lat=85",
		server.Config{TenantsPath: tenants})
	ctx := context.Background()

	capped := wireClient(t, udsBase, server.WithTenant("q"), server.WithRetryPolicy(server.NoRetry))
	_, err := capped.Alloc(ctx, server.AllocRequest{Name: "big", Size: 64 << 20, Attr: "Capacity", Partial: true, Remote: true})
	if !errors.Is(err, server.ErrQuotaExceeded) {
		t.Fatalf("64 MiB for a 32 MiB-quota tenant over uds: want quota_exceeded, got %v", err)
	}
	// Inside the quota the same tenant allocates fine over the wire.
	small, err := capped.Alloc(ctx, server.AllocRequest{Name: "small", Size: 16 << 20, Attr: "Capacity", Partial: true, Remote: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := capped.Free(ctx, small.Lease); err != nil {
		t.Fatal(err)
	}
}

// TestWireAdvisorFallsBackToError pins the documented limitation: the
// advisor control surface is HTTP-only, and a binary-transport client
// reports that terminally instead of burning retries.
func TestWireAdvisorFallsBackToError(t *testing.T) {
	_, _, udsBase, _ := startWireDaemon(t, "xeon", server.Config{})
	cl := wireClient(t, udsBase)
	_, err := cl.Advisor(context.Background())
	if err == nil || !strings.Contains(err.Error(), "binary transport") {
		t.Fatalf("advisor over uds: want binary-transport error, got %v", err)
	}
}

// gateHandler wraps the daemon's wire handler but parks the first
// request it sees until released, so a test can kill the listener
// while that request is provably in flight.
type gateHandler struct {
	inner wire.Handler
	once  sync.Once
	hit   chan struct{} // closed when the first request arrives
	block chan struct{} // the first request waits here
}

func (g *gateHandler) ServeWire(ctx context.Context, op wire.Op, tenant string, body, dst []byte) (int, []byte) {
	var first bool
	g.once.Do(func() { first = true })
	if first {
		close(g.hit)
		// Park until released — or until the server shuts down, which
		// cancels ctx (Close waits for in-flight handlers).
		select {
		case <-g.block:
		case <-ctx.Done():
		}
	}
	return g.inner.ServeWire(ctx, op, tenant, body, dst)
}

// TestWireMidDropClassification kills the UDS listener while a
// request is mid-flight, restarts it on the same socket path, and
// checks both halves of the failure model: an idempotent alloc (the
// client stamps a key) retries onto the new listener and succeeds; a
// migrate hitting the same drop fails fast with the ambiguous
// transport error instead of replaying.
func TestWireMidDropClassification(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys)
	defer srv.Close()

	path := filepath.Join(os.TempDir(), fmt.Sprintf("hetmemd-middrop-%d.sock", os.Getpid()))
	os.Remove(path)
	defer os.Remove(path)
	serveGated := func() (*wire.Server, *gateHandler) {
		gate := &gateHandler{inner: srv.WireHandler(), hit: make(chan struct{}), block: make(chan struct{})}
		ln, err := net.Listen("unix", path)
		if err != nil {
			t.Fatal(err)
		}
		ws := wire.NewServer(gate, srv.Metrics().TransportStats(server.TransportUDS))
		go ws.Serve(ln)
		return ws, gate
	}
	restart := func(ws *wire.Server, gate *gateHandler) *wire.Server {
		<-gate.hit // the victim request is inside the handler
		ws.Close()
		os.Remove(path)
		ln, err := net.Listen("unix", path)
		if err != nil {
			t.Fatal(err)
		}
		ws2 := wire.NewServer(srv.WireHandler(), srv.Metrics().TransportStats(server.TransportUDS))
		go ws2.Serve(ln)
		return ws2
	}

	retry := server.RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	ctx := context.Background()

	// Idempotent half: the dropped alloc retries and lands.
	ws, gate := serveGated()
	var ws2 *wire.Server
	var restartWG sync.WaitGroup
	restartWG.Add(1)
	go func() { defer restartWG.Done(); ws2 = restart(ws, gate) }()
	cl := wireClient(t, "unix://"+path, server.WithRetryPolicy(retry))
	ar, err := cl.Alloc(ctx, server.AllocRequest{Name: "survivor", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"})
	restartWG.Wait()
	if err != nil {
		t.Fatalf("idempotent alloc across a mid-request drop: %v", err)
	}
	defer ws2.Close()

	// Non-idempotent half: a migrate dropped mid-flight must NOT be
	// replayed — the daemon may have processed it.
	ws2.Close()
	os.Remove(path)
	ws3, gate3 := serveGated()
	var ws4 *wire.Server
	restartWG.Add(1)
	go func() { defer restartWG.Done(); ws4 = restart(ws3, gate3) }()
	cl2 := wireClient(t, "unix://"+path, server.WithRetryPolicy(retry))
	_, err = cl2.Migrate(ctx, server.MigrateRequest{Lease: ar.Lease, Attr: "Capacity", Initiator: "0-19"})
	restartWG.Wait()
	defer ws4.Close()
	if err == nil {
		t.Fatal("migrate across a mid-request drop succeeded — it was replayed")
	}
	if !strings.Contains(err.Error(), "transport error on non-idempotent request") {
		t.Fatalf("migrate drop classified wrong: %v", err)
	}
	if !errors.Is(err, wire.ErrConnDropped) {
		t.Fatalf("migrate drop should unwrap to ErrConnDropped: %v", err)
	}

	// The books survived the chaos: exactly the one alloc is live.
	if n := srv.LeaseCount(); n != 1 {
		t.Fatalf("lease count after drops: %d, want 1", n)
	}
}

// TestWireAttemptTimeoutClassification is the mid-drop test's twin for
// a daemon that accepts the frame and goes silent: the attempt ends at
// WithAttemptTimeout with context.DeadlineExceeded — no per-attempt
// context is derived on this transport any more, the wire client's
// timer says so — and the retry policy treats it like a drop: a keyed
// alloc retries and lands exactly once, a migrate fails fast.
func TestWireAttemptTimeoutClassification(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys)
	// Registered first, so it runs after the listeners' cleanups have
	// let the parked requests finish against a live daemon.
	t.Cleanup(func() { srv.Close() })

	// serveGated parks the first request it sees until the listener
	// closes; everything after it is served.
	serveGated := func() (base string, gate *gateHandler) {
		path := filepath.Join(t.TempDir(), "silent.sock")
		gate = &gateHandler{inner: srv.WireHandler(), hit: make(chan struct{}), block: make(chan struct{})}
		ln, err := net.Listen("unix", path)
		if err != nil {
			t.Fatal(err)
		}
		ws := wire.NewServer(gate, srv.Metrics().TransportStats(server.TransportUDS))
		go ws.Serve(ln)
		t.Cleanup(func() { ws.Close() })
		return "unix://" + path, gate
	}
	retry := server.RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	ctx := context.Background()

	base, gate := serveGated()
	cl := wireClient(t, base, server.WithRetryPolicy(retry), server.WithAttemptTimeout(40*time.Millisecond))
	start := time.Now()
	ar, err := cl.Alloc(ctx, server.AllocRequest{Name: "patient", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"})
	if err != nil {
		t.Fatalf("keyed alloc past a silent attempt: %v", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("alloc returned after %v: the first attempt cannot have timed out", d)
	}
	close(gate.block) // the parked first attempt replays the key: still one lease
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().IdemReplays.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.LeaseCount(); n != 1 {
		t.Fatalf("lease count after the timed-out attempt replayed: %d, want 1", n)
	}

	base, _ = serveGated()
	cl2 := wireClient(t, base, server.WithRetryPolicy(retry), server.WithAttemptTimeout(40*time.Millisecond))
	_, err = cl2.Migrate(ctx, server.MigrateRequest{Lease: ar.Lease, Attr: "Capacity", Initiator: "0-19"})
	if err == nil {
		t.Fatal("migrate past a silent attempt succeeded — it was replayed")
	}
	if !strings.Contains(err.Error(), "transport error on non-idempotent request") || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("migrate timeout classified wrong: %v", err)
	}

	// The caller's own deadline still outranks the attempt's.
	base, _ = serveGated()
	cl3 := wireClient(t, base, server.WithRetryPolicy(retry), server.WithAttemptTimeout(time.Minute))
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := cl3.Free(short, ar.Lease); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("free under a 30ms context: %v", err)
	}
	if n := srv.LeaseCount(); n != 1 {
		t.Fatalf("lease count: %d, want 1", n)
	}
}

// TestMixedTransportChaos runs the load generator over all three
// transports against ONE daemon concurrently and then audits the
// books. Run with -race.
func TestMixedTransportChaos(t *testing.T) {
	_, httpBase, udsBase, tcpBase := startWireDaemon(t, "xeon", server.Config{})
	ctx := context.Background()

	bases := []string{httpBase, udsBase, tcpBase}
	var wg sync.WaitGroup
	stats := make([]server.LoadStats, len(bases))
	errs := make([]error, len(bases))
	for i, base := range bases {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			stats[i], errs[i] = server.LoadTest(ctx, base, server.LoadOptions{
				Clients:           4,
				RequestsPerClient: 25,
				Seed:              int64(11 + i),
			})
		}(i, base)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("load over %s: %v", bases[i], err)
		}
		if stats[i].Failed != 0 {
			t.Fatalf("load over %s: %d failed requests (%s)", bases[i], stats[i].Failed, stats[i])
		}
	}
	verdict, err := server.VerifyConsistency(ctx, httpBase)
	if err != nil {
		t.Fatalf("books inconsistent after mixed-transport load: %v", err)
	}
	t.Logf("mixed chaos: %s | %s", stats[0], verdict)
}

// TestTransportMetricsRender checks the per-transport series appear
// on /metrics in a fixed deterministic order and that the counters
// attribute traffic to the right transport.
func TestTransportMetricsRender(t *testing.T) {
	_, httpBase, udsBase, tcpBase := startWireDaemon(t, "xeon", server.Config{})
	ctx := context.Background()

	// Exercise each transport so every counter has something to show.
	for _, base := range []string{httpBase, udsBase, tcpBase} {
		cl := wireClient(t, base)
		ar, err := cl.Alloc(ctx, server.AllocRequest{Name: "m", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Free(ctx, ar.Lease); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(httpBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Deterministic order: for each transport in declaration order,
	// the five series appear in a fixed sequence.
	last := -1
	for _, transport := range []string{"http", "uds", "tcp-bin"} {
		for _, series := range []string{
			"hetmemd_transport_requests_total",
			"hetmemd_transport_bytes_rx_total",
			"hetmemd_transport_bytes_tx_total",
			"hetmemd_transport_active_conns",
			"hetmemd_transport_decode_errors_total",
		} {
			key := series + `{transport="` + transport + `"}`
			idx := strings.Index(text, key)
			if idx < 0 {
				t.Fatalf("missing series %s in /metrics", key)
			}
			if idx < last {
				t.Fatalf("series %s out of order", key)
			}
			last = idx
		}
	}

	// Attribution: each transport saw its own traffic.
	cl := wireClient(t, httpBase)
	vals, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{"http", "uds", "tcp-bin"} {
		key := `hetmemd_transport_requests_total{transport="` + transport + `"}`
		if vals[key] < 2 {
			t.Errorf("%s = %v, want >= 2", key, vals[key])
		}
		for _, dir := range []string{"rx", "tx"} {
			key := `hetmemd_transport_bytes_` + dir + `_total{transport="` + transport + `"}`
			if vals[key] == 0 {
				t.Errorf("%s did not move", key)
			}
		}
	}
}
