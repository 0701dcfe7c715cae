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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hetmem/internal/cluster"
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

// parityStep is one raw request of the parity script: its HTTP form
// (method and path; none when path is empty), its binary form (op; none
// when 0), the body both carry, and the status the daemon and the
// router must answer.
type parityStep struct {
	method, path string
	op           wire.Op
	body         string
	status       [2]int // daemon, router
}

// parityScript walks every /v1 op through success and failure. Leases
// are numbered from 1 on every fresh backend, so the same script gives
// the same answers wherever it runs.
var parityScript = []parityStep{
	{"GET", "/v1/topology", wire.OpTopology, "", [2]int{200, 200}},
	{"GET", "/v1/attrs", wire.OpAttrs, "", [2]int{200, 200}},
	{"POST", "/v1/alloc", wire.OpAlloc, `{"name":"p1","size":1048576,"attr":"Bandwidth","initiator":"0-19"}`, [2]int{200, 200}},
	{"POST", "/v1/alloc", wire.OpAlloc, `{"name":"p2","size":2097152,"attr":"Latency","ttl_seconds":30}`, [2]int{200, 200}},
	{"POST", "/v1/alloc/batch", wire.OpAllocBatch, `{"requests":[{"name":"b1","size":4096,"attr":"Capacity"},{"name":"b2","size":4096,"attr":"<Zap>"}]}`, [2]int{200, 200}},
	{"POST", "/v1/renew", wire.OpRenew, `{"lease":2,"ttl_seconds":10}`, [2]int{200, 200}},
	{"POST", "/v1/migrate", wire.OpMigrate, `{"lease":1,"attr":"Capacity","initiator":"0-19"}`, [2]int{200, 200}},
	{"GET", "/v1/leases/1", wire.OpLeaseDetail, `{"lease":1}`, [2]int{200, 404}},
	{"GET", "/v1/leases", wire.OpLeases, "", [2]int{200, 200}},
	{"GET", "/v1/leases?list=1", wire.OpLeaseList, "", [2]int{200, 200}},
	{"GET", "/v1/health", wire.OpHealth, "", [2]int{200, 200}},
	{"POST", "/v1/free", wire.OpFree, `{"lease":1}`, [2]int{200, 200}},
	{"GET", "/v1/metrics", wire.OpMetrics, "", [2]int{200, 200}},
	// Errors.
	{"POST", "/v1/alloc", wire.OpAlloc, `{"name":"x","size":1048576,"attr":"Nonsense"}`, [2]int{400, 400}},
	{"POST", "/v1/alloc", wire.OpAlloc, `{"name":"x","attr":"Bandwidth"}`, [2]int{400, 400}},
	{"POST", "/v1/alloc", wire.OpAlloc, `<html>`, [2]int{400, 400}},
	{"POST", "/v1/alloc/batch", wire.OpAllocBatch, `{"requests":[]}`, [2]int{400, 400}},
	{"POST", "/v1/free", wire.OpFree, `{"lease":999999}`, [2]int{404, 404}},
	{"POST", "/v1/renew", wire.OpRenew, `{"lease":999999}`, [2]int{404, 404}},
	{"POST", "/v1/migrate", wire.OpMigrate, `{"lease":999999,"attr":"Capacity"}`, [2]int{404, 404}},
	{"GET", "/v1/leases/4242", wire.OpLeaseDetail, `{"lease":4242}`, [2]int{404, 404}},
	// Spellings the typed client never sends: a stray closer behind
	// the value, and valid JSON the request scanner leaves to
	// encoding/json.
	{"POST", "/v1/free", wire.OpFree, `{"lease":1}}`, [2]int{400, 400}},
	{"POST", "/v1/free", wire.OpFree, `{"lease":1}]`, [2]int{400, 400}},
	{"POST", "/v1/renew", wire.OpRenew, `{"lease":1}}`, [2]int{400, 400}},
	{"POST", "/v1/alloc", wire.OpAlloc, `{"name":"x","size":1,"attr":"Capacity"}]`, [2]int{400, 400}},
	{"POST", "/v1/free", wire.OpFree, `{"lease":1,"lease":999999}`, [2]int{404, 404}}, // last one wins
	{"POST", "/v1/free", wire.OpFree, `{"Lease":999999}`, [2]int{404, 404}},           // keys fold case
	{"POST", "/v1/free", wire.OpFree, `{"lease":1e3}`, [2]int{400, 400}},              // not an integer spelling
	{"POST", "/v1/free", wire.OpFree, `{"lease":null}`, [2]int{400, 400}},             // null leaves the zero lease
	{"POST", "/v1/alloc", wire.OpAlloc, `{"name":"x","size":01,"attr":"Capacity"}`, [2]int{400, 400}},
	{"POST", "/v1/alloc", wire.OpAlloc, `{"name":"\u0078","size":1,"attr":"Nonsense"}`, [2]int{400, 400}},
	// One framing only: the binary lease detail decodes its body before
	// asking the backend, HTTP takes the ID from the path; the advisor
	// and the text attribute dump are HTTP-only. A backend without the
	// extension answers a v1 envelope, never the mux's text 404.
	{"", "", wire.OpLeaseDetail, `{"lease":"7"}`, [2]int{400, 400}},
	{"GET", "/v1/leases/x", 0, "", [2]int{400, 400}},
	{"GET", "/v1/attrs?format=text", 0, "", [2]int{200, 400}},
	{"GET", "/v1/advisor", 0, "", [2]int{409, 404}},
	{"POST", "/v1/advisor/pause", 0, "{}", [2]int{409, 404}},
	{"POST", "/v1/advisor/resume", 0, "{}", [2]int{409, 404}},
}

// answer is one step's status and raw body; skipped when the surface
// has no framing for the step.
type answer struct {
	status  int
	body    string
	skipped bool
}

// masks rewrite what two boots of the same backend cannot agree on: the
// per-boot instance IDs, the members' loopback ports and, in the
// metrics text, every value (request latencies and the per-transport
// byte counts differ by framing).
var (
	instanceIDs = regexp.MustCompile(`instance_id(":"|=")[0-9a-f]+"`)
	memberPorts = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)
	metricValue = regexp.MustCompile(`(?m) [^ \n]+$`)
)

// runParityScript boots a fresh backend of the given kind, serves it
// over one transport ("http", "uds" or "tcp-bin"), and records the
// script's raw answers.
func runParityScript(t *testing.T, router bool, transport string) []answer {
	t.Helper()
	slot := server.TransportUDS
	if transport == "tcp-bin" {
		slot = server.TransportTCPBin
	}
	var h http.Handler
	var wh wire.Handler
	var stats *wire.Stats
	if router {
		sim, err := cluster.StartSim(cluster.SimOptions{Platforms: []string{"xeon"}, Router: cluster.Config{PollInterval: time.Hour}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sim.Close)
		sim.Router.PollOnce(context.Background())
		h, wh, stats = sim.Router.Handler(), sim.Router.WireHandler(), sim.Router.Metrics().TransportStats(slot)
	} else {
		sys, err := core.NewSystem("xeon", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(sys)
		t.Cleanup(func() { srv.Close() })
		h, wh, stats = srv.Handler(), srv.WireHandler(), srv.Metrics().TransportStats(slot)
	}
	var do func(st parityStep) answer
	if transport == "http" {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		do = func(st parityStep) answer {
			if st.path == "" {
				return answer{skipped: true}
			}
			req, err := http.NewRequest(st.method, ts.URL+st.path, strings.NewReader(st.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if ct := resp.Header.Get("Content-Type"); resp.StatusCode >= 400 && ct != "application/json" {
				t.Errorf("%s %s: %d answered as %q: %s", st.method, st.path, resp.StatusCode, ct, body)
			}
			return answer{status: resp.StatusCode, body: string(body)}
		}
	} else {
		network, addr := "tcp", "127.0.0.1:0"
		if transport == "uds" {
			dir, err := os.MkdirTemp("", "parity")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.RemoveAll(dir) })
			network, addr = "unix", filepath.Join(dir, "s")
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			t.Fatal(err)
		}
		ws := wire.NewServer(wh, stats)
		go ws.Serve(ln)
		t.Cleanup(func() { ws.Close() })
		wc := wire.NewClient(network, ln.Addr().String())
		t.Cleanup(func() { wc.Close() })
		do = func(st parityStep) answer {
			if st.op == 0 {
				return answer{skipped: true}
			}
			status, body, err := wc.RoundTrip(context.Background(), 0, st.op, "", []byte(st.body))
			if err != nil {
				t.Fatal(err)
			}
			return answer{status: status, body: string(body)}
		}
	}
	out := make([]answer, len(parityScript))
	for i, st := range parityScript {
		a := do(st)
		a.body = instanceIDs.ReplaceAllString(a.body, "instance_id$1X\"")
		a.body = memberPorts.ReplaceAllString(a.body, "127.0.0.1:X")
		if st.op == wire.OpMetrics {
			a.body = metricValue.ReplaceAllString(a.body, "")
		}
		out[i] = a
	}
	return out
}

// TestWireTransportParity pins one op table behind every framing. Each
// surface — the daemon over HTTP, a unix socket and binary TCP, the
// router over HTTP and a unix socket — is a fresh backend driven through
// the same parity script, and on each backend every transport must
// answer every step with the same status and the same bytes. The
// comparison is exact: the trailing newline encoding/json's Encoder
// writes after an error envelope or a reflection-encoded body is kept on
// HTTP (the daemon's goldens carry it) and ends the same bodies on the
// binary transports too.
func TestWireTransportParity(t *testing.T) {
	testTypedClientParity(t)
	type surface struct {
		name      string
		router    bool
		transport string
	}
	surfaces := []surface{
		{"daemon-http", false, "http"}, {"daemon-uds", false, "uds"}, {"daemon-tcp", false, "tcp-bin"},
		{"router-http", true, "http"}, {"router-uds", true, "uds"},
	}
	got := map[string][]answer{}
	for _, sf := range surfaces {
		got[sf.name] = runParityScript(t, sf.router, sf.transport)
	}
	for i, st := range parityScript {
		name := st.path
		if name == "" {
			name = st.op.String()
		}
		step := fmt.Sprintf("step %d (%s %s %s)", i, st.method, name, st.body)
		for b, backend := range []string{"daemon", "router"} {
			var ref *answer
			for _, sf := range surfaces {
				a := got[sf.name][i]
				if sf.router != (b == 1) || a.skipped {
					continue
				}
				if a.status != st.status[b] {
					t.Errorf("%s on %s: status %d, want %d: %s", step, sf.name, a.status, st.status[b], a.body)
				}
				if a.status >= 400 {
					var eb server.ErrorBody
					if err := json.Unmarshal([]byte(a.body), &eb); err != nil || eb.Code == "" || !strings.HasSuffix(a.body, "}\n") {
						t.Errorf("%s on %s: %q is not a v1 error envelope", step, sf.name, a.body)
					}
				}
				if ref == nil {
					ref = &a
				} else if a != *ref {
					t.Errorf("%s on the %s: transports disagree:\n%d %q\n%d %q", step, backend, ref.status, ref.body, a.status, a.body)
				}
			}
		}
	}
	// A backend without per-lease detail names the lease it was asked
	// for, on both transports, exactly like one that has none by that ID.
	for i, st := range parityScript {
		if st.path != "/v1/leases/4242" {
			continue
		}
		for _, sf := range []string{"router-http", "router-uds"} {
			if a, want := got[sf][i], got["daemon-http"][i]; a != want {
				t.Errorf("unknown lease detail on %s: %d %q, the daemon answers %d %q", sf, a.status, a.body, want.status, want.body)
			}
		}
	}
}

// testTypedClientParity drives the same operations through the typed
// client over all three of one daemon's bases, one subtest each, then
// requires the client to rebuild the same *APIError (status, code,
// message) from each bad call's error answer on every transport.
func testTypedClientParity(t *testing.T) {
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
		{"zero lease detail", func(cl *server.Client) error {
			_, err := cl.LeaseDetail(ctx, 0)
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

	resp, err := http.Get(httpBase + "/v1/metrics")
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

// TestWireFramesLargerThanConnBuffers round-trips frames far larger
// than a connection's 4 KiB read and write buffers on both binary
// transports: an alloc whose 256 KiB name makes a 256 KiB request
// body, and the lease list that echoes it back, while other callers'
// small frames share the same connections. Run with -race.
func TestWireFramesLargerThanConnBuffers(t *testing.T) {
	_, _, udsBase, tcpBase := startWireDaemon(t, "xeon", server.Config{})
	for name, base := range map[string]string{"uds": udsBase, "tcp-bin": tcpBase} {
		t.Run(name, func(t *testing.T) {
			cl := wireClient(t, base)
			ctx := context.Background()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						if err := largeFrameRound(ctx, cl, g, i); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// largeFrameRound is one caller's step of
// TestWireFramesLargerThanConnBuffers: odd callers send small frames,
// even ones a 256 KiB alloc and the lease list naming it.
func largeFrameRound(ctx context.Context, cl *server.Client, g, i int) error {
	req := server.AllocRequest{Name: fmt.Sprintf("small-%d-%d", g, i), Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"}
	if g%2 == 0 {
		req.Name = fmt.Sprintf("%d-%d-", g, i) + strings.Repeat("x", 256<<10)
	}
	ar, err := cl.Alloc(ctx, req)
	if err != nil {
		return fmt.Errorf("alloc of a %d-byte name: %w", len(req.Name), err)
	}
	if g%2 == 0 {
		ls, err := cl.Leases(ctx, true)
		if err != nil {
			return fmt.Errorf("lease list: %w", err)
		}
		found := false
		for _, li := range ls.Leases {
			found = found || li.Lease == ar.Lease && li.Name == req.Name
		}
		if !found {
			return fmt.Errorf("lease list of %d leases lacks lease %d with its %d-byte name", len(ls.Leases), ar.Lease, len(req.Name))
		}
	}
	if err := cl.Free(ctx, ar.Lease); err != nil {
		return fmt.Errorf("free %d: %w", ar.Lease, err)
	}
	return nil
}
