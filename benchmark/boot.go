package main

// Booting the service under test in-process, the way `hetmemd serve`
// and `hetmemd router` assemble it, and reaching it through real
// sockets.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hetmem/internal/cluster"
	"hetmem/internal/core"
	"hetmem/internal/faults"
	"hetmem/internal/server"
	"hetmem/internal/tenant"
	"hetmem/internal/wire"
)

// stack is one booted service: the daemons, the router in front of
// them if there is more than one, and the client-facing listener.
type stack struct {
	wl      *workload
	servers []*server.Server
	router  *cluster.Router
	base    string      // what server.NewClient dials
	fs      *countFS    // journal I/O counters; nil without a journal
	front   *wire.Stats // the client-facing wire listener's counters; nil on HTTP
	stops   []func()    // teardown, run in reverse
}

// serveConfig is the `hetmemd serve` default configuration: shedding
// at 0.95, the advisor on at 10 s, candidate cache on, zero-allocation
// encoders.
func serveConfig() server.Config {
	return server.Config{ShedWatermark: 0.95, AdvisorInterval: 10 * time.Second}
}

// boot starts wl's service with its sockets and journal under dir.
// With a tracer the injectable boundaries are wrapped; without one the
// product's own handlers are mounted untouched.
func boot(wl *workload, dir string, tr *tracer) (st *stack, err error) {
	st = &stack{wl: wl}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := serveConfig()
	if wl.journal {
		st.fs = &countFS{FS: faults.OS, tr: tr}
		cfg.JournalPath = filepath.Join(dir, "journal")
		cfg.GroupCommit = true
		cfg.CheckpointMaxWAL = 8 << 20
		cfg.FS = st.fs
	}
	if len(wl.tenants) > 0 {
		// No quotas: a tenant is charged on every allocation and never
		// refused.
		cfg.Tenants = tenant.NewRegistry()
		for _, name := range wl.tenants {
			cfg.Tenants.Define(name, tenant.Burstable, nil)
		}
	}
	for _, plat := range wl.platforms {
		sys, err := core.NewSystem(plat, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("platform %s: %w", plat, err)
		}
		srv, err := server.NewWithConfig(sys, cfg)
		if err != nil {
			return nil, fmt.Errorf("daemon on %s: %w", plat, err)
		}
		st.servers = append(st.servers, srv)
		st.stops = append(st.stops, func() { srv.Close() })
	}

	// backend is what answers the client-facing listener.
	var backend server.Backend = st.servers[0]
	metrics := st.servers[0].Metrics()
	if len(st.servers) > 1 {
		var specs []cluster.MemberSpec
		for i, srv := range st.servers {
			h := srv.Handler()
			if tr != nil {
				h = tracedHTTP{next: h, tr: tr, member: int8(i)}
			}
			url, err := st.serveHTTP(h)
			if err != nil {
				return nil, err
			}
			specs = append(specs, cluster.MemberSpec{Name: fmt.Sprintf("m%d", i), URL: url})
		}
		st.router, err = cluster.New(cluster.Config{Members: specs})
		if err != nil {
			return nil, err
		}
		st.stops = append(st.stops, func() { st.router.Close() })
		backend, metrics = st.router, st.router.Metrics()
	}

	switch wl.transport {
	case "uds":
		var h wire.Handler
		switch {
		case tr != nil:
			h = tracedWire{next: server.NewWireBackend(tracedBackend{Backend: backend, tr: tr}, metrics, 0), tr: tr}
		case st.router != nil:
			h = st.router.WireHandler()
		default:
			h = st.servers[0].WireHandler()
		}
		sock := filepath.Join(dir, "s.sock")
		os.Remove(sock)
		ln, err := net.Listen("unix", sock)
		if err != nil {
			return nil, err
		}
		st.front = metrics.TransportStats(server.TransportUDS)
		ws := wire.NewServer(h, st.front)
		done := make(chan struct{})
		go func() { defer close(done); ws.Serve(ln) }()
		st.stops = append(st.stops, func() { ws.Close(); <-done; os.Remove(sock) })
		st.base = "unix://" + sock
	case "http":
		h := st.servers[0].Handler()
		if tr != nil {
			h = tracedHTTP{next: h, tr: tr, member: -1}
		}
		if st.base, err = st.serveHTTP(h); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("workload %s: unknown transport %q", wl.name, wl.transport)
	}
	return st, nil
}

// serveHTTP serves h on a loopback port with the daemon's timeouts.
func (st *stack) serveHTTP(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	done := make(chan struct{})
	go func() { defer close(done); hs.Serve(ln) }()
	st.stops = append(st.stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

func (st *stack) close() {
	for i := len(st.stops) - 1; i >= 0; i-- {
		st.stops[i]()
	}
	st.stops = nil
}

// dial returns n clients the way the transport is deployed: one
// shared multiplexed connection on the wire protocol, one client (and
// connection) per goroutine on HTTP. Refusals are not retried, so they
// count as failures.
func (st *stack) dial(n int) []*server.Client {
	cls := make([]*server.Client, n)
	if st.wl.transport == "uds" {
		shared := server.NewClient(st.base, server.WithRetryPolicy(server.NoRetry))
		for i := range cls {
			cls[i] = shared
		}
		return cls
	}
	for i := range cls {
		opts := []server.ClientOption{server.WithRetryPolicy(server.NoRetry)}
		if len(st.wl.tenants) > 0 {
			opts = append(opts, server.WithTenant(st.wl.tenants[i%len(st.wl.tenants)]))
		}
		cls[i] = server.NewClient(st.base, opts...)
	}
	return cls
}

func closeClients(cls []*server.Client) {
	for i, c := range cls {
		if i == 0 || c != cls[0] {
			c.Close()
		}
	}
}

// books is the accounting a correctness gate compares: lease count and
// per-node and per-tenant bytes, at the client-facing service and on
// every daemon behind it.
type books struct {
	front   server.LeasesResponse
	daemons []server.LeasesResponse
}

func (st *stack) books(ctx context.Context, cl *server.Client) (books, error) {
	var b books
	var err error
	if b.front, err = cl.Leases(ctx, false); err != nil {
		return b, fmt.Errorf("GET /v1/leases: %w", err)
	}
	for i, srv := range st.servers {
		l, err := srv.Leases(ctx, false)
		if err != nil {
			return b, fmt.Errorf("daemon %d leases: %w", i, err)
		}
		b.daemons = append(b.daemons, l)
	}
	return b, nil
}

func sameLeases(what string, got, want server.LeasesResponse) error {
	if got.Count != want.Count || got.Bytes != want.Bytes {
		return fmt.Errorf("%s: %d leases / %d bytes, want %d / %d", what, got.Count, got.Bytes, want.Count, want.Bytes)
	}
	if !maps.Equal(got.NodeBytes, want.NodeBytes) {
		return fmt.Errorf("%s: per-node bytes %v, want %v", what, got.NodeBytes, want.NodeBytes)
	}
	if !maps.Equal(got.TenantBytes, want.TenantBytes) {
		return fmt.Errorf("%s: per-tenant bytes %v, want %v", what, got.TenantBytes, want.TenantBytes)
	}
	return nil
}

// verify is the correctness gate run after every repetition, once the
// clients have freed their windows: the lease table, at the front and
// on every daemon, must be back to the standing population want, and
// each daemon's /metrics must agree with its lease table.
func (st *stack) verify(ctx context.Context, cl *server.Client, want books) error {
	got, err := st.books(ctx, cl)
	if err != nil {
		return err
	}
	if err := sameLeases("front /v1/leases", got.front, want.front); err != nil {
		return err
	}
	var errs []error
	for i, srv := range st.servers {
		what := fmt.Sprintf("daemon %d", i)
		if err := sameLeases(what, got.daemons[i], want.daemons[i]); err != nil {
			errs = append(errs, err)
		}
		m := srv.Metrics()
		if live := m.AllocTotal.Load() - m.FreeTotal.Load(); live != uint64(got.daemons[i].Count) {
			errs = append(errs, fmt.Errorf("%s: alloc_total - free_total = %d, lease table holds %d", what, live, got.daemons[i].Count))
		}
	}
	if err := metricsAgree(ctx, cl, got.front); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// metricsAgree checks the served /v1/metrics text against the served
// lease table: active leases and bytes in use per node.
func metricsAgree(ctx context.Context, cl *server.Client, l server.LeasesResponse) error {
	m, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("GET /v1/metrics: %w", err)
	}
	if active := int(server.SumSeries(m, "hetmemd_leases_active")); active != l.Count {
		return fmt.Errorf("/v1/metrics: %d active leases, /v1/leases has %d", active, l.Count)
	}
	for node, b := range l.NodeBytes {
		key := fmt.Sprintf("hetmemd_node_bytes_in_use{node=%q}", node)
		if got, ok := m[key]; !ok || uint64(got) != b {
			return fmt.Errorf("/v1/metrics: node %s has %v bytes in use, /v1/leases has %d", node, got, b)
		}
	}
	return nil
}
