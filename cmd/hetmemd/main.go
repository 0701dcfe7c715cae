// Command hetmemd is the heterogeneous-memory placement daemon: it
// loads a simulated platform, runs attribute discovery once (HMAT or
// benchmarking — Table I's two paths), and serves placement decisions
// to concurrent clients over HTTP (see internal/server for the
// endpoints and wire format).
//
// Usage:
//
//	hetmemd serve -addr :7077 -p xeon          # run the daemon
//	hetmemd serve -journal /var/lib/hetmemd.wal  # survive restarts
//	hetmemd serve -journal d.wal -lease-ttl 5m -reap-interval 1m  # TTL leases
//	hetmemd router -member m0=http://h0:7077 -member m1=http://h1:7077  # federate daemons
//	hetmemd loadtest -clients 64               # self-hosted load test
//	hetmemd loadtest -addr http://host:7077    # load-test a running daemon
//	hetmemd platforms                          # list available platforms
//
// Performance is measured by `go run ./benchmark`; the fault, reaper,
// tenant-isolation and advisor scenarios are tests in internal/server
// and internal/cluster.
//
// Try it:
//
//	curl localhost:7077/v1/attrs?format=text
//	curl -d '{"name":"hot","size":1073741824,"attr":"Bandwidth","initiator":"0-19"}' localhost:7077/v1/alloc
//	curl localhost:7077/v1/health
//	curl localhost:7077/v1/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the -pprof-addr side listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/platform"
	"hetmem/internal/server"
	"hetmem/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hetmemd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: hetmemd <serve|router|loadtest|platforms> [flags] (-h for flags)")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:], out)
	case "router":
		return runRouter(args[1:], out)
	case "loadtest":
		return runLoadtest(args[1:], out)
	case "platforms":
		for _, n := range platform.Names() {
			p, err := platform.Get(n)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-20s %s\n", n, p.Description)
		}
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (want serve, router, loadtest, or platforms)", args[0])
	}
}

// buildServer discovers the platform and wraps it in the daemon core.
func buildServer(platName string, forceBench bool, cfg server.Config, out io.Writer) (*server.Server, error) {
	sys, err := core.NewSystem(platName, core.Options{ForceBenchmark: forceBench})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "hetmemd: platform %s, %d NUMA nodes, attributes from %s\n",
		platName, len(sys.Topology().NUMANodes()), sys.Source)
	srv, err := server.NewWithConfig(sys, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.JournalPath != "" {
		fmt.Fprintf(out, "hetmemd: journal %s, %d leases restored\n", cfg.JournalPath, srv.LeaseCount())
	}
	return srv, nil
}

// newHTTPServer wraps a handler with the timeouts a daemon facing
// untrusted clients needs: slow-loris headers and bodies cannot hold
// connections open forever. st is the HTTP transport's counter slot;
// its live-connection gauge follows the server's connection states.
func newHTTPServer(h http.Handler, st *wire.Stats) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ConnState: func(_ net.Conn, state http.ConnState) {
			switch state {
			case http.StateNew:
				st.ActiveConns.Add(1)
			case http.StateClosed, http.StateHijacked:
				st.ActiveConns.Add(-1)
			}
		},
	}
}

func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hetmemd serve", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr       = fs.String("addr", "127.0.0.1:7077", "listen address")
		udsPath    = fs.String("uds", "", "also serve the binary wire protocol on this unix socket path (empty: disabled)")
		tcpBin     = fs.String("tcp-bin", "", "also serve the binary wire protocol on this TCP address (empty: disabled)")
		pprofAddr  = fs.String("pprof-addr", "", "side listener for /debug/pprof profiling endpoints (empty: disabled; keep it off untrusted networks)")
		platName   = fs.String("p", "xeon", "platform to serve (see `hetmemd platforms`)")
		forceBench = fs.Bool("force-bench", false, "benchmark attributes even when the firmware has an HMAT")
		journal    = fs.String("journal", "", "write-ahead lease journal path (empty: no durability)")
		syncJ      = fs.Bool("journal-sync", false, "ack a record only once it is on stable storage; concurrent appends share one fsync (needs -journal)")
		shed       = fs.Float64("shed", 0.95, "admission-control watermark in (0,1]; 0 disables shedding")
		leaseTTL   = fs.Duration("lease-ttl", 0, "default lease TTL (0: leases never expire)")
		maxTTL     = fs.Duration("max-lease-ttl", 0, "ceiling for client-requested TTLs (0: 1h)")
		reapEvery  = fs.Duration("reap-interval", 0, "orphan-reaper scan interval (0: no reaper; must be <= -lease-ttl)")
		ckptEvery  = fs.Duration("checkpoint-every", 0, "journal checkpoint/compaction interval (0: no periodic checkpoints)")
		ckptBytes  = fs.Int64("checkpoint-bytes", 0, "checkpoint when the WAL exceeds this many bytes (0: no size trigger)")
		rebalEvery = fs.Duration("rebalance-every", 0, "pause between healed-node rebalance batches (0: no rebalancing)")
		rebalBytes = fs.Uint64("rebalance-budget", 0, "bytes migrated per rebalance batch (0: 256 MiB)")
		tenants    = fs.String("tenants", "", "tenant config file: priority classes and per-kind byte quotas (empty: every tenant is burstable, unlimited)")
		queueDepth = fs.Int("queue-depth", 0, "burstable admission-queue depth under overload (0: burstable sheds like best-effort)")
		queueWaitT = fs.Duration("queue-timeout", 0, "max burstable wait in the admission queue (0 with -queue-depth: 1s)")
		headroom   = fs.Float64("guaranteed-headroom", 0, "capacity fraction above -shed reserved for guaranteed tenants, in [0,1]")
		advEvery   = fs.Duration("advisor-interval", 10*time.Second, "tiering-advisor sample interval")
		advHyst    = fs.Int("advisor-hysteresis", 0, "agreeing advisor samples before a lease moves (0: 3)")
		advCool    = fs.Int("advisor-cooldown", 0, "samples a lease rests after an advisor move (0: 5)")
		noAdvisor  = fs.Bool("no-advisor", false, "disable the online tiering advisor")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := server.Config{
		JournalPath:        *journal,
		GroupCommit:        *syncJ,
		ShedWatermark:      *shed,
		DefaultLeaseTTL:    *leaseTTL,
		MaxLeaseTTL:        *maxTTL,
		ReapInterval:       *reapEvery,
		CheckpointEvery:    *ckptEvery,
		CheckpointMaxWAL:   *ckptBytes,
		RebalanceInterval:  *rebalEvery,
		RebalanceBudget:    *rebalBytes,
		TenantsPath:        *tenants,
		QueueDepth:         *queueDepth,
		QueueTimeout:       *queueWaitT,
		GuaranteedHeadroom: *headroom,
		AdvisorInterval:    *advEvery,
		AdvisorHysteresis:  *advHyst,
		AdvisorCooldown:    *advCool,
	}
	if *noAdvisor {
		cfg.AdvisorInterval = 0
	}
	if err := validateServeConfig(cfg); err != nil {
		return err
	}
	srv, err := buildServer(*platName, *forceBench, cfg, out)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		// The profiler gets its own listener so the API surface stays
		// clean: net/http/pprof registers on the default mux, which the
		// daemon's handler never serves.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		fmt.Fprintf(out, "hetmemd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go http.Serve(pln, nil)
	}
	return serveUntilSignal(srv, serveAddrs{http: *addr, uds: *udsPath, tcpBin: *tcpBin}, nodeLog{closeErr: "journal close"}, out)
}

// serveAddrs is where one node listens: the HTTP surface plus the
// optional binary-protocol listeners.
type serveAddrs struct {
	http   string
	uds    string // unix socket path for the wire protocol
	tcpBin string // TCP address for the wire protocol
}

// validateServeConfig front-runs server.NewWithConfig's validation so
// a bad flag combination fails before the (slow) platform discovery,
// with the flag names in the message.
func validateServeConfig(cfg server.Config) error {
	if cfg.DefaultLeaseTTL > 0 && cfg.ReapInterval == 0 {
		return fmt.Errorf("-lease-ttl %v needs -reap-interval > 0, or expired leases are never reclaimed", cfg.DefaultLeaseTTL)
	}
	if cfg.DefaultLeaseTTL > 0 && cfg.ReapInterval > cfg.DefaultLeaseTTL {
		return fmt.Errorf("-reap-interval %v must not exceed -lease-ttl %v", cfg.ReapInterval, cfg.DefaultLeaseTTL)
	}
	if (cfg.CheckpointEvery > 0 || cfg.CheckpointMaxWAL > 0) && cfg.JournalPath == "" {
		return fmt.Errorf("-checkpoint-every/-checkpoint-bytes need -journal: there is nothing to compact without a WAL")
	}
	if cfg.GroupCommit && cfg.JournalPath == "" {
		return fmt.Errorf("-journal-sync needs -journal: there is nothing to sync without a WAL")
	}
	if cfg.DefaultLeaseTTL < 0 || cfg.ReapInterval < 0 || cfg.CheckpointEvery < 0 || cfg.RebalanceInterval < 0 || cfg.CheckpointMaxWAL < 0 || cfg.QueueTimeout < 0 || cfg.AdvisorInterval < 0 {
		return fmt.Errorf("duration and byte flags must not be negative")
	}
	if cfg.AdvisorHysteresis < 0 || cfg.AdvisorCooldown < 0 {
		return fmt.Errorf("-advisor-hysteresis and -advisor-cooldown must not be negative")
	}
	if cfg.TenantsPath != "" {
		if _, err := os.Stat(cfg.TenantsPath); err != nil {
			return fmt.Errorf("-tenants: %w", err)
		}
	}
	if cfg.QueueDepth < 0 {
		return fmt.Errorf("-queue-depth must not be negative (got %d)", cfg.QueueDepth)
	}
	if cfg.QueueTimeout > 0 && cfg.QueueDepth == 0 {
		return fmt.Errorf("-queue-timeout %v needs -queue-depth > 0: there is no queue to bound", cfg.QueueTimeout)
	}
	if cfg.GuaranteedHeadroom < 0 || cfg.GuaranteedHeadroom > 1 {
		return fmt.Errorf("-guaranteed-headroom %v outside [0, 1]", cfg.GuaranteedHeadroom)
	}
	if cfg.GuaranteedHeadroom > 0 && cfg.ShedWatermark <= 0 {
		return fmt.Errorf("-guaranteed-headroom %v needs -shed > 0: headroom is relative to the watermark", cfg.GuaranteedHeadroom)
	}
	return nil
}

// node is what one run loop serves: the daemon's Server or the
// cluster Router.
type node interface {
	Handler() http.Handler
	WireHandler() wire.Handler
	Metrics() *server.Metrics
	Close() error
}

// nodeLog is what a subcommand's run loop says: the daemon's lines, or
// the router's with subject "router ".
type nodeLog struct {
	subject  string // before each line's verb
	detail   string // after the listening line's address
	closeErr string // what a failed Close is reported as
}

// serveUntilSignal serves a built node — a daemon or a router — until
// SIGINT/SIGTERM, then shuts down gracefully: in-flight requests
// drain, the wire listeners close, and closing the node flushes its
// journal.
func serveUntilSignal(n node, addrs serveAddrs, lg nodeLog, out io.Writer) error {
	// Register for signals before announcing the listener, so anything
	// that saw "listening" can already shut us down cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addrs.http)
	if err != nil {
		n.Close()
		return err
	}
	fmt.Fprintf(out, "hetmemd: %slistening on http://%s%s\n", lg.subject, ln.Addr(), lg.detail)

	stopWire, err := serveWireListeners(n, addrs, out)
	if err != nil {
		ln.Close()
		n.Close()
		return err
	}

	hs := newHTTPServer(n.Handler(), n.Metrics().TransportStats(server.TransportHTTP))
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		stopWire()
		n.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "hetmemd: %sshutting down\n", lg.subject)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	stopWire()
	if err := n.Close(); err != nil {
		return fmt.Errorf("%s: %w", lg.closeErr, err)
	}
	fmt.Fprintf(out, "hetmemd: %sjournal flushed, bye\n", lg.subject)
	return nil
}

// serveWireListeners binds the node's requested binary-protocol
// listeners and serves them in the background; the returned stop closes
// them (and removes the socket file). With neither address set it is a
// no-op.
func serveWireListeners(n node, addrs serveAddrs, out io.Writer) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for _, s := range stops {
			s()
		}
	}
	if addrs.uds != "" {
		// A socket file left by a crashed daemon would fail the bind;
		// the daemon owns its path, so a stale file is removed, not
		// reported.
		os.Remove(addrs.uds)
		uln, err := net.Listen("unix", addrs.uds)
		if err != nil {
			return nil, fmt.Errorf("wire uds listener: %w", err)
		}
		ws := wire.NewServer(n.WireHandler(), n.Metrics().TransportStats(server.TransportUDS))
		go ws.Serve(uln)
		fmt.Fprintf(out, "hetmemd: wire listening on unix://%s\n", addrs.uds)
		path := addrs.uds
		stops = append(stops, func() { ws.Close(); os.Remove(path) })
	}
	if addrs.tcpBin != "" {
		bln, err := net.Listen("tcp", addrs.tcpBin)
		if err != nil {
			stop()
			return nil, fmt.Errorf("wire tcp listener: %w", err)
		}
		ws := wire.NewServer(n.WireHandler(), n.Metrics().TransportStats(server.TransportTCPBin))
		go ws.Serve(bln)
		fmt.Fprintf(out, "hetmemd: wire listening on tcp+bin://%s\n", bln.Addr())
		stops = append(stops, func() { ws.Close() })
	}
	return stop, nil
}

func runLoadtest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hetmemd loadtest", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr     = fs.String("addr", "", "daemon base URL — http://host:port, unix:///path.sock, or tcp+bin://host:port (empty: boot one in-process)")
		tsport   = fs.String("transport", "http", "in-process daemon transport: http, uds, or tcp-bin (with -addr, the URL scheme decides)")
		platName = fs.String("p", "xeon", "platform for the in-process daemon")
		clients  = fs.Int("clients", 8, "concurrent client goroutines")
		requests = fs.Int("requests", 100, "operations per client")
		maxLive  = fs.Int("live", 8, "max live leases per client")
		maxSize  = fs.Uint64("maxsize", 64<<20, "max allocation size in bytes")
		seed     = fs.Int64("seed", 1, "traffic mix seed")
		verify   = fs.Bool("verify", true, "cross-check /metrics against the lease table afterwards")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	base := *addr
	if base == "" {
		srv, err := buildServer(*platName, false, server.Config{}, out)
		if err != nil {
			return err
		}
		defer srv.Close()
		var stop func()
		base, stop, err = server.ServeTransport(srv, *tsport)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(out, "hetmemd: listening on %s\n", base)
	}

	stats, err := server.LoadTest(ctx, base, server.LoadOptions{
		Clients:           *clients,
		RequestsPerClient: *requests,
		MaxLive:           *maxLive,
		MaxSizeBytes:      *maxSize,
		Seed:              *seed,
	})
	fmt.Fprintf(out, "hetmemd: loadtest %s\n", stats)
	if err != nil {
		return err
	}
	if *verify {
		desc, err := server.VerifyConsistency(ctx, base)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "hetmemd: books %s\n", desc)
	}
	return nil
}
