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
//	hetmemd loadtest -cluster                  # 1000 clients across a 4-daemon fleet, one member killed mid-run
//	hetmemd bench -cluster                     # router-vs-single-daemon benchmark (BENCH_cluster.json)
//	hetmemd chaostest -steps 60                # fault-inject a daemon under load
//	hetmemd reapstress -ttl 1s                 # orphan-reaper acceptance run
//	hetmemd tenantstress                       # multi-tenant QoS isolation run (TENANT_report.json)
//	hetmemd platforms                          # list available platforms
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the -pprof-addr side listener
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"

	"hetmem/internal/cluster"
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
		return fmt.Errorf("usage: hetmemd <serve|router|loadtest|chaostest|reapstress|tenantstress|bench|platforms> [flags] (-h for flags)")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:], out)
	case "router":
		return runRouter(args[1:], out)
	case "loadtest":
		return runLoadtest(args[1:], out)
	case "chaostest":
		return runChaostest(args[1:], out)
	case "reapstress":
		return runReapstress(args[1:], out)
	case "tenantstress":
		return runTenantstress(args[1:], out)
	case "bench":
		return runBench(args[1:], out)
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
		return fmt.Errorf("unknown subcommand %q (want serve, router, loadtest, chaostest, reapstress, tenantstress, bench, or platforms)", args[0])
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
// connections open forever.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// startServer binds the daemon to addr and serves it in the
// background; the returned base URL is ready for clients, and stop
// shuts the listener and daemon down.
func startServer(addr, platName string, forceBench bool, out io.Writer) (base string, stop func(), err error) {
	srv, err := buildServer(platName, forceBench, server.Config{}, out)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	base = "http://" + ln.Addr().String()
	fmt.Fprintf(out, "hetmemd: listening on %s\n", base)
	hs := newHTTPServer(srv.Handler())
	go hs.Serve(ln)
	return base, func() { hs.Close(); srv.Close() }, nil
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
		syncEvery  = fs.Bool("journal-sync", false, "fsync the journal after every record")
		groupC     = fs.Bool("group-commit", false, "coalesce concurrent journal appends into one fsync (needs -journal)")
		groupBatch = fs.Int("group-commit-batch", 0, "max records per coalesced fsync (0: 64)")
		noCache    = fs.Bool("no-candidate-cache", false, "disable the ranked-candidate cache (re-rank every placement)")
		replayW    = fs.Int("replay-workers", 0, "journal-replay parallelism on startup (0: GOMAXPROCS, 1: sequential)")
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
		JournalPath:           *journal,
		SyncEveryAppend:       *syncEvery,
		GroupCommit:           *groupC,
		GroupCommitBatch:      *groupBatch,
		DisableCandidateCache: *noCache,
		ReplayWorkers:         *replayW,
		ShedWatermark:         *shed,
		DefaultLeaseTTL:       *leaseTTL,
		MaxLeaseTTL:           *maxTTL,
		ReapInterval:          *reapEvery,
		CheckpointEvery:       *ckptEvery,
		CheckpointMaxWAL:      *ckptBytes,
		RebalanceInterval:     *rebalEvery,
		RebalanceBudget:       *rebalBytes,
		TenantsPath:           *tenants,
		QueueDepth:            *queueDepth,
		QueueTimeout:          *queueWaitT,
		GuaranteedHeadroom:    *headroom,
		AdvisorInterval:       *advEvery,
		AdvisorHysteresis:     *advHyst,
		AdvisorCooldown:       *advCool,
	}
	if *noAdvisor {
		cfg.AdvisorInterval = 0
	}
	if err := validateServeConfig(cfg); err != nil {
		return err
	}
	return serveUntilSignal(serveAddrs{http: *addr, uds: *udsPath, tcpBin: *tcpBin, pprof: *pprofAddr},
		*platName, *forceBench, cfg, out)
}

// serveAddrs is where one daemon listens: the HTTP surface plus the
// optional binary-protocol and pprof side listeners.
type serveAddrs struct {
	http   string
	uds    string // unix socket path for the wire protocol
	tcpBin string // TCP address for the wire protocol
	pprof  string
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
		return fmt.Errorf("-group-commit needs -journal: there is nothing to commit without a WAL")
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

// serveUntilSignal runs the daemon until SIGINT/SIGTERM, then shuts
// down gracefully: in-flight requests drain and the journal flushes.
func serveUntilSignal(addrs serveAddrs, platName string, forceBench bool, cfg server.Config, out io.Writer) error {
	// Register for signals before announcing the listener, so anything
	// that saw "listening" can already shut us down cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	srv, err := buildServer(platName, forceBench, cfg, out)
	if err != nil {
		return err
	}
	if addrs.pprof != "" {
		// The profiler gets its own listener so the API surface stays
		// clean: net/http/pprof registers on the default mux, which the
		// daemon's handler never serves.
		pln, err := net.Listen("tcp", addrs.pprof)
		if err != nil {
			srv.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		fmt.Fprintf(out, "hetmemd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go http.Serve(pln, nil)
	}
	ln, err := net.Listen("tcp", addrs.http)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(out, "hetmemd: listening on http://%s\n", ln.Addr())

	stopWire, err := serveWireListeners(wireEndpoints{
		handler: srv.WireHandler(),
		metrics: srv.Metrics(),
		uds:     addrs.uds,
		tcpBin:  addrs.tcpBin,
	}, out)
	if err != nil {
		ln.Close()
		srv.Close()
		return err
	}

	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		stopWire()
		srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "hetmemd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	stopWire()
	if err := srv.Close(); err != nil {
		return fmt.Errorf("journal close: %w", err)
	}
	fmt.Fprintln(out, "hetmemd: journal flushed, bye")
	return nil
}

// wireEndpoints is a node's binary-protocol serving configuration:
// the dispatcher, the metrics its listeners feed, and where to bind.
// Both the daemon and the cluster router serve the wire protocol
// through it.
type wireEndpoints struct {
	handler wire.Handler
	metrics *server.Metrics
	uds     string
	tcpBin  string
}

// serveWireListeners binds the requested binary-protocol listeners
// and serves them in the background; the returned stop closes them
// (and removes the socket file). With neither address set it is a
// no-op.
func serveWireListeners(eps wireEndpoints, out io.Writer) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for _, s := range stops {
			s()
		}
	}
	if eps.uds != "" {
		// A socket file left by a crashed daemon would fail the bind;
		// the daemon owns its path, so a stale file is removed, not
		// reported.
		os.Remove(eps.uds)
		uln, err := net.Listen("unix", eps.uds)
		if err != nil {
			return nil, fmt.Errorf("wire uds listener: %w", err)
		}
		ws := wire.NewServer(eps.handler, eps.metrics.TransportStats(server.TransportUDS))
		go ws.Serve(uln)
		fmt.Fprintf(out, "hetmemd: wire listening on unix://%s\n", eps.uds)
		path := eps.uds
		stops = append(stops, func() { ws.Close(); os.Remove(path) })
	}
	if eps.tcpBin != "" {
		bln, err := net.Listen("tcp", eps.tcpBin)
		if err != nil {
			stop()
			return nil, fmt.Errorf("wire tcp listener: %w", err)
		}
		ws := wire.NewServer(eps.handler, eps.metrics.TransportStats(server.TransportTCPBin))
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
		clust    = fs.Bool("cluster", false, "boot a 4-daemon fleet behind a router and load-test through it (defaults scale to 1000 clients)")
		kill     = fs.Int("kill", 1, "with -cluster: member index to kill mid-run (-1: no failure injection)")
		killWait = fs.Duration("kill-after", 2*time.Second, "with -cluster: how far into the run the kill lands")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clust {
		// Cluster mode scales the defaults to the acceptance shape:
		// 1000+ concurrent clients across the 4-daemon fleet, sized so
		// the fleet never runs out of room. Explicit flags still win.
		if !flagWasSet(fs, "clients") {
			*clients = 1000
		}
		if !flagWasSet(fs, "requests") {
			*requests = 20
		}
		if !flagWasSet(fs, "live") {
			*maxLive = 4
		}
		if !flagWasSet(fs, "maxsize") {
			*maxSize = 8 << 20
		}
		return clusterLoadtest(clusterLoadtestOptions{
			clients:   *clients,
			requests:  *requests,
			maxLive:   *maxLive,
			maxSize:   *maxSize,
			seed:      *seed,
			kill:      *kill,
			killAfter: *killWait,
			verify:    *verify,
		}, out)
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

// runBench is the fast-path acceptance measurement: the same
// alloc/free load against the durable daemon in its pre-fast-path
// configuration (fsync per record, no candidate cache), the fast path
// (group commit + cache on the zero-allocation hot path), and the
// batched endpoint — then the restart-time benchmark
// (sequential vs parallel journal replay). Results land in a JSON
// artifact (BENCH_alloc.json) for CI to archive.
func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hetmemd bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		platName    = fs.String("p", "xeon", "platform for the daemon under test")
		clients     = fs.Int("clients", 32, "concurrent client goroutines")
		requests    = fs.Int("requests", 200, "allocations per client")
		size        = fs.Uint64("size", 1<<20, "bytes per allocation")
		batch       = fs.Int("batch", 16, "items per /v1/alloc/batch round trip in the batch run (0: skip)")
		trials      = fs.Int("trials", 3, "interleaved trials per configuration; the median throughput is reported")
		restartRecs = fs.Int("restart-records", 120000, "journal records for the restart-time benchmark (0: skip)")
		outPath     = fs.String("out", "BENCH_alloc.json", "JSON artifact path (empty: stdout only)")
		restartPath = fs.String("restart-out", "BENCH_restart.json", "restart benchmark artifact path (empty: embed in -out only)")
		clust       = fs.Bool("cluster", false, "benchmark the cluster router path against a single daemon instead of the fast-path A/B")
		clustPath   = fs.String("cluster-out", "BENCH_cluster.json", "with -cluster: JSON artifact path (empty: stdout only)")
		adv         = fs.Bool("advisor", false, "benchmark the tiering advisor: phased workload with the advisor on vs off")
		advPath     = fs.String("advisor-out", "BENCH_advisor.json", "with -advisor: JSON artifact path (empty: stdout only)")
		advPhases   = fs.Int("advisor-phases", 8, "with -advisor: pointer-chase phases per run")
		noWire      = fs.Bool("no-wire", false, "skip the transport-comparison runs (http vs uds vs tcp-bin) and their acceptance gates")
		wireClients = fs.Int("wire-clients", 4, "concurrent clients for the transport-comparison runs (low on purpose: they measure per-request latency, not saturation)")
		basePath    = fs.String("baseline", "", "prior BENCH_alloc.json to gate the transport runs against (empty: read -out before overwriting it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clust {
		return clusterBench(*clients, *requests, *size, *clustPath, out)
	}
	if *adv {
		return advisorBench(*platName, *advPhases, *advPath, out)
	}
	dir, err := os.MkdirTemp("", "hetmemd-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The bench process hosts daemon and clients together, so GC runs
	// steal cycles from both sides of every configuration equally; a
	// laxer GC target keeps the measurement about the request path.
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	ctx := context.Background()
	runs := []struct {
		name string
		opts server.BenchOptions
	}{
		{"baseline", server.BenchOptions{Server: server.Config{
			JournalPath:           filepath.Join(dir, "baseline.wal"),
			SyncEveryAppend:       true,
			DisableCandidateCache: true,
		}}},
		// "fast" is the default daemon: group commit, candidate cache and
		// the pooled zero-allocation hot path.
		{"fast", server.BenchOptions{Server: server.Config{
			JournalPath: filepath.Join(dir, "fast.wal"),
			GroupCommit: true,
		}}},
	}
	if *batch > 1 {
		runs = append(runs, struct {
			name string
			opts server.BenchOptions
		}{"fast_batch", server.BenchOptions{Batch: *batch, Server: server.Config{
			JournalPath: filepath.Join(dir, "batch.wal"),
			GroupCommit: true,
		}}})
	}
	if !*noWire {
		// The transport trio: the same single-item workload over HTTP,
		// the unix-socket wire protocol, and multiplexed binary TCP —
		// journal off and few clients, so the numbers are per-request
		// transport cost, not fsync queueing. wire_http is the
		// like-for-like control for the two binary rows.
		for _, t := range []struct{ name, transport string }{
			{"wire_http", "http"}, {"wire_uds", "uds"}, {"wire_tcpbin", "tcp-bin"},
		} {
			runs = append(runs, struct {
				name string
				opts server.BenchOptions
			}{t.name, server.BenchOptions{Transport: t.transport, Clients: *wireClients}})
		}
	}
	// The gates compare against the last recorded report; read it
	// before -out overwrites it.
	prior := readPriorBench(*basePath, *outPath)

	report := server.BenchReport{
		Benchmark: "server_alloc",
		Platform:  *platName,
		Clients:   *clients,
	}
	if *trials < 1 {
		*trials = 1
	}
	// Interleave the trials (baseline, fast, ... then again) instead of
	// running each configuration back to back, so slow-disk phases and
	// page-cache warmth spread evenly across configurations; the median
	// trial per configuration is what lands in the report.
	samples := make([][]server.BenchResult, len(runs))
	for trial := 0; trial < *trials; trial++ {
		for i, r := range runs {
			r.opts.Platform = *platName
			if r.opts.Clients == 0 {
				r.opts.Clients = *clients
			}
			r.opts.Requests = *requests
			r.opts.SizeBytes = *size
			res, err := server.RunAllocBench(ctx, r.name, r.opts)
			if err != nil {
				return fmt.Errorf("bench %s: %w", r.name, err)
			}
			samples[i] = append(samples[i], res)
		}
	}
	for _, trials := range samples {
		res := server.MedianResult(trials)
		fmt.Fprintf(out, "hetmemd: bench %s\n", res)
		report.Results = append(report.Results, res)
	}
	if len(report.Results) >= 2 {
		report.Speedup = report.Results[1].AllocsPerSec / report.Results[0].AllocsPerSec
		fmt.Fprintf(out, "hetmemd: bench fast/baseline speedup %.2fx\n", report.Speedup)
	}
	if *restartRecs > 0 {
		res, err := server.RunRestartBench(server.RestartBenchOptions{
			Records: *restartRecs,
			Trials:  *trials,
		})
		if err != nil {
			return fmt.Errorf("bench restart: %w", err)
		}
		fmt.Fprintf(out, "hetmemd: bench %s\n", res)
		report.Restart = &res
		if *restartPath != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*restartPath, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "hetmemd: restart benchmark written to %s\n", *restartPath)
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "hetmemd: bench report written to %s\n", *outPath)
	}
	if !*noWire {
		// Gate after writing the artifact, so a failed gate still
		// leaves the numbers behind for inspection.
		return wireGates(report, prior, out)
	}
	return nil
}

// readPriorBench loads the last recorded BENCH_alloc.json (explicit
// path, else the -out path before it is overwritten); nil when there
// is none or it does not parse — first runs gate only on the absolute
// targets.
func readPriorBench(basePath, outPath string) *server.BenchReport {
	if basePath == "" {
		basePath = outPath
	}
	if basePath == "" {
		return nil
	}
	data, err := os.ReadFile(basePath)
	if err != nil {
		return nil
	}
	var p server.BenchReport
	if json.Unmarshal(data, &p) != nil {
		return nil
	}
	return &p
}

// wireGates enforces the binary-transport acceptance bars on a bench
// report: the UDS wire path must hold a sub-100µs single-item p50,
// beat the recorded single-item HTTP fast path (the committed
// fast row) by 10x in allocs/sec, and not regress its own
// recorded p50 by more than 25%. CI greps for the PASS line.
func wireGates(report server.BenchReport, prior *server.BenchReport, out io.Writer) error {
	find := func(rs []server.BenchResult, name string) *server.BenchResult {
		for i := range rs {
			if rs[i].Name == name {
				return &rs[i]
			}
		}
		return nil
	}
	uds := find(report.Results, "wire_uds")
	if uds == nil {
		return fmt.Errorf("wire gate: no wire_uds result in the report")
	}
	if uds.P50Micros >= 100 {
		return fmt.Errorf("wire gate: uds single-item p50 %.0fµs misses the 100µs target", uds.P50Micros)
	}
	if prior != nil {
		if base := find(prior.Results, "fast"); base != nil && base.AllocsPerSec > 0 {
			speedup := uds.AllocsPerSec / base.AllocsPerSec
			fmt.Fprintf(out, "hetmemd: bench wire_uds vs recorded single-item fast path: %.1fx\n", speedup)
			if speedup < 10 {
				return fmt.Errorf("wire gate: uds %.0f allocs/s is %.1fx the recorded single-item fast path (%.0f allocs/s); the bar is 10x",
					uds.AllocsPerSec, speedup, base.AllocsPerSec)
			}
		}
		if pu := find(prior.Results, "wire_uds"); pu != nil && pu.P50Micros > 0 && uds.P50Micros > 1.25*pu.P50Micros {
			return fmt.Errorf("wire gate: uds p50 %.0fµs regressed more than 25%% against the recorded %.0fµs",
				uds.P50Micros, pu.P50Micros)
		}
	}
	fmt.Fprintf(out, "hetmemd: wire transports PASS (uds %.0f allocs/s, p50 %.0fµs)\n", uds.AllocsPerSec, uds.P50Micros)
	return nil
}

// advisorBench runs the phased-workload advisor A/B (see
// server.RunAdvisorBench) and writes the BENCH_advisor.json artifact.
func advisorBench(platName string, phases int, outPath string, out io.Writer) error {
	report, err := server.RunAdvisorBench(server.AdvisorBenchOptions{
		Platform: platName,
		Phases:   phases,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "hetmemd: bench advisor on:  %.2f s simulated, %d move(s), final placement %s\n",
		report.WithAdvisor.ElapsedSeconds, report.WithAdvisor.Moves, report.WithAdvisor.Placement)
	fmt.Fprintf(out, "hetmemd: bench advisor off: %.2f s simulated, final placement %s\n",
		report.Without.ElapsedSeconds, report.Without.Placement)
	fmt.Fprintf(out, "hetmemd: bench advisor speedup %.2fx\n", report.Speedup)
	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "hetmemd: advisor benchmark written to %s\n", outPath)
	}
	// The acceptance floor: the advisor must win by enough to have
	// clearly paid for its migrations in simulated time.
	if report.Speedup < 1.15 {
		return fmt.Errorf("advisor speedup %.2fx below the 1.15x acceptance floor", report.Speedup)
	}
	return nil
}

func runReapstress(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hetmemd reapstress", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		platName = fs.String("p", "xeon", "platform for the daemon under test")
		ttl      = fs.Duration("ttl", time.Second, "lease TTL requested by every client")
		reap     = fs.Duration("reap-interval", 0, "daemon reaper interval (0: ttl/4)")
		crashers = fs.Int("crashers", 16, "clients that allocate and vanish")
		holders  = fs.Int("holders", 8, "clients that allocate and keep heartbeating")
		size     = fs.Uint64("size", 1<<20, "bytes per lease")
		timeout  = fs.Duration("timeout", 2*time.Minute, "overall run timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ri := *reap
	if ri == 0 {
		ri = *ttl / 4
	}
	sys, err := core.NewSystem(*platName, core.Options{})
	if err != nil {
		return err
	}
	srv, err := server.NewWithConfig(sys, server.Config{
		DefaultLeaseTTL: *ttl,
		MinLeaseTTL:     ri,
		ReapInterval:    ri,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler())
	go hs.Serve(ln)
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rep, err := server.ReapStress(ctx, "http://"+ln.Addr().String(), server.ReapStressOptions{
		Crashers:  *crashers,
		Holders:   *holders,
		LeaseTTL:  *ttl,
		SizeBytes: *size,
	})
	fmt.Fprintf(out, "hetmemd: reapstress %s\n", rep)
	return err
}

func runTenantstress(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hetmemd tenantstress", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		noiseClients = fs.Int("noise-clients", 8, "greedy best-effort client goroutines")
		noiseAllocs  = fs.Int("noise-allocs", 400, "max allocations per noise client (saturation backstop)")
		noiseSize    = fs.Uint64("noise-size", 64<<20, "bytes per noise allocation")
		goldAllocs   = fs.Int("gold-allocs", 100, "guaranteed-tenant probe allocations per phase")
		goldSize     = fs.Uint64("gold-size", 8<<20, "bytes per guaranteed probe")
		floor        = fs.Duration("baseline-floor", 25*time.Millisecond, "minimum baseline p99 the 2x isolation bar is computed from")
		timeout      = fs.Duration("timeout", 3*time.Minute, "overall run timeout")
		outPath      = fs.String("report", "TENANT_report.json", "JSON report artifact path (empty: stdout only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "hetmemd-tenantstress-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rep, err := cluster.TenantStress(ctx, cluster.TenantStressOptions{
		JournalDir:     dir,
		NoiseClients:   *noiseClients,
		NoiseMaxAllocs: *noiseAllocs,
		NoiseSizeBytes: *noiseSize,
		GoldAllocs:     *goldAllocs,
		GoldSizeBytes:  *goldSize,
		BaselineFloor:  *floor,
	}, out)
	if *outPath != "" {
		if werr := cluster.WriteTenantStressReport(rep, *outPath); werr != nil && err == nil {
			err = werr
		} else if werr == nil {
			fmt.Fprintf(out, "hetmemd: tenant isolation report written to %s\n", *outPath)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "hetmemd: tenantstress PASS: gold p99 %.2fms under load (bar %.2fms), %d/%d gold leases intact, 0 sheds/evictions\n",
		rep.LoadedP99Ms, rep.P99BarMs, rep.GoldLeases-rep.GoldLost, rep.GoldLeases)
	return nil
}

func runChaostest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hetmemd chaostest", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		platName    = fs.String("p", "xeon", "platform for the daemon under test")
		seed        = fs.Int64("seed", 1, "seed for the fault plan and traffic mix")
		steps       = fs.Int("steps", 40, "fault steps in the plan")
		interval    = fs.Duration("interval", 10*time.Millisecond, "pause between fault steps")
		clients     = fs.Int("clients", 16, "concurrent client goroutines")
		requests    = fs.Int("requests", 50, "operations per client")
		journal     = fs.String("journal", "", "journal path for the daemon under test (empty: none)")
		shed        = fs.Float64("shed", 0.95, "admission-control watermark")
		timeout     = fs.Duration("timeout", 2*time.Minute, "overall run timeout")
		clusterMode = fs.Bool("cluster", false, "chaos-test the in-process cluster: network faults on every router->member link, a wiped-journal member restart mid-load, then anti-entropy scrub convergence")
		netFaults   = fs.Bool("netfaults", true, "with -cluster: inject the seeded network-fault plan (false: restart-only run)")
		netSeed     = fs.Int64("net-seed", 1, "with -cluster: seed for the network-fault plan; the same seed replays the same schedule")
		restart     = fs.Int("restart", 1, "with -cluster: member index restarted with a wiped journal mid-run (negative: nobody)")
		scrubOut    = fs.String("scrub-report", "", "with -cluster: write the per-cycle scrub report JSON to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clusterMode {
		return clusterChaostest(clusterChaostestOptions{
			seed: *seed, netSeed: *netSeed, steps: *steps, interval: *interval,
			clients: *clients, requests: *requests, restart: *restart,
			netFaults: *netFaults, timeout: *timeout, scrubReport: *scrubOut,
		}, out)
	}
	sys, err := core.NewSystem(*platName, core.Options{})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rep, err := server.ChaosRun(ctx, sys, server.ChaosOptions{
		Seed:         *seed,
		Steps:        *steps,
		StepInterval: *interval,
		Load: server.LoadOptions{
			Clients:           *clients,
			RequestsPerClient: *requests,
		},
		Server: server.Config{JournalPath: *journal, ShedWatermark: *shed},
	})
	fmt.Fprintf(out, "hetmemd: chaos load %s\n", rep.Load)
	fmt.Fprintf(out, "hetmemd: %d fault events injected\n", rep.FaultEvents)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "hetmemd: auto-migrated %.0f leases off dying nodes (%.0f stranded), shed %.0f allocs, %.0f health transitions\n",
		server.SumSeries(rep.Metrics, "hetmemd_auto_migrate_total"),
		server.SumSeries(rep.Metrics, "hetmemd_auto_migrate_failed_total"),
		server.SumSeries(rep.Metrics, "hetmemd_shed_total"),
		server.SumSeries(rep.Metrics, "hetmemd_health_transitions_total"))
	fmt.Fprintf(out, "hetmemd: books %s\n", rep.Consistency)
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("chaostest timed out after %s", *timeout)
	}
	return nil
}
