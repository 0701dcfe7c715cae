package main

// The cluster-mode subcommands: `hetmemd router` fronts a fleet of
// running daemons with the placement router, and `hetmemd loadtest
// -cluster` boots an in-process heterogeneous fleet (router plus four
// simulated platforms) to exercise the federation path.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hetmem/internal/cluster"
	"hetmem/internal/server"
)

// memberFlags parses repeated -member name=url flags.
type memberFlags []cluster.MemberSpec

func (f *memberFlags) String() string {
	parts := make([]string, len(*f))
	for i, m := range *f {
		parts[i] = m.Name + "=" + m.URL
	}
	return strings.Join(parts, ",")
}

func (f *memberFlags) Set(s string) error {
	name, url, ok := strings.Cut(s, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", s)
	}
	*f = append(*f, cluster.MemberSpec{Name: name, URL: url})
	return nil
}

func runRouter(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hetmemd router", flag.ContinueOnError)
	fs.SetOutput(out)
	var members memberFlags
	fs.Var(&members, "member", "cluster member as name=url (repeat per daemon); the name is the rendezvous identity")
	var (
		addr         = fs.String("addr", "127.0.0.1:7078", "router listen address")
		udsPath      = fs.String("uds", "", "also serve the binary wire protocol on this unix socket path (empty: disabled)")
		tcpBin       = fs.String("tcp-bin", "", "also serve the binary wire protocol on this TCP address (empty: disabled)")
		journal      = fs.String("journal", "", "router lease-journal path (empty: routed leases do not survive router restarts)")
		syncJ        = fs.Bool("journal-sync", false, "ack a routed lease only once its record is on stable storage (needs -journal)")
		pollEvery    = fs.Duration("poll-interval", 500*time.Millisecond, "member health-poll period")
		offlineAfter = fs.Int("offline-after", 2, "consecutive failed polls before a member is offline and its leases evacuate")
		retryAfter   = fs.Int("retry-after", 1, "Retry-After hint (seconds) on 503 responses")
		probeTO      = fs.Duration("probe-timeout", cluster.DefaultProbeTimeout, "deadline on each member health probe")
		evacTO       = fs.Duration("evac-timeout", cluster.DefaultEvacTimeout, "deadline on each evacuation alloc (pending-free drains use half)")
		forwardTO    = fs.Duration("forward-timeout", cluster.DefaultForwardTimeout, "per-call deadline on forwarded member requests without an inbound deadline")
		maxInflight  = fs.Int("max-inflight", cluster.DefaultMaxInFlightPerMember, "concurrent forwarded calls per member before fast 503s (negative: unbounded)")
		hedgeDelay   = fs.Duration("hedge-delay", cluster.DefaultHedgeDelay, "wait before hedging a second attempt on fan-out reads (negative: no hedging)")
		scrubEvery   = fs.Duration("scrub-interval", 0, "anti-entropy scrub period diffing the lease books against every member (0: disabled)")
		scrubBudget  = fs.Uint64("scrub-budget", 0, "bytes re-placed per scrub cycle (0: 256 MiB)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(members) == 0 {
		return errors.New("router needs at least one -member name=url")
	}
	cfg := cluster.Config{
		Members:              members,
		JournalPath:          *journal,
		GroupCommit:          *syncJ,
		PollInterval:         *pollEvery,
		OfflineAfter:         *offlineAfter,
		RetryAfterSeconds:    *retryAfter,
		ProbeTimeout:         *probeTO,
		EvacTimeout:          *evacTO,
		ForwardTimeout:       *forwardTO,
		MaxInFlightPerMember: *maxInflight,
		HedgeDelay:           *hedgeDelay,
		ScrubInterval:        *scrubEvery,
		ScrubBudgetBytes:     *scrubBudget,
	}
	if err := validateRouterConfig(cfg); err != nil {
		return err
	}
	return routerUntilSignal(serveAddrs{http: *addr, uds: *udsPath, tcpBin: *tcpBin}, cfg, out)
}

// validateRouterConfig front-runs cluster.New with flag-named errors,
// the router twin of validateServeConfig.
func validateRouterConfig(cfg cluster.Config) error {
	if cfg.GroupCommit && cfg.JournalPath == "" {
		return fmt.Errorf("-journal-sync needs -journal: there is nothing to sync without a WAL")
	}
	if cfg.ProbeTimeout <= 0 {
		return fmt.Errorf("-probe-timeout must be positive, got %v", cfg.ProbeTimeout)
	}
	if cfg.EvacTimeout <= 0 {
		return fmt.Errorf("-evac-timeout must be positive, got %v", cfg.EvacTimeout)
	}
	if cfg.ForwardTimeout <= 0 {
		return fmt.Errorf("-forward-timeout must be positive, got %v", cfg.ForwardTimeout)
	}
	if cfg.ScrubInterval < 0 {
		return fmt.Errorf("-scrub-interval must not be negative, got %v", cfg.ScrubInterval)
	}
	if cfg.ScrubInterval > 0 && cfg.ScrubInterval < cfg.ProbeTimeout {
		return fmt.Errorf("-scrub-interval %v must be at least -probe-timeout %v: a scrub cycle lists every member", cfg.ScrubInterval, cfg.ProbeTimeout)
	}
	if cfg.PollInterval <= 0 {
		return fmt.Errorf("-poll-interval must be positive, got %v", cfg.PollInterval)
	}
	if cfg.OfflineAfter <= 0 {
		return fmt.Errorf("-offline-after must be positive, got %d", cfg.OfflineAfter)
	}
	return nil
}

// routerUntilSignal runs the router until SIGINT/SIGTERM, then drains
// and checkpoints its journal — the cluster twin of serveUntilSignal.
func routerUntilSignal(addrs serveAddrs, cfg cluster.Config, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	r, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	if cfg.JournalPath != "" {
		fmt.Fprintf(out, "hetmemd: router journal %s, %d leases restored\n", cfg.JournalPath, r.LeaseCount())
	}
	ln, err := net.Listen("tcp", addrs.http)
	if err != nil {
		r.Close()
		return err
	}
	fmt.Fprintf(out, "hetmemd: router listening on http://%s (%d members)\n", ln.Addr(), len(cfg.Members))

	stopWire, err := serveWireListeners(wireEndpoints{
		handler: r.WireHandler(),
		metrics: r.Metrics(),
		uds:     addrs.uds,
		tcpBin:  addrs.tcpBin,
	}, out)
	if err != nil {
		ln.Close()
		r.Close()
		return err
	}

	hs := newHTTPServer(r.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		stopWire()
		r.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "hetmemd: router shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	stopWire()
	if err := r.Close(); err != nil {
		return fmt.Errorf("router close: %w", err)
	}
	fmt.Fprintln(out, "hetmemd: router journal flushed, bye")
	return nil
}

// tolerateClusterErrors accepts the failures a member death
// legitimately surfaces mid-run: the retryable member_unavailable
// while keys re-home, and shedding/capacity pressure.
func tolerateClusterErrors(err error) bool {
	return errors.Is(err, server.ErrCodeMemberUnavailable) ||
		errors.Is(err, server.ErrShedding) ||
		errors.Is(err, server.ErrCapacityExhausted)
}

// clusterLoadtestOptions is the -cluster branch of `hetmemd loadtest`.
type clusterLoadtestOptions struct {
	clients   int
	requests  int
	maxLive   int
	maxSize   uint64
	seed      int64
	kill      int // member index to kill mid-run; -1 disables
	killAfter time.Duration
	verify    bool
}

// clusterLoadtest boots the in-process fleet, drives the load through
// the router, injects one member failure mid-run, and proves zero
// lost leases afterwards.
func clusterLoadtest(opts clusterLoadtestOptions, out io.Writer) error {
	sim, err := cluster.StartSim(cluster.SimOptions{Out: out})
	if err != nil {
		return err
	}
	defer sim.Close()
	ctx := context.Background()

	done := make(chan struct{})
	var stats server.LoadStats
	var loadErr error
	go func() {
		defer close(done)
		stats, loadErr = server.LoadTest(ctx, sim.Base, server.LoadOptions{
			Clients:           opts.clients,
			RequestsPerClient: opts.requests,
			MaxLive:           opts.maxLive,
			MaxSizeBytes:      opts.maxSize,
			Seed:              opts.seed,
			Tolerate:          tolerateClusterErrors,
			Retry:             &server.RetryPolicy{MaxAttempts: 6, BaseDelay: 25 * time.Millisecond, MaxDelay: 500 * time.Millisecond},
		})
	}()

	killed := -1
	if opts.kill >= 0 && opts.kill < len(sim.Members) {
		select {
		case <-time.After(opts.killAfter):
			sim.Kill(opts.kill)
			killed = opts.kill
			fmt.Fprintf(out, "hetmemd: killed member %s after %s\n", sim.Members[opts.kill].Name, opts.killAfter)
		case <-done:
			fmt.Fprintln(out, "hetmemd: load finished before the scheduled kill; no failure injected")
		}
	}
	<-done
	fmt.Fprintf(out, "hetmemd: loadtest %s\n", stats)
	if loadErr != nil {
		return loadErr
	}

	if killed >= 0 {
		// Wait for evacuation to settle: nothing may stay homed on the
		// corpse.
		victim := sim.Members[killed].Name
		deadline := time.Now().Add(30 * time.Second)
		for {
			sim.Router.PollOnce(ctx)
			leases, err := sim.Router.Leases(ctx, false)
			if err != nil {
				return err
			}
			if leases.NodeBytes[victim] == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%d bytes still homed on killed member %s after 30s", leases.NodeBytes[victim], victim)
			}
			time.Sleep(100 * time.Millisecond)
		}
		fmt.Fprintf(out, "hetmemd: all leases evacuated off %s\n", victim)
	}

	if opts.verify {
		leases, err := sim.Router.Leases(ctx, false)
		if err != nil {
			return err
		}
		if leases.Count != stats.LeasesLeft {
			return fmt.Errorf("router tracks %d leases, load generator left %d alive — leases lost", leases.Count, stats.LeasesLeft)
		}
		fmt.Fprintf(out, "hetmemd: zero lost leases (%d alive on both sides)\n", leases.Count)
		desc, err := server.VerifyConsistency(ctx, sim.Base)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "hetmemd: books %s\n", desc)
	}
	return nil
}

// flagWasSet reports whether the user passed name explicitly.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
