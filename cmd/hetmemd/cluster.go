package main

// The cluster-mode subcommand: `hetmemd router` fronts a fleet of
// running daemons with the placement router.

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"hetmem/internal/cluster"
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
	r, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	if cfg.JournalPath != "" {
		fmt.Fprintf(out, "hetmemd: router journal %s, %d leases restored\n", cfg.JournalPath, r.LeaseCount())
	}
	return serveUntilSignal(r, serveAddrs{http: *addr, uds: *udsPath, tcpBin: *tcpBin},
		nodeLog{subject: "router ", detail: fmt.Sprintf(" (%d members)", len(cfg.Members)), closeErr: "router close"}, out)
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
