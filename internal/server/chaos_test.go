package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/faults"
	"hetmem/internal/server"
)

// TestChaosUnderLoad is the headline robustness test: 32 concurrent
// clients allocate, free, and migrate while a seeded fault plan kills
// and restarts nodes, degrades tiers, shrinks capacity, and trips
// transient faults. The run must end with every node healthy and the
// books balanced, and a daemon restarted from the journal must rebuild
// the per-node byte accounting exactly. Run with -race.
func TestChaosUnderLoad(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal")
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	rep, err := chaosRun(ctx, sys, chaosOptions{
		Seed:         7,
		Steps:        24,
		StepInterval: 2 * time.Millisecond,
		Load: server.LoadOptions{
			Clients:           32,
			RequestsPerClient: 20,
			MaxSizeBytes:      16 << 20,
		},
		Server: server.Config{JournalPath: path, ShedWatermark: 0.9},
	})
	if err != nil {
		t.Fatalf("%v (load %s)", err, rep.Load)
	}
	if rep.FaultEvents == 0 {
		t.Fatal("plan injected no faults")
	}
	if rep.Load.Allocs == 0 || rep.Load.Frees == 0 {
		t.Fatalf("load did no work: %s", rep.Load)
	}
	t.Logf("chaos: %d fault events, load %s, %s", rep.FaultEvents, rep.Load, rep.Consistency)

	// Restart from the journal with a fresh machine: the lease count
	// and every node's bytes must come back byte-for-byte.
	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.NewWithConfig(sys2, server.Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got, want := srv2.LeaseCount(), int(rep.Metrics["hetmemd_leases_active"]); got != want {
		t.Fatalf("restarted lease count %d, pre-shutdown %d", got, want)
	}
	for _, n := range sys2.Machine.Nodes() {
		key := fmt.Sprintf("hetmemd_node_bytes_in_use{node=%q}", fmt.Sprintf("%s#%d", n.Kind(), n.OSIndex()))
		if got, want := float64(n.Allocated()), rep.Metrics[key]; got != want {
			t.Errorf("node %s#%d: restarted %v bytes, pre-shutdown %v", n.Kind(), n.OSIndex(), got, want)
		}
	}
}

// TestChaosSeedsAreDeterministic runs a small plan twice and expects
// the same fault sequence both times (the load is timing-dependent,
// the plan must not be).
func TestChaosSeedsAreDeterministic(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	counts := make([]int, 2)
	for i := range counts {
		sys, err := core.NewSystem("knl-snc4-flat", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := chaosRun(ctx, sys, chaosOptions{
			Seed:         3,
			Steps:        10,
			StepInterval: time.Millisecond,
			Load:         server.LoadOptions{Clients: 4, RequestsPerClient: 10, MaxSizeBytes: 8 << 20},
		})
		if err != nil {
			t.Fatalf("run %d: %v (load %s)", i, err, rep.Load)
		}
		counts[i] = rep.FaultEvents
	}
	if counts[0] != counts[1] {
		t.Fatalf("same seed injected %d then %d fault events", counts[0], counts[1])
	}
}

// chaosOptions configures a chaosRun.
type chaosOptions struct {
	// Seed drives both the fault plan and the client traffic mix.
	Seed int64
	// Steps is the number of fault steps in the plan.
	Steps int
	// StepInterval is the pause between fault steps, so client traffic
	// interleaves with the faults.
	StepInterval time.Duration
	// Load shapes the client traffic (Tolerate and Retry are set by the
	// harness).
	Load server.LoadOptions
	// Server configures the daemon under test; set JournalPath to make
	// the run durable.
	Server server.Config
}

// chaosReport is the outcome of a chaosRun.
type chaosReport struct {
	Load        server.LoadStats
	FaultEvents int
	// Consistency is server.VerifyConsistency's description of the final
	// state.
	Consistency string
	// Metrics is the final parsed /metrics snapshot.
	Metrics map[string]float64
}

// tolerateDegraded accepts the errors a correctly degrading daemon is
// allowed to return while faults are active: 503 (shedding, offline,
// transient) and 507 (capacity shrunk under the workload). Anything
// else — 500s, bad JSON, accounting errors — still fails the run.
func tolerateDegraded(err error) bool {
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode == http.StatusServiceUnavailable ||
			apiErr.StatusCode == http.StatusInsufficientStorage
	}
	return false
}

// chaosRun boots a daemon on a loopback listener, drives concurrent
// client load against it while a seeded fault plan kills, degrades,
// shrinks, and trips the machine's nodes, heals everything, and then
// audits the daemon's books: the lease table, /metrics per-node bytes,
// and (when a journal is configured) the journaled state must all
// agree.
func chaosRun(ctx context.Context, sys *core.System, opts chaosOptions) (chaosReport, error) {
	var rep chaosReport
	srv, err := server.NewWithConfig(sys, opts.Server)
	if err != nil {
		return rep, err
	}
	defer srv.Close()

	base, stop, err := server.ServeTransport(srv, "http")
	if err != nil {
		return rep, err
	}
	defer stop()

	injector := faults.NewInjector(faults.NewMachineTarget(sys.Machine))
	injector.Subscribe(srv.ApplyFault)

	var nodeOS []int
	caps := map[int]uint64{}
	for _, n := range sys.Machine.Nodes() {
		nodeOS = append(nodeOS, n.OSIndex())
		caps[n.OSIndex()] = n.Capacity()
	}
	plan := faults.RandomPlan(opts.Seed, opts.Steps, nodeOS, faults.RandomOptions{Capacities: caps})

	load := opts.Load
	load.Seed = opts.Seed
	load.Tolerate = tolerateDegraded

	// Faults and load run concurrently; the plan's built-in heal step
	// runs last, so the daemon always finishes the run nominal.
	faultErr := make(chan error, 1)
	go func() {
		defer close(faultErr)
		for step := 0; step <= plan.Steps(); step++ {
			select {
			case <-ctx.Done():
				// Heal before bailing so the audit below still runs
				// against a nominal machine.
				if err := injector.HealAll(); err != nil {
					faultErr <- err
				}
				return
			case <-time.After(opts.StepInterval):
			}
			for _, ev := range plan.StepEvents(step) {
				if err := injector.Apply(ev); err != nil {
					faultErr <- err
					return
				}
			}
		}
	}()

	stats, loadErr := server.LoadTest(ctx, base, load)
	rep.Load = stats
	if err := <-faultErr; err != nil {
		return rep, fmt.Errorf("server: fault injection failed: %w", err)
	}
	rep.FaultEvents = len(injector.Log())
	if loadErr != nil {
		return rep, loadErr
	}

	// The plan healed the machine; every node must have found its way
	// back to healthy through the daemon's state machine.
	auditCtx := context.Background()
	cl := server.NewClient(base)
	health, err := cl.Health(auditCtx)
	if err != nil {
		return rep, err
	}
	for _, n := range health.Nodes {
		if n.State != server.Healthy.String() {
			return rep, fmt.Errorf("server: node %s still %s after heal", n.Node, n.State)
		}
	}

	desc, err := server.VerifyConsistency(auditCtx, base)
	if err != nil {
		return rep, err
	}
	rep.Consistency = desc
	rep.Metrics, err = cl.Metrics(auditCtx)
	if err != nil {
		return rep, err
	}
	return rep, nil
}
