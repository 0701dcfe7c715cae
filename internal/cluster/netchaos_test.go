package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetmem/internal/netfaults"
	"hetmem/internal/server"
)

// The partition-tolerance properties. These tests drive the chaos
// proxies and the anti-entropy scrubber deterministically: divergence
// is either injected by hand (so each repair class is provoked
// exactly once) or created by an asymmetric partition plus a
// wiped-journal restart under live load, and in both cases the
// scrubber must converge the books in a bounded number of cycles.

// memberBooks lists every member's own lease table, keyed by name.
func memberBooks(t *testing.T, ctx context.Context, sim *Sim) map[string]server.LeasesResponse {
	t.Helper()
	out := make(map[string]server.LeasesResponse, len(sim.Members))
	for _, m := range sim.Members {
		mcl := server.NewClient(m.URL, server.WithoutHeartbeat())
		ml, err := mcl.Leases(ctx, true)
		mcl.Close()
		if err != nil {
			t.Fatalf("member %s leases: %v", m.Name, err)
		}
		out[m.Name] = ml
	}
	return out
}

// requireBooksConverged proves fleet-wide agreement: the router's own
// books pass the daemon consistency check, every member's byte total
// matches the router's claim for it, and the member lease-set sizes
// sum to the router's lease count (no copy exists that the router
// does not map — no double-homed bytes).
func requireBooksConverged(t *testing.T, ctx context.Context, sim *Sim) {
	t.Helper()
	if _, err := server.VerifyConsistency(ctx, sim.Base); err != nil {
		t.Fatalf("router books inconsistent: %v", err)
	}
	leases, err := sim.Router.Leases(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	books := memberBooks(t, ctx, sim)
	total := 0
	for name, ml := range books {
		if ml.Bytes != leases.NodeBytes[name] {
			t.Fatalf("member %s holds %d bytes, router claims %d", name, ml.Bytes, leases.NodeBytes[name])
		}
		total += ml.Count
	}
	if total != leases.Count {
		t.Fatalf("members hold %d leases, router maps %d — orphaned or double-homed copies remain", total, leases.Count)
	}
}

// TestScrubRepairsOrphanAndLostLeases provokes each divergence class
// once, with the health poller parked so the scrubber alone must make
// the repair:
//
//   - an orphan: a lease granted by a member directly, behind the
//     router's back (the shape a crash between member grant and
//     journal append leaves);
//   - lost leases: a member restarted with its state wiped, never
//     noticed by the (parked) poller, so the book still maps leases
//     the member no longer holds.
//
// Cycle 1 must repair every lost lease and put the orphan under
// suspicion; cycle 2 must free the orphan; cycle 3 must be clean.
func TestScrubRepairsOrphanAndLostLeases(t *testing.T) {
	sim := startTestSim(t, SimOptions{
		Router: Config{
			// Park the background poller: the scrubber gets no help.
			PollInterval: time.Hour,
		},
	})
	ctx := context.Background()

	cl := server.NewClient(sim.Base, server.WithoutHeartbeat())
	defer cl.Close()
	for i := 0; i < 12; i++ {
		if _, err := cl.Alloc(ctx, server.AllocRequest{
			Name: fmt.Sprintf("buf-%d", i), Size: 1 << 20, Attr: "Latency",
		}); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	leases, err := sim.Router.Leases(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	lostCount := 0
	r := sim.Router
	r.mu.Lock()
	for _, rl := range r.leases {
		if rl.slot == victim {
			lostCount++
		}
	}
	r.mu.Unlock()
	if lostCount == 0 || lostCount == leases.Count {
		t.Fatalf("rendezvous put %d/%d leases on the victim; the test needs both members populated", lostCount, leases.Count)
	}

	// The orphan: granted by m0 directly, invisible to the router.
	m0 := server.NewClient(sim.Members[0].URL, server.WithoutHeartbeat())
	orphan, err := m0.Alloc(ctx, server.AllocRequest{Name: "orphan", Size: 2 << 20, Attr: "Latency"})
	m0.Close()
	if err != nil {
		t.Fatalf("direct member alloc: %v", err)
	}

	// The loss: the victim reboots with nothing. The parked poller
	// never sees it, so no evacuation fires.
	if err := sim.Restart(victim, true); err != nil {
		t.Fatal(err)
	}

	c1, err := sim.Router.ScrubOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c1.LostRepaired != lostCount || c1.LostFailed != 0 {
		t.Fatalf("cycle 1 repaired %d lost leases (%d failed), want %d repaired: %+v", c1.LostRepaired, c1.LostFailed, lostCount, c1)
	}
	if c1.OrphanSuspects != 1 || c1.OrphansFreed != 0 {
		t.Fatalf("cycle 1 should only SUSPECT the orphan (an in-flight alloc looks identical): %+v", c1)
	}

	c2, err := sim.Router.ScrubOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c2.OrphansFreed != 1 {
		t.Fatalf("cycle 2 should free the confirmed orphan %d: %+v", orphan.Lease, c2)
	}
	if c2.LostRepaired != 0 || c2.LostFailed != 0 {
		t.Fatalf("cycle 2 found more lost leases; cycle 1 did not converge: %+v", c2)
	}

	c3, err := sim.Router.ScrubOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !c3.Clean() {
		t.Fatalf("cycle 3 not clean: %+v", c3)
	}

	// Every routed lease survived the repairs: same count as allocated,
	// fleet-wide books agree, and the victim's replacement copies renew.
	after, err := sim.Router.Leases(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != leases.Count {
		t.Fatalf("%d leases before the chaos, %d after — repairs lost leases", leases.Count, after.Count)
	}
	for _, l := range after.Leases {
		if _, err := cl.Renew(ctx, l.Lease, time.Minute); err != nil {
			t.Fatalf("lease %d (%s) unusable after repair: %v", l.Lease, l.Placement, err)
		}
	}
	requireBooksConverged(t, ctx, sim)
}

// TestFlappingMemberDuringEvacuation bounces one member's link while
// the background poller evacuates it and clients keep touching its
// leases: offline -> evacuation starts -> the link heals mid-flight
// -> drops again -> heals for good. Afterward nothing may be
// double-homed, the queued source frees must drain, and the scrubber
// must find the books already (or promptly) convergent.
func TestFlappingMemberDuringEvacuation(t *testing.T) {
	sim := startTestSim(t, SimOptions{
		NetFaults: true,
		Router: Config{
			PollInterval: 50 * time.Millisecond,
			OfflineAfter: 2,
			ProbeTimeout: 250 * time.Millisecond,
			EvacTimeout:  time.Second,
		},
	})
	ctx := context.Background()

	cl := server.NewClient(sim.Base, server.WithoutHeartbeat(),
		server.WithRetryPolicy(server.RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}))
	defer cl.Close()
	var ids []uint64
	for i := 0; i < 16; i++ {
		resp, err := cl.Alloc(ctx, server.AllocRequest{
			Name: fmt.Sprintf("flap-%d", i), Size: 1 << 20, Attr: "Bandwidth",
		})
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		ids = append(ids, resp.Lease)
	}

	// Clients keep renewing throughout the flaps; only the retryable
	// cluster errors are acceptable.
	renewDone := make(chan error, 1)
	stopRenew := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopRenew:
				renewDone <- nil
				return
			default:
			}
			for _, id := range ids {
				if _, err := cl.Renew(ctx, id, time.Minute); err != nil &&
					!errors.Is(err, server.ErrCodeMemberUnavailable) &&
					!errors.Is(err, server.ErrLeaseExpired) {
					renewDone <- fmt.Errorf("renew %d: %v", id, err)
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Four beats: down long enough to go offline and start evacuating,
	// up mid-evacuation, down again, then healed for good.
	const victim = 1
	for beat := 0; beat < 4; beat++ {
		down := beat%2 == 0
		sim.Proxies[victim].SetPartition(down, false, false)
		time.Sleep(300 * time.Millisecond)
	}
	sim.Injector.HealAll()

	close(stopRenew)
	if err := <-renewDone; err != nil {
		t.Fatal(err)
	}

	// Settle: the fleet reports healthy and the victim's queued frees
	// drain (each queued free lands exactly once; a second landing
	// would kill a live lease, which the renew sweep below would see).
	deadline := time.Now().Add(20 * time.Second)
	for {
		sim.Router.PollOnce(ctx)
		h, err := sim.Router.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		depth := 0
		for _, m := range sim.Router.members {
			depth += m.pendingFreeDepth()
		}
		if h.Status == "ok" && depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet not settled 20s after the flaps: health %q, %d queued frees", h.Status, depth)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The scrubber must converge promptly: any stray source copies the
	// flapping left behind are orphans it frees within two cycles.
	var last ScrubReport
	for cycle := 0; cycle < 3; cycle++ {
		var err error
		last, err = sim.Router.ScrubOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if last.Clean() {
			break
		}
	}
	if !last.Clean() {
		t.Fatalf("books did not converge after the flaps: %+v", last)
	}

	// Every lease is single-homed and alive.
	for _, id := range ids {
		if _, err := cl.Renew(ctx, id, time.Minute); err != nil {
			t.Fatalf("lease %d lost to the flapping: %v", id, err)
		}
	}
	requireBooksConverged(t, ctx, sim)
}

// TestAsymmetricPartitionWipedRestartUnderLoad is the acceptance
// scenario: an asymmetric partition (the member hears requests, the
// router never hears answers) while a member restarts with a wiped
// journal, all under live load. After the fabric heals, the books
// must reach zero lost leases and zero double-booked bytes within two
// scrub cycles, and the fleet-wide consistency checks must hold.
func TestAsymmetricPartitionWipedRestartUnderLoad(t *testing.T) {
	dir := t.TempDir()
	sim := startTestSim(t, SimOptions{
		Platforms: []string{"xeon", "fictitious", "xeon-snc2"},
		Member:    server.Config{JournalPath: dir + "/member"},
		NetFaults: true,
		Router: Config{
			JournalPath:    dir + "/router",
			PollInterval:   50 * time.Millisecond,
			OfflineAfter:   2,
			ProbeTimeout:   250 * time.Millisecond,
			EvacTimeout:    time.Second,
			ForwardTimeout: time.Second,
		},
	})
	ctx := context.Background()

	tolerate := func(err error) bool {
		return errors.Is(err, server.ErrCodeMemberUnavailable) ||
			errors.Is(err, server.ErrShedding) ||
			errors.Is(err, server.ErrCapacityExhausted) ||
			errors.Is(err, server.ErrLeaseExpired)
	}
	// The partition starts once a quarter of the load has finished, so
	// three quarters of it run into the fault however fast the box is.
	loadDone, chaos := make(chan struct{}), make(chan struct{})
	var stats server.LoadStats
	var loadErr error
	go func() {
		defer close(loadDone)
		stats, loadErr = server.LoadTest(ctx, sim.Base, server.LoadOptions{
			Clients:           16,
			RequestsPerClient: 80,
			MaxLive:           4,
			MaxSizeBytes:      4 << 20,
			Seed:              11,
			Tolerate:          tolerate,
			Retry:             &server.RetryPolicy{MaxAttempts: 6, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
			Progress: func(done uint64) {
				if done == 16*80/4 {
					close(chaos)
				}
			},
		})
	}()
	select {
	case <-chaos:
	case <-loadDone:
		t.Fatalf("load ended before the chaos point: %v (stats %s)", loadErr, stats)
	}

	// Asymmetric partition on m1: requests reach the member, answers
	// never come back — the router sees timeouts while the member
	// keeps granting, the exact shape that breeds orphans.
	const victim = 1
	sim.Proxies[victim].SetPartition(false, true, false)
	time.Sleep(400 * time.Millisecond)

	// Mid-partition, the member reboots with its journal wiped: every
	// lease it held is gone for real.
	if err := sim.Restart(victim, true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	sim.Injector.HealAll()

	<-loadDone
	if loadErr != nil {
		t.Fatalf("loadtest failed: %v (stats %s)", loadErr, stats)
	}
	t.Logf("load: %s", stats)

	// Fabric healed: wait for the poller's view to recover and the
	// evacuations it owes to land.
	deadline := time.Now().Add(20 * time.Second)
	for {
		sim.Router.PollOnce(ctx)
		h, err := sim.Router.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet not healthy 20s after healing: %+v", h.Nodes)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The acceptance bar: two scrub cycles to converge, proven by a
	// third cycle that finds nothing — no lost leases, no orphans, no
	// double-booked bytes.
	for cycle := 1; cycle <= 2; cycle++ {
		sim.Router.PollOnce(ctx)
		rep, err := sim.Router.ScrubOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("scrub cycle %d: %+v", cycle, rep)
	}
	proof, err := sim.Router.ScrubOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !proof.Clean() {
		t.Fatalf("books not converged within two scrub cycles: %+v", proof)
	}

	// Zero lost leases fleet-wide, and the books agree everywhere.
	leases, err := sim.Router.Leases(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if leases.Count != stats.LeasesLeft {
		t.Fatalf("router tracks %d leases, load generator left %d — lost or phantom leases", leases.Count, stats.LeasesLeft)
	}
	requireBooksConverged(t, ctx, sim)
}

// TestNetChaosConverges runs the seeded partition suite end to end: a
// network-fault plan on every router->member link under live load,
// member 1 restarted with a wiped journal halfway through, then the
// scrubber driven until a clean cycle. The same net seed replays the
// same fault schedule.
func TestNetChaosConverges(t *testing.T) {
	rep := netChaosRun(t, netChaosOptions{
		NetSeed:       7,
		Steps:         20,
		StepInterval:  5 * time.Millisecond,
		RestartMember: 1,
		Load:          server.LoadOptions{Clients: 8, RequestsPerClient: 40, Seed: 1},
	})
	t.Logf("%d fault events, converged after %d scrub cycle(s), %d leases alive, books %s",
		rep.FaultEvents, rep.ConvergedAfter, rep.LeasesAlive, rep.Consistency)
	if rep.NetSeed != 7 || rep.FaultEvents == 0 {
		t.Errorf("net seed %d injected %d fault events, want seed 7 and a non-empty plan", rep.NetSeed, rep.FaultEvents)
	}
	if rep.Restarted != "m1" {
		t.Errorf("restarted member %q, want m1", rep.Restarted)
	}
	if rep.ConvergedAfter < 1 || len(rep.Scrubs) != rep.ConvergedAfter {
		t.Errorf("converged after %d cycle(s) with %d scrub reports", rep.ConvergedAfter, len(rep.Scrubs))
	}
	if !strings.HasPrefix(rep.Consistency, "consistent:") {
		t.Errorf("books: %q", rep.Consistency)
	}
}

// netChaosOptions configures one netChaosRun.
type netChaosOptions struct {
	// NetSeed seeds the network-fault plan (netfaults.RandomPlan).
	NetSeed int64
	// Steps is the fault-plan length, StepInterval the pause between
	// steps.
	Steps        int
	StepInterval time.Duration
	// RestartMember is the member index hard-restarted with a wiped
	// journal halfway through the plan (-1: nobody restarts).
	RestartMember int
	// Load shapes the traffic driven through the router during the
	// fault plan. Tolerate and Retry are filled in by the harness.
	Load server.LoadOptions
}

// netChaosReport is what the load saw, what the fault plan injected,
// and cycle by cycle what the scrubber repaired.
type netChaosReport struct {
	FaultEvents    int
	NetSeed        int64
	Restarted      string
	Scrubs         []ScrubReport
	ConvergedAfter int
	Consistency    string
	LeasesAlive    int
}

// netChaosRun boots a journaled four-member fleet with a chaos proxy
// on every router->member link and runs the fault plan against live
// load. It fails the test if the load generator hits an untolerated
// error, the fleet does not return to health, the scrubber does not
// converge within five cycles, a lease is lost, or the final books
// are inconsistent.
func netChaosRun(t *testing.T, opts netChaosOptions) netChaosReport {
	t.Helper()
	const maxScrubCycles = 5
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep := netChaosReport{NetSeed: opts.NetSeed}
	dir := t.TempDir()
	sim := startTestSim(t, SimOptions{
		Platforms: DefaultSimPlatforms,
		Member:    server.Config{JournalPath: filepath.Join(dir, "member")},
		Router: Config{
			JournalPath:    filepath.Join(dir, "router"),
			PollInterval:   50 * time.Millisecond,
			OfflineAfter:   2,
			ProbeTimeout:   500 * time.Millisecond,
			EvacTimeout:    2 * time.Second,
			ForwardTimeout: 2 * time.Second,
			HedgeDelay:     50 * time.Millisecond,
		},
		NetFaults: true,
	})

	plan := netfaults.RandomPlan(opts.NetSeed, opts.Steps, len(sim.Members), netfaults.RandomOptions{})
	rep.FaultEvents = len(plan.Events)
	restartAt := -1
	if opts.RestartMember >= 0 && opts.RestartMember < len(sim.Members) {
		restartAt = plan.Steps() / 2
	}

	load := opts.Load
	load.Tolerate = func(err error) bool {
		return errors.Is(err, server.ErrCodeMemberUnavailable) ||
			errors.Is(err, server.ErrShedding) ||
			errors.Is(err, server.ErrCapacityExhausted) ||
			errors.Is(err, server.ErrLeaseExpired)
	}
	load.Retry = &server.RetryPolicy{MaxAttempts: 6, BaseDelay: 25 * time.Millisecond, MaxDelay: 500 * time.Millisecond}
	done := make(chan struct{})
	var stats server.LoadStats
	var loadErr error
	go func() {
		defer close(done)
		stats, loadErr = server.LoadTest(ctx, sim.Base, load)
	}()

	for step := 0; step <= plan.Steps() && ctx.Err() == nil; step++ {
		for _, ev := range plan.StepEvents(step) {
			if err := sim.Injector.Apply(ev); err != nil {
				t.Fatalf("net fault %+v: %v", ev, err)
			}
		}
		if step == restartAt {
			if err := sim.Restart(opts.RestartMember, true); err != nil {
				t.Fatal(err)
			}
			rep.Restarted = sim.Members[opts.RestartMember].Name
			t.Logf("restarted member %s with a wiped journal at fault step %d", rep.Restarted, step)
		}
		select {
		case <-time.After(opts.StepInterval):
		case <-done:
		}
	}
	sim.Injector.HealAll()
	<-done
	t.Logf("chaos load %s", stats)
	if loadErr != nil {
		t.Fatalf("load: %v", loadErr)
	}

	// Fabric is healed; wait for the poller's view to catch up and the
	// evacuations it owes (offline transitions, the restarted member)
	// to land.
	healthDeadline := time.Now().Add(30 * time.Second)
	for {
		sim.Router.PollOnce(ctx)
		h, err := sim.Router.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Status == "ok" {
			break
		}
		if time.Now().After(healthDeadline) {
			t.Fatalf("fleet not healthy 30s after the fabric healed: %+v", h.Nodes)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Drive the scrubber to convergence: a clean cycle means no
	// orphans, no lost leases, no drift — the books agree everywhere.
	for cycle := 1; cycle <= maxScrubCycles && rep.ConvergedAfter == 0; cycle++ {
		sim.Router.PollOnce(ctx)
		sr, err := sim.Router.ScrubOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rep.Scrubs = append(rep.Scrubs, sr)
		t.Logf("scrub cycle %d: %+v", cycle, sr)
		if sr.Clean() {
			rep.ConvergedAfter = cycle
		}
	}
	if rep.ConvergedAfter == 0 {
		t.Fatalf("scrubber did not converge in %d cycles: %+v", maxScrubCycles, rep.Scrubs)
	}

	leases, err := sim.Router.Leases(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	rep.LeasesAlive = leases.Count
	if stats.LeasesLeft != leases.Count {
		t.Fatalf("router tracks %d leases, load generator left %d alive — leases lost", leases.Count, stats.LeasesLeft)
	}
	if rep.Consistency, err = server.VerifyConsistency(ctx, sim.Base); err != nil {
		t.Fatal(err)
	}
	return rep
}
