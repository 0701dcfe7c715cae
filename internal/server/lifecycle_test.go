package server_test

// Lease-lifecycle and durable-state tests: TTL clamping and renewal,
// orphan reaping vs heartbeating clients, checkpoint-bounded WALs,
// crash recovery with checkpoints racing traffic, and crash recovery
// under injected disk faults.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/faults"
	"hetmem/internal/server"
)

// startLifecycle boots a daemon with a lease-lifecycle Config over a
// real HTTP frontend. The caller owns any clients it makes.
func startLifecycle(t *testing.T, cfg server.Config) (*core.System, *server.Server, *httptest.Server) {
	t.Helper()
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithConfig(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return sys, srv, ts
}

// metricsOf scrapes a server's /metrics straight off its handler, so a
// crashed-but-in-memory daemon can still be read.
func metricsOf(t *testing.T, srv *server.Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v1/metrics: %d", rec.Code)
	}
	m, err := server.ParseMetrics(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLeaseTTLClampAndRenew(t *testing.T) {
	ctx := context.Background()
	_, _, ts := startLifecycle(t, server.Config{
		DefaultLeaseTTL: 200 * time.Millisecond,
		MinLeaseTTL:     50 * time.Millisecond,
		MaxLeaseTTL:     500 * time.Millisecond,
		ReapInterval:    100 * time.Millisecond,
	})
	cl := server.NewClient(ts.URL, server.WithoutHeartbeat())

	for _, tc := range []struct {
		name string
		req  float64
		want float64
	}{
		{"default", 0, 0.2},
		{"clamped-up", 0.001, 0.05},
		{"clamped-down", 3600, 0.5},
		{"in-range", 0.3, 0.3},
	} {
		resp, err := cl.Alloc(ctx, server.AllocRequest{
			Name: "ttl-" + tc.name, Size: 1 << 20, Attr: "Capacity",
			Partial: true, Remote: true, TTLSeconds: tc.req,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.TTLSeconds != tc.want {
			t.Errorf("%s: granted TTL %v, want %v", tc.name, resp.TTLSeconds, tc.want)
		}
		// Renewing may also re-negotiate the TTL, with the same clamps.
		rr, err := cl.Renew(ctx, resp.Lease, time.Hour)
		if err != nil {
			t.Fatalf("%s: renew: %v", tc.name, err)
		}
		if rr.TTLSeconds != 0.5 {
			t.Errorf("%s: renewed TTL %v, want clamp to 0.5", tc.name, rr.TTLSeconds)
		}
		if err := cl.Free(ctx, resp.Lease); err != nil {
			t.Fatal(err)
		}
	}

	var apiErr *server.APIError
	if _, err := cl.Renew(ctx, 999999, 0); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("renew of unknown lease: %v, want 404", err)
	}
}

// TestOrphanReaperReclaimsAbandonedLeases checks the two reaper
// invariants end to end: an abandoned lease is gone within 2×TTL while
// a heartbeating client's lease survives — including across a restart,
// where the reap must have been journaled as a free.
func TestOrphanReaperReclaimsAbandonedLeases(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "wal")
	ttl := 200 * time.Millisecond
	_, srv, ts := startLifecycle(t, server.Config{
		JournalPath:     path,
		DefaultLeaseTTL: ttl,
		MinLeaseTTL:     20 * time.Millisecond,
		ReapInterval:    30 * time.Millisecond,
	})

	crasher := server.NewClient(ts.URL, server.WithoutHeartbeat())
	orphan, err := crasher.Alloc(ctx, server.AllocRequest{
		Name: "orphan", Size: 1 << 20, Attr: "Capacity", Partial: true, Remote: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	holder := server.NewClient(ts.URL)
	defer holder.Close()
	held, err := holder.Alloc(ctx, server.AllocRequest{
		Name: "held", Size: 1 << 20, Attr: "Capacity", Partial: true, Remote: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if held.TTLSeconds <= 0 {
		t.Fatalf("no TTL granted: %+v", held)
	}

	deadline := time.Now().Add(2 * ttl)
	for {
		alive := false
		for _, l := range leasesOf(t, srv).Leases {
			if l.Lease == orphan.Lease {
				alive = true
			}
		}
		if !alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("orphan still alive after 2×TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m := metricsOf(t, srv); m["hetmemd_leases_reaped_total"] < 1 {
		t.Errorf("leases_reaped_total = %v, want >= 1", m["hetmemd_leases_reaped_total"])
	}
	// The heartbeating client's lease must still be renewable.
	if _, err := holder.Renew(ctx, held.Lease, 0); err != nil {
		t.Fatalf("heartbeating lease lost: %v", err)
	}

	// Restart from the journal: the reap was journaled as a free, so
	// the orphan must not be resurrected; the held lease must survive.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.NewWithConfig(sys2, server.Config{
		JournalPath:     path,
		DefaultLeaseTTL: ttl,
		MinLeaseTTL:     20 * time.Millisecond,
		ReapInterval:    30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	var sawHeld, sawOrphan bool
	for _, l := range leasesOf(t, srv2).Leases {
		switch l.Lease {
		case held.Lease:
			sawHeld = true
		case orphan.Lease:
			sawOrphan = true
		}
	}
	if sawOrphan {
		t.Error("reaped orphan resurrected by restart")
	}
	if !sawHeld {
		t.Error("held lease lost across restart")
	}
}

// TestReapStressHarness aims crasher clients (allocate TTL leases,
// then vanish without freeing or heartbeating) and holder clients
// (allocate and keep heartbeating) at a daemon and checks the two
// invariants the orphan reaper promises: every abandoned lease is
// reclaimed within 2×TTL, and no heartbeating client loses a lease.
func TestReapStressHarness(t *testing.T) {
	_, _, ts := startLifecycle(t, server.Config{
		DefaultLeaseTTL: 250 * time.Millisecond,
		MinLeaseTTL:     50 * time.Millisecond,
		ReapInterval:    60 * time.Millisecond,
	})
	rep, err := reapStress(context.Background(), ts.URL, 8, 4, 250*time.Millisecond)
	if err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if rep.Reaped != 8 || rep.HoldersKept != 4 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// reapStressReport is what reapStress saw.
type reapStressReport struct {
	Orphaned    int // leases abandoned
	Reaped      int // of those, reclaimed by the deadline
	HoldersKept int // holder leases still alive at the end
	HoldersLost int // holder leases the reaper wrongly took
}

// reapStress allocates crashers abandoned and holders heartbeat-renewed
// 1 MiB leases with the given TTL against the daemon at base. The
// daemon must be configured so the TTL survives clamping and with a
// ReapInterval well under it. It returns an error (with the report
// still filled in) if any orphan outlives 2×TTL or any heartbeating
// client loses a lease.
func reapStress(ctx context.Context, base string, crashers, holders int, ttl time.Duration) (reapStressReport, error) {
	var rep reapStressReport
	alloc := func(cl *server.Client, name string) (server.AllocResponse, error) {
		return cl.Alloc(ctx, server.AllocRequest{
			Name: name, Size: 1 << 20, Attr: "Capacity", Partial: true, Remote: true,
			TTLSeconds: ttl.Seconds(),
		})
	}

	// Crashers: allocate, never heartbeat, never free — the client-side
	// heartbeater is disabled so the leases are true orphans.
	crasher := server.NewClient(base, server.WithoutHeartbeat())
	orphans := make(map[uint64]bool, crashers)
	for i := 0; i < crashers; i++ {
		resp, err := alloc(crasher, fmt.Sprintf("orphan-%d", i))
		if err != nil {
			return rep, fmt.Errorf("orphan alloc %d: %w", i, err)
		}
		if resp.TTLSeconds <= 0 {
			return rep, fmt.Errorf("orphan alloc %d granted no TTL — is the daemon's lease lifecycle on?", i)
		}
		orphans[resp.Lease] = true
	}
	rep.Orphaned = len(orphans)

	// Holders: same TTL, but the client heartbeats them automatically.
	holder := server.NewClient(base)
	defer holder.Close()
	held := make([]uint64, 0, holders)
	for i := 0; i < holders; i++ {
		resp, err := alloc(holder, fmt.Sprintf("holder-%d", i))
		if err != nil {
			return rep, fmt.Errorf("holder alloc %d: %w", i, err)
		}
		held = append(held, resp.Lease)
	}

	// Watch the lease table until every orphan is gone or 2×TTL is up;
	// the last look lands exactly at the deadline.
	deadline := time.Now().Add(2 * ttl)
	poll := max(ttl/10, 5*time.Millisecond)
	remaining := len(orphans)
	for remaining > 0 {
		lr, err := crasher.Leases(ctx, true)
		if err != nil {
			return rep, fmt.Errorf("polling leases: %w", err)
		}
		remaining = 0
		for _, l := range lr.Leases {
			if orphans[l.Lease] {
				remaining++
			}
		}
		if remaining == 0 || !time.Now().Before(deadline) {
			break
		}
		select {
		case <-ctx.Done():
			return rep, ctx.Err()
		case <-time.After(min(poll, time.Until(deadline))):
		}
	}
	rep.Reaped = rep.Orphaned - remaining

	// The holders must all still be renewable — the reaper may never
	// take a lease whose client is heartbeating.
	var lost []error
	for _, id := range held {
		if _, err := holder.Renew(ctx, id, 0); err != nil {
			rep.HoldersLost++
			lost = append(lost, fmt.Errorf("lease %d: %w", id, err))
			continue
		}
		rep.HoldersKept++
		holder.Free(ctx, id)
	}
	if remaining > 0 {
		lost = append(lost, fmt.Errorf("%d of %d orphans still alive after 2×TTL (%s)", remaining, rep.Orphaned, 2*ttl))
	}
	return rep, errors.Join(lost...)
}

// TestCheckpointBoundsWAL drives sequential alloc/free churn against a
// size-triggered checkpointer and requires the WAL to stay bounded
// instead of growing with history — then verifies a restart still
// recovers the live set exactly.
func TestCheckpointBoundsWAL(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "wal")
	_, srv, ts := startLifecycle(t, server.Config{
		JournalPath:      path,
		CheckpointMaxWAL: 8 << 10,
	})
	cl := server.NewClient(ts.URL, server.WithoutHeartbeat())

	var keep []uint64
	for i := 0; i < 300; i++ {
		resp, err := cl.Alloc(ctx, server.AllocRequest{
			Name: fmt.Sprintf("churn-%d", i), Size: 1 << 20,
			Attr: attrFor(i), Partial: true, Remote: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			keep = append(keep, resp.Lease)
		} else if err := cl.Free(ctx, resp.Lease); err != nil {
			t.Fatal(err)
		}
	}
	// The size trigger fires asynchronously; give the checkpointer a
	// moment to drain the last kick.
	var m map[string]float64
	deadline := time.Now().Add(2 * time.Second)
	for {
		m = metricsOf(t, srv)
		if m["hetmemd_wal_bytes"] <= 64<<10 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m["hetmemd_checkpoint_total"] < 1 {
		t.Fatalf("no checkpoint ran under churn: %v", m["hetmemd_checkpoint_total"])
	}
	if m["hetmemd_wal_bytes"] > 64<<10 {
		t.Fatalf("WAL unbounded after checkpoints: %v bytes", m["hetmemd_wal_bytes"])
	}

	pre := leasesOf(t, srv)
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.NewWithConfig(sys2, server.Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	// The WAL ran on into its reserved zero tail: a clean restart reads
	// that as the end of the log, not as a dropped tail.
	if n := srv2.Metrics().JournalTailDropped.Load(); n != 0 {
		t.Fatalf("hetmemd_journal_tail_dropped_total = %d after a clean restart", n)
	}
	post := leasesOf(t, srv2)
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("restart diverged after compaction:\npre  %+v\npost %+v", pre, post)
	}
	if post.Count != len(keep) {
		t.Fatalf("recovered %d leases, want %d", post.Count, len(keep))
	}
}

// TestChaosCheckpointCrashRecovery is the mid-checkpoint kill: 32
// clients hammer a daemon whose checkpointer runs every few
// milliseconds (and on a small size trigger), the HTTP frontend is
// yanked mid-stream, and a fresh daemon restarted from the same files
// must reproduce the crashed instance's lease table and per-node byte
// accounting exactly — with /metrics agreeing node for node.
func TestChaosCheckpointCrashRecovery(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal")
	srv, err := server.NewWithConfig(sys, server.Config{
		JournalPath:      path,
		CheckpointEvery:  5 * time.Millisecond,
		CheckpointMaxWAL: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.NoRetry))
			var leases []uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 4 {
				case 0, 1:
					resp, err := cl.Alloc(ctx, server.AllocRequest{
						Name: fmt.Sprintf("c%d-%d", id, i), Size: 8 << 20,
						Attr: attrFor(id + i), Partial: true, Remote: true,
					})
					if err == nil {
						leases = append(leases, resp.Lease)
					}
				case 2:
					if len(leases) > 0 {
						if cl.Free(ctx, leases[0]) == nil {
							leases = leases[1:]
						}
					}
				default:
					if len(leases) > 0 {
						cl.Migrate(ctx, server.MigrateRequest{
							Lease: leases[0], Attr: attrFor(i), Remote: true,
						})
					}
				}
			}
		}(c)
	}

	time.Sleep(250 * time.Millisecond)
	close(stop)
	ts.Close()
	wg.Wait()

	pre := leasesOf(t, srv)
	if pre.Count == 0 {
		t.Fatal("crash test ended with an empty lease table; nothing to recover")
	}
	if m := metricsOf(t, srv); m["hetmemd_checkpoint_total"] < 1 {
		t.Fatalf("checkpointer never ran during traffic: %v", m["hetmemd_checkpoint_total"])
	}
	// Stopping the daemon's background goroutines is the only way to
	// safely reopen its files in-process; Close appends nothing, so the
	// on-disk bytes are exactly the crash image the kill left behind.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.NewWithConfig(sys2, server.Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	post := leasesOf(t, srv2)
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("restart diverged from pre-crash state:\npre  %+v\npost %+v", pre, post)
	}
	m2 := metricsOf(t, srv2)
	for _, n := range sys.Machine.Nodes() {
		n2 := sys2.Machine.NodeByOS(n.OSIndex())
		if n.Allocated() != n2.Allocated() {
			t.Errorf("node %s#%d: pre-crash %d bytes, restored %d",
				n.Kind(), n.OSIndex(), n.Allocated(), n2.Allocated())
		}
		key := fmt.Sprintf("hetmemd_node_bytes_in_use{node=%q}", fmt.Sprintf("%s#%d", n2.Kind(), n2.OSIndex()))
		if got := m2[key]; got != float64(n2.Allocated()) {
			t.Errorf("%s = %v, machine says %d", key, got, n2.Allocated())
		}
	}
}

// TestChaosDiskFaultRecovery arms fsync failures and torn writes under
// live traffic, then restarts from the battered files and checks the
// two durability invariants: no lease whose alloc was acknowledged and
// never freed may be lost, and no lease whose free was acknowledged
// may be resurrected. (Leases whose free ERRORED are indeterminate —
// the free may or may not have reached the WAL — and are skipped.)
func TestChaosDiskFaultRecovery(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal")
	ffs := faults.NewFaultFS(faults.OS, 7)
	srv, err := server.NewWithConfig(sys, server.Config{
		JournalPath:      path,
		FS:               ffs,
		GroupCommit:      true,
		CheckpointEvery:  10 * time.Millisecond,
		CheckpointMaxWAL: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	ctx := context.Background()
	stop := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
				ffs.FailSyncs(1)
				ffs.ShortWrites(1)
			}
		}
	}()

	type ledger struct {
		acked     map[uint64]bool // alloc acknowledged
		freed     map[uint64]bool // free acknowledged
		freeTried map[uint64]bool // free attempted (acked or not)
	}
	ledgers := make([]ledger, 16)
	var wg sync.WaitGroup
	for c := 0; c < len(ledgers); c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			led := ledger{map[uint64]bool{}, map[uint64]bool{}, map[uint64]bool{}}
			cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.NoRetry))
			var live []uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					ledgers[id] = led
					return
				default:
				}
				if i%3 == 2 && len(live) > 0 {
					lease := live[0]
					led.freeTried[lease] = true
					if cl.Free(ctx, lease) == nil {
						led.freed[lease] = true
					}
					live = live[1:]
					continue
				}
				resp, err := cl.Alloc(ctx, server.AllocRequest{
					Name: fmt.Sprintf("df%d-%d", id, i), Size: 4 << 20,
					Attr: attrFor(id + i), Partial: true, Remote: true,
				})
				if err == nil {
					led.acked[resp.Lease] = true
					live = append(live, resp.Lease)
				}
			}
		}(c)
	}

	time.Sleep(250 * time.Millisecond)
	close(stop)
	ts.Close()
	wg.Wait()
	pump.Wait()

	syncs, shorts, _, _ := ffs.Delivered()
	if syncs == 0 && shorts == 0 {
		t.Fatal("no disk faults delivered; test proved nothing")
	}
	t.Logf("delivered %d fsync failures, %d torn writes", syncs, shorts)
	// The pump may leave one armed fault for Close's final checkpoint to
	// trip over; that error is the injection working, and recovery below
	// must still hold.
	if err := srv.Close(); err != nil &&
		!errors.Is(err, faults.ErrInjectedSync) &&
		!errors.Is(err, faults.ErrInjectedShortWrite) &&
		!errors.Is(err, faults.ErrInjectedWrite) {
		t.Fatal(err)
	}

	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.NewWithConfig(sys2, server.Config{JournalPath: path})
	if err != nil {
		t.Fatalf("recovery from fault-battered files: %v", err)
	}
	defer srv2.Close()

	post := make(map[uint64]bool)
	for _, l := range leasesOf(t, srv2).Leases {
		post[l.Lease] = true
	}
	for _, led := range ledgers {
		for lease := range led.acked {
			switch {
			case led.freed[lease]:
				if post[lease] {
					t.Errorf("lease %d: free was acknowledged but restart resurrected it", lease)
				}
			case !led.freeTried[lease]:
				if !post[lease] {
					t.Errorf("lease %d: alloc was acknowledged, never freed, but lost", lease)
				}
			}
		}
	}

	// Confirm via os.Stat that disk-fault churn did not leave the WAL
	// unbounded either: compaction kept running between faults.
	if st, err := os.Stat(path); err == nil && st.Size() > 4<<20 {
		t.Errorf("WAL grew to %d bytes despite checkpointing", st.Size())
	}
}
