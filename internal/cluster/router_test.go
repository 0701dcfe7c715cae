package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetmem/internal/server"
)

// End-to-end router behavior over a real in-process cluster: the /v1
// surface a single daemon serves must work unchanged through the
// router, with member names showing up only in placements and the
// rollups.

func startTestSim(t *testing.T, opts SimOptions) *Sim {
	t.Helper()
	if len(opts.Platforms) == 0 {
		// Two small platforms keep boot fast; heterogeneity is the point.
		opts.Platforms = []string{"xeon", "fictitious"}
	}
	if opts.Router.PollInterval == 0 {
		opts.Router.PollInterval = 50 * time.Millisecond
	}
	if opts.Router.MemberRetry == nil {
		opts.Router.MemberRetry = &server.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	}
	sim, err := StartSim(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Close)
	return sim
}

func TestRouterForwardsCoreOps(t *testing.T) {
	sim := startTestSim(t, SimOptions{})
	ctx := context.Background()
	cl := server.NewClient(sim.Base, server.WithoutHeartbeat())
	defer cl.Close()

	resp, err := cl.Alloc(ctx, server.AllocRequest{Name: "hot", Size: 64 << 20, Attr: "Bandwidth"})
	if err != nil {
		t.Fatalf("alloc through router: %v", err)
	}
	memberName, _, found := strings.Cut(resp.Placement, "/")
	if !found || !strings.HasPrefix(memberName, "m") {
		t.Fatalf("placement %q should be prefixed with the owning member", resp.Placement)
	}

	leases, err := cl.Leases(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if leases.Count != 1 || leases.Bytes != 64<<20 {
		t.Fatalf("leases rollup: count=%d bytes=%d, want 1 lease of %d", leases.Count, leases.Bytes, 64<<20)
	}
	if got := leases.NodeBytes[memberName]; got != 64<<20 {
		t.Fatalf("NodeBytes[%s]=%d, want %d", memberName, got, 64<<20)
	}

	if _, err := cl.Renew(ctx, resp.Lease, 30*time.Second); err != nil {
		t.Fatalf("renew through router: %v", err)
	}
	mig, err := cl.Migrate(ctx, server.MigrateRequest{Lease: resp.Lease, Attr: "Capacity"})
	if err != nil {
		t.Fatalf("migrate through router: %v", err)
	}
	if !strings.HasPrefix(mig.Placement, memberName+"/") {
		t.Fatalf("migrate placement %q left member %s (cross-member moves are evacuation-only)", mig.Placement, memberName)
	}
	if err := cl.Free(ctx, resp.Lease); err != nil {
		t.Fatalf("free through router: %v", err)
	}

	// The daemon's own consistency check must hold against the router:
	// /metrics node gauges vs /leases, member-name keyed.
	if desc, err := server.VerifyConsistency(ctx, sim.Base); err != nil {
		t.Fatalf("router books inconsistent: %v", err)
	} else if !strings.Contains(desc, "0 leases") {
		t.Fatalf("expected empty books after free, got %q", desc)
	}
}

// TestRouterIdempotentReplay checks that a keyed retry gets the whole
// first response back — every AllocResponse field — and that the
// replayed placement follows a migrate and survives a journal restart,
// while an unkeyed lease still lists its placement.
func TestRouterIdempotentReplay(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "router.wal")
	sim := startTestSim(t, SimOptions{Router: Config{JournalPath: wal}})
	ctx := context.Background()
	req := server.AllocRequest{Name: "buf", Size: 1 << 20, Attr: "Bandwidth", TTLSeconds: 30, IdempotencyKey: "key-1"}

	first, err := sim.Router.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sim.Router.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("idempotent replay diverged:\n first %+v\nreplay %+v", first, second)
	}
	if n := sim.Router.LeaseCount(); n != 1 {
		t.Fatalf("replay allocated a second lease (count=%d)", n)
	}

	plain, err := sim.Router.Alloc(ctx, server.AllocRequest{Name: "plain", Size: 1 << 20, Attr: "Bandwidth"})
	if err != nil {
		t.Fatal(err)
	}
	listed := func(r *Router) map[uint64]string {
		t.Helper()
		resp, err := r.Leases(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[uint64]string, len(resp.Leases))
		for _, li := range resp.Leases {
			out[li.Lease] = li.Placement
		}
		return out
	}
	if got := listed(sim.Router)[plain.Lease]; got != plain.Placement {
		t.Fatalf("unkeyed lease %d lists placement %q, want %q", plain.Lease, got, plain.Placement)
	}

	migReq := server.MigrateRequest{Lease: first.Lease, Attr: "Capacity"}
	mig, err := sim.Router.Migrate(ctx, migReq)
	if err != nil {
		t.Fatal(err)
	}
	want := first
	want.Placement = mig.Placement
	third, err := sim.Router.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if third != want {
		t.Fatalf("replay after migrate:\n got %+v\nwant %+v", third, want)
	}
	if got := listed(sim.Router)[first.Lease]; got != mig.Placement {
		t.Fatalf("migrated lease lists placement %q, want %q", got, mig.Placement)
	}

	// The journal keeps the lease's request, with the attribute its
	// last migrate asked for, and its member, but not the member's
	// placement string: after a restart the replay names the member.
	if err := sim.Router.Close(); err != nil {
		t.Fatalf("router close: %v", err)
	}
	specs := make([]MemberSpec, len(sim.Members))
	for i, m := range sim.Members {
		specs[i] = MemberSpec{Name: m.Name, URL: m.URL}
	}
	r2, err := New(Config{Members: specs, JournalPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	member, _, _ := strings.Cut(first.Placement, "/")
	plainMember, _, _ := strings.Cut(plain.Placement, "/")
	want = server.AllocResponse{Lease: first.Lease, Placement: member, AttrUsed: migReq.Attr, TTLSeconds: first.TTLSeconds}
	restored, err := r2.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if restored != want {
		t.Fatalf("replay after restart:\n got %+v\nwant %+v", restored, want)
	}
	if got := listed(r2)[plain.Lease]; got != plainMember {
		t.Fatalf("restored unkeyed lease lists placement %q, want %q", got, plainMember)
	}
}

// TestRouterKeepsRenewedTTL: a renew that changes a lease's TTL
// changes the routed lease's too, so an evacuation re-places the lease
// with the renewed TTL, and a graceful restart's checkpoint keeps it.
func TestRouterKeepsRenewedTTL(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "router.wal")
	sim := startTestSim(t, SimOptions{Router: Config{JournalPath: wal}})
	ctx := context.Background()
	a, err := sim.Router.Alloc(ctx, server.AllocRequest{Name: "renewed", Size: 1 << 20, Attr: "Bandwidth", TTLSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rn, err := sim.Router.Renew(ctx, server.RenewRequest{Lease: a.Lease, TTLSeconds: 60}); err != nil || rn.TTLSeconds != 60 {
		t.Fatalf("renew to 60 s: %+v, %v", rn, err)
	}

	home, _, _ := strings.Cut(a.Placement, "/")
	victim := 0
	for i, m := range sim.Members {
		if m.Name == home {
			victim = i
		}
	}
	sim.Kill(victim)
	deadline := time.Now().Add(15 * time.Second)
	var survivor *SimMember
	var memberLease uint64
	for survivor == nil {
		sim.Router.PollOnce(ctx)
		sim.Router.mu.Lock()
		if rl := sim.Router.leases[a.Lease]; int(rl.slot) != victim {
			survivor, memberLease = sim.Members[rl.slot], rl.memberLease
		}
		sim.Router.mu.Unlock()
		if survivor == nil && time.Now().After(deadline) {
			t.Fatal("the lease was not evacuated within 15 s")
		}
	}
	mcl := server.NewClient(survivor.URL, server.WithoutHeartbeat())
	defer mcl.Close()
	detail, err := mcl.LeaseDetail(ctx, memberLease)
	if err != nil {
		t.Fatal(err)
	}
	if detail.TTLSeconds != 60 {
		t.Errorf("the survivor's lease has a %v s TTL, want the renewed 60 s", detail.TTLSeconds)
	}

	if err := sim.Router.Close(); err != nil {
		t.Fatalf("router close: %v", err)
	}
	specs := make([]MemberSpec, len(sim.Members))
	for i, m := range sim.Members {
		specs[i] = MemberSpec{Name: m.Name, URL: m.URL}
	}
	r2, err := New(Config{Members: specs, JournalPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	r2.mu.Lock()
	got := r2.leases[a.Lease].ttlMillis
	r2.mu.Unlock()
	if got != 60000 {
		t.Errorf("after a graceful restart the router's book holds a %d ms TTL, want 60000", got)
	}
}

func TestRouterBatchSplitsAcrossMembers(t *testing.T) {
	sim := startTestSim(t, SimOptions{})
	ctx := context.Background()
	cl := server.NewClient(sim.Base, server.WithoutHeartbeat())
	defer cl.Close()

	reqs := make([]server.AllocRequest, 32)
	for i := range reqs {
		reqs[i] = server.AllocRequest{Name: fmt.Sprintf("batch-%d", i), Size: 1 << 20, Attr: "Bandwidth"}
	}
	out, err := cl.AllocBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Succeeded != len(reqs) || out.Failed != 0 {
		t.Fatalf("batch: %d ok %d failed, want all %d ok", out.Succeeded, out.Failed, len(reqs))
	}
	owners := map[string]int{}
	for i, item := range out.Results {
		if item.Alloc == nil {
			t.Fatalf("item %d missing alloc: %+v", i, item)
		}
		member, _, _ := strings.Cut(item.Alloc.Placement, "/")
		owners[member]++
	}
	if len(owners) < 2 {
		t.Fatalf("batch of %d landed on %d member(s) %v; rendezvous should split it", len(reqs), len(owners), owners)
	}
	leases, err := cl.Leases(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if leases.Count != len(reqs) {
		t.Fatalf("router tracks %d leases after batch of %d", leases.Count, len(reqs))
	}
}

func TestRouterHealthAndMetricsRollup(t *testing.T) {
	sim := startTestSim(t, SimOptions{})
	ctx := context.Background()
	sim.Router.PollOnce(ctx) // learn the members' instance IDs

	cl := server.NewClient(sim.Base, server.WithoutHeartbeat())
	defer cl.Close()
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthy cluster reports %q", h.Status)
	}
	if h.InstanceID == "" {
		t.Fatal("router health is missing its instance_id")
	}
	if len(h.Nodes) != len(sim.Members) {
		t.Fatalf("health rows: %d, want one per member (%d)", len(h.Nodes), len(sim.Members))
	}
	for _, row := range h.Nodes {
		if row.State != "healthy" {
			t.Fatalf("member %s reported %q", row.Node, row.State)
		}
		if row.InstanceID == "" {
			t.Fatalf("member %s row is missing the polled instance_id", row.Node)
		}
	}

	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := server.SumSeries(metrics, "hetmemd_cluster_members"); got != float64(len(sim.Members)) {
		t.Fatalf("hetmemd_cluster_members=%v, want %d", got, len(sim.Members))
	}
	for _, m := range sim.Members {
		key := fmt.Sprintf("hetmemd_cluster_member_state{member=%q}", m.Name)
		if v, ok := metrics[key]; !ok || v != 0 {
			t.Fatalf("%s=%v,%v; want healthy (0)", key, v, ok)
		}
	}
	// The forwarded-request latency histograms ride the standard series.
	if server.SumSeries(metrics, "hetmemd_requests_total") == 0 {
		t.Fatal("router /metrics has no request counters")
	}
}

func TestRouterErrorEnvelopePassthrough(t *testing.T) {
	sim := startTestSim(t, SimOptions{})
	ctx := context.Background()
	cl := server.NewClient(sim.Base, server.WithoutHeartbeat(), server.WithRetryPolicy(server.NoRetry))
	defer cl.Close()

	// Router-minted 404: unknown lease.
	err := cl.Free(ctx, 999999)
	if !errors.Is(err, server.ErrLeaseExpired) {
		t.Fatalf("free of unknown lease: %v, want lease_expired", err)
	}
	// Member-minted 400 passes through with the member's code intact.
	_, err = cl.Alloc(ctx, server.AllocRequest{Name: "bad", Size: 1, Attr: "NoSuchAttr"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeBadRequest {
		t.Fatalf("member bad_request was laundered: %v", err)
	}

	// A malformed request is refused by the router with the daemon's
	// own answer, alone or as a batch item, and never reaches a member.
	memberRefusals := func() (n uint64) {
		for _, m := range sim.Members {
			n += m.srv.Metrics().AllocFailed.Load()
		}
		return n
	}
	before := memberRefusals()
	bad := server.AllocRequest{Name: "", Size: 1 << 20, Attr: "Capacity"}
	want := server.ValidateAllocRequest(bad).Error()
	_, err = cl.Alloc(ctx, bad)
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeBadRequest || apiErr.Message != want {
		t.Fatalf("malformed alloc through the router: %v, want bad_request %q", err, want)
	}
	out, err := cl.AllocBatch(ctx, []server.AllocRequest{bad, {Name: "ok", Size: 1 << 20, Attr: "Capacity"}})
	if err != nil || out.Failed != 1 || out.Results[0].Error == nil ||
		out.Results[0].Error.Code != server.CodeBadRequest || out.Results[0].Error.Message != want || out.Results[1].Alloc == nil {
		t.Fatalf("batch with a malformed item through the router: %+v, %v", out, err)
	}
	if got := memberRefusals() - before; got != 0 {
		t.Fatalf("members refused %d malformed requests the router forwarded", got)
	}
}

// TestRouterCountsAllocRefusals: the router's own
// hetmemd_alloc_failed_total counts each alloc and batch item it
// answers with an error, once, whether the router refused it (a
// malformed request) or a member did (an unknown attribute).
func TestRouterCountsAllocRefusals(t *testing.T) {
	sim := startTestSim(t, SimOptions{})
	ctx := context.Background()
	cl := server.NewClient(sim.Base, server.WithoutHeartbeat(), server.WithRetryPolicy(server.NoRetry))
	defer cl.Close()
	refused := func() float64 {
		t.Helper()
		metrics, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return server.SumSeries(metrics, "hetmemd_alloc_failed_total")
	}

	before := refused()
	malformed := server.AllocRequest{Name: "", Size: 1 << 20, Attr: "Capacity"}
	unknown := server.AllocRequest{Name: "bad", Size: 1 << 20, Attr: "NoSuchAttr"}
	for _, req := range []server.AllocRequest{malformed, unknown} {
		if _, err := cl.Alloc(ctx, req); err == nil {
			t.Fatalf("alloc %+v was granted", req)
		}
	}
	out, err := cl.AllocBatch(ctx, []server.AllocRequest{malformed, {Name: "ok", Size: 1 << 20, Attr: "Capacity"}, unknown})
	if err != nil || out.Failed != 2 || out.Results[1].Alloc == nil {
		t.Fatalf("batch: %+v, %v; want items 0 and 2 refused", out, err)
	}
	if got := refused() - before; got != 4 {
		t.Fatalf("the router's hetmemd_alloc_failed_total moved by %v over four refusals, want 4", got)
	}
}

// TestRouterJournalRestart crashes a journaled router, with and
// without -journal-sync, and checks that a restart rebuilds the lease
// map from the WAL's alloc and free records.
func TestRouterJournalRestart(t *testing.T) {
	for _, groupCommit := range []bool{false, true} {
		name := "process-crash-durable"
		if groupCommit {
			name = "group-commit"
		}
		t.Run(name, func(t *testing.T) { testRouterJournalRestart(t, groupCommit) })
	}
}

// crash stops r as a killed process stops: its loops end and its
// journal and member clients close, but nothing is checkpointed, so a
// restart replays whatever the WAL holds.
func crash(t *testing.T, r *Router) {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
	if err := r.store.Close(); err != nil {
		t.Fatal(err)
	}
	for _, m := range r.members {
		m.cl.Close()
	}
}

func testRouterJournalRestart(t *testing.T, groupCommit bool) {
	dir := t.TempDir()
	sim := startTestSim(t, SimOptions{
		Router: Config{JournalPath: filepath.Join(dir, "router.wal"), GroupCommit: groupCommit},
	})
	ctx := context.Background()

	var ids []uint64
	for i := 0; i < 8; i++ {
		resp, err := sim.Router.Alloc(ctx, server.AllocRequest{
			Name: fmt.Sprintf("durable-%d", i), Size: 1 << 20, Attr: "Bandwidth",
			IdempotencyKey: fmt.Sprintf("restart-key-%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.Lease)
	}
	// One free before the crash, so the replay must apply a free record
	// after the allocs.
	freed := ids[7]
	ids = ids[:7]
	if _, err := sim.Router.Free(ctx, server.FreeRequest{Lease: freed}); err != nil {
		t.Fatal(err)
	}
	crash(t, sim.Router)
	if _, err := os.Stat(filepath.Join(dir, "router.wal.ckpt")); err == nil {
		t.Fatal("the crashed router left a checkpoint: the restart would not replay the WAL")
	}

	specs := make([]MemberSpec, len(sim.Members))
	for i, m := range sim.Members {
		specs[i] = MemberSpec{Name: m.Name, URL: m.URL}
	}
	if groupCommit {
		if _, err := New(Config{Members: specs, GroupCommit: true}); err == nil {
			t.Fatal("router accepted GroupCommit without a JournalPath")
		}
	}
	r2, err := New(Config{
		Members:     specs,
		JournalPath: filepath.Join(dir, "router.wal"),
		GroupCommit: groupCommit,
		MemberRetry: &server.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.LeaseCount(); got != len(ids) {
		t.Fatalf("restarted router restored %d leases, want %d", got, len(ids))
	}
	if _, err := r2.Free(ctx, server.FreeRequest{Lease: freed}); err == nil {
		t.Fatalf("lease %d, freed before the crash, came back", freed)
	}
	// The restored mapping must still point at the real member leases:
	// a replayed idempotency key dedupes, and a free reaches the member.
	replay, err := r2.Alloc(ctx, server.AllocRequest{
		Name: "durable-0", Size: 1 << 20, Attr: "Bandwidth", IdempotencyKey: "restart-key-0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Lease != ids[0] {
		t.Fatalf("post-restart idempotent replay minted lease %d, want %d", replay.Lease, ids[0])
	}
	for _, id := range ids {
		if _, err := r2.Free(ctx, server.FreeRequest{Lease: id}); err != nil {
			t.Fatalf("free restored lease %d: %v", id, err)
		}
	}
	// Every member-side lease must be gone too: nothing leaked across
	// the restart.
	for _, m := range sim.Members {
		mcl := server.NewClient(m.URL, server.WithoutHeartbeat())
		ml, err := mcl.Leases(ctx, false)
		mcl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ml.Count != 0 {
			t.Fatalf("member %s still holds %d leases after router frees", m.Name, ml.Count)
		}
	}
}
