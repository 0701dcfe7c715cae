package server

// The lease table's shard books (lease.go) against everything that is
// supposed to equal them. /v1/leases' summary is no longer a walk: it
// sums running totals kept where leases enter, leave and move. These
// tests hold those totals, at every quiescent point of a seeded random
// schedule, to three independently kept sets of books —
//
//   - the fold of the /v1/leases?list=1 walk (the lease table itself),
//   - memsim's per-node gauges as /metrics renders them,
//   - the tenant registry's usage counters,
//
// plus a model the test keeps of what it was granted. The schedule
// covers every path that touches the books: alloc, batch alloc (one in
// four unwound by a failed journal write), free, migrate, an expiring
// lease reaped, the reaper's take-and-restore of a just-renewed lease,
// a node going offline under live leases (evacuation), and advisor
// moves driven by real telemetry.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/faults"
	"hetmem/internal/memsim"
)

var (
	bookTenants = []string{"astro", "bio", "chem"}
	bookAttrs   = []string{"Bandwidth", "Latency", "Capacity"}
)

// checkBooks asserts the cross-checks above and returns the summary.
func checkBooks(t *testing.T, s *Server, when string) LeasesResponse {
	t.Helper()
	ctx := context.Background()
	sum, _ := s.Leases(ctx, false)
	fold, _ := s.Leases(ctx, true)
	fold.Leases = nil
	if !reflect.DeepEqual(sum, fold) {
		t.Fatalf("%s: shard books %+v, walk of the lease table %+v", when, sum, fold)
	}
	var text bytes.Buffer
	if err := s.WriteMetrics(ctx, &text); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(text.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := int(m["hetmemd_leases_active"]); got != sum.Count {
		t.Fatalf("%s: hetmemd_leases_active %d, books hold %d", when, got, sum.Count)
	}
	for _, n := range s.sys.Machine.Nodes() {
		key := fmt.Sprintf("hetmemd_node_bytes_in_use{node=%q}", n.Label())
		got, ok := m[key]
		if !ok || uint64(got) != sum.NodeBytes[n.Label()] {
			t.Fatalf("%s: %s = %v, books hold %d", when, key, got, sum.NodeBytes[n.Label()])
		}
	}
	for _, name := range s.tenants.Names() {
		if got := s.tenants.Get(name).UsedTotal(); got != sum.TenantBytes[name] {
			t.Fatalf("%s: tenant registry has %s at %d bytes, books hold %d", when, name, got, sum.TenantBytes[name])
		}
	}
	return sum
}

func TestBooksModel(t *testing.T) {
	const seed, steps = 7, 400
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	ffs := faults.NewFaultFS(faults.OS, seed)
	cfg := Config{
		JournalPath:       filepath.Join(t.TempDir(), "wal"),
		FS:                ffs,
		MinLeaseTTL:       time.Millisecond,
		AdvisorInterval:   time.Hour, // loop parked; cycles driven by hand
		AdvisorHysteresis: 1,
		AdvisorCooldown:   1,
	}
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(faults.NewMachineTarget(sys.Machine))
	inj.Subscribe(s.ApplyFault)
	nodes := sys.Machine.Nodes()
	ini := sys.InitiatorForPackage(0)
	eng := sys.Engine(ini)

	// The model: what the test was granted and has not given back.
	type granted struct {
		size   uint64
		tenant string
	}
	model := make(map[uint64]granted)
	var ids []uint64 // model's keys, for seeded picks
	pick := func() (uint64, bool) {
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	drop := func(id uint64) {
		delete(model, id)
		for i, v := range ids {
			if v == id {
				ids = append(ids[:i], ids[i+1:]...)
				return
			}
		}
	}
	request := func() (context.Context, string, AllocRequest) {
		tn := bookTenants[rng.Intn(len(bookTenants))]
		req := AllocRequest{
			Name:      fmt.Sprintf("b%d", rng.Intn(8)),
			Size:      uint64(1+rng.Intn(64)) << 20,
			Attr:      bookAttrs[rng.Intn(len(bookAttrs))],
			Initiator: ini.ListString(),
			Remote:    true,
		}
		if rng.Intn(10) == 0 {
			// Now and then a lease no single node can hold, placed
			// across several: multi-segment books.
			req.Size = uint64(700+rng.Intn(300)) << 30
			req.Partial = true
		}
		return ContextWithTenant(ctx, tn), tn, req
	}
	offline := -1
	reaped := 0

	for step := 0; step < steps; step++ {
		op := rng.Intn(100)
		when := fmt.Sprintf("seed %d step %d op %d", seed, step, op)
		switch {
		case op < 30: // alloc
			tctx, tn, req := request()
			if resp, err := s.Alloc(tctx, req); err == nil {
				model[resp.Lease] = granted{req.Size, tn}
				ids = append(ids, resp.Lease)
			}
		case op < 40: // batch, one in four unwound by a failed WAL write
			tctx, tn, _ := request()
			reqs := make([]AllocRequest, 1+rng.Intn(4))
			for i := range reqs {
				_, _, reqs[i] = request()
			}
			fail := rng.Intn(4) == 0
			if fail {
				ffs.FailWrites(1)
			}
			resp, err := s.AllocBatch(tctx, reqs)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if fail {
				ffs.Clear() // still armed if no item got as far as the journal
				if resp.Succeeded != 0 {
					t.Fatalf("%s: %d batch items granted over a failed journal write", when, resp.Succeeded)
				}
			}
			for i, item := range resp.Results {
				if item.Alloc != nil {
					model[item.Alloc.Lease] = granted{reqs[i].Size, tn}
					ids = append(ids, item.Alloc.Lease)
				}
			}
		case op < 60: // free
			if id, ok := pick(); ok {
				if _, err := s.Free(ctx, FreeRequest{Lease: id}); err != nil {
					t.Fatalf("%s: free %d: %v", when, id, err)
				}
				drop(id)
			}
		case op < 75: // migrate; a full target is a refusal, not a fault
			if id, ok := pick(); ok {
				attr := bookAttrs[rng.Intn(len(bookAttrs))]
				s.Migrate(ctx, MigrateRequest{Lease: id, Attr: attr, Remote: true})
			}
		case op < 80: // a lease that expires and is reaped
			tctx, _, req := request()
			req.TTLSeconds = 0.001
			if _, err := s.Alloc(tctx, req); err == nil {
				time.Sleep(2 * time.Millisecond)
				reaped += s.ReapNow()
			}
		case op < 85: // the reaper's take-and-restore of a renewed lease
			if id, ok := pick(); ok {
				l, ok := s.leases.get(id)
				if !ok {
					t.Fatalf("%s: lease %d not in the table", when, id)
				}
				l.jmu.Lock()
				if !s.leases.take(l) {
					t.Fatalf("%s: lease %d left the table under its jmu", when, id)
				}
				l.acquire()
				s.leases.restore(l)
				l.jmu.Unlock()
				l.release()
			}
		case op < 92: // a node fails under live leases, or comes back
			if offline < 0 {
				offline = nodes[rng.Intn(len(nodes))].OSIndex()
				inj.Apply(faults.Event{NodeOS: offline, Kind: faults.Offline})
			} else {
				inj.Apply(faults.Event{NodeOS: offline, Kind: faults.Online})
				offline = -1
			}
		default: // telemetry on a few leases, then an advisor cycle
			var accesses []memsim.Access
			for i := 0; i < 3; i++ {
				if id, ok := pick(); ok {
					l, _ := s.leases.get(id)
					accesses = append(accesses, memsim.Access{Buffer: l.buf, RandomReads: 50_000_000, MLP: 4})
					l.release()
				}
			}
			if len(accesses) > 0 {
				eng.Phase("chase", accesses)
			}
			s.AdviseOnce()
		}

		sum := checkBooks(t, s, when)
		var bytes uint64
		perTenant := make(map[string]uint64)
		for _, g := range model {
			bytes += g.size
			perTenant[g.tenant] += g.size
		}
		if sum.Count != len(model) || sum.Bytes != bytes || !reflect.DeepEqual(sum.TenantBytes, perTenant) {
			t.Fatalf("%s: books %d leases / %d bytes / %v, model %d / %d / %v",
				when, sum.Count, sum.Bytes, sum.TenantBytes, len(model), bytes, perTenant)
		}
	}

	// The schedule must have reached the paths it claims to cover.
	met := s.Metrics()
	moves := met.AdvisorPromoted.Load() + met.AdvisorDemoted.Load()
	multi := met.PartialTotal.Load()
	_, _, unwound, _ := ffs.Delivered()
	t.Logf("%d leases standing, %d multi-segment placements, %d unwound batches, %d reaped, %d evacuated, %d advisor moves",
		len(model), multi, unwound, reaped, met.AutoMigrateTotal.Load(), moves)
	if unwound == 0 || reaped == 0 || met.AutoMigrateTotal.Load() == 0 || moves == 0 || multi == 0 {
		t.Fatalf("seed %d no longer exercises every path; pick another", seed)
	}

	// A journaled restart rebuilds the same books from the WAL.
	before := checkBooks(t, s, "before restart")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewWithConfig(sys2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if after := checkBooks(t, s2, "after restart"); !reflect.DeepEqual(after, before) {
		t.Fatalf("restart changed the books: %+v, were %+v", after, before)
	}
}

// TestBooksFreeRacingMigrate: a free racing a migrate of the same
// lease. The books keep no copy of a lease's placement: take subtracts
// the buffer's own. That is right only because a lease leaves the
// table under its jmu, which a move holds from the move through its
// rebook — so the free takes the lease either before the move (which
// then finds the buffer freed and leaves the books alone) or after the
// rebook (and subtracts the placement the books now hold). Either
// order must end at all-zero books.
func TestBooksFreeRacingMigrate(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(sys)
	defer s.Close()
	ctx := ContextWithTenant(context.Background(), bookTenants[0])
	for i := 0; i < 300; i++ {
		resp, err := s.Alloc(ctx, AllocRequest{Name: "race", Size: 1 << 20, Attr: "Capacity", Initiator: "0-19"})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Loses to the free some of the time: no such lease.
			s.Migrate(ctx, MigrateRequest{Lease: resp.Lease, Attr: "Latency"})
		}()
		// A varying head start, so the free lands before, inside and
		// after the migrate over the iterations.
		for j := 0; j < i%16; j++ {
			runtime.Gosched()
		}
		if _, err := s.Free(ctx, FreeRequest{Lease: resp.Lease}); err != nil {
			t.Fatalf("free %d: %v", resp.Lease, err)
		}
		<-done
	}
	sum := checkBooks(t, s, "after the races")
	if sum.Count != 0 || sum.Bytes != 0 || len(sum.NodeBytes) != 0 || len(sum.TenantBytes) != 0 {
		t.Fatalf("books after every lease was freed: %+v", sum)
	}
	if s.Metrics().MigrateTotal.Load() == 0 {
		t.Fatal("no migrate ever won the race; the loop tests nothing")
	}
}

// TestBooksReapRacingMove: a TTL lease that expires while a migrate or
// an evacuation is moving its buffer. The reaper, like a free, takes
// the lease only under its jmu, so every interleaving of the reap and
// the move must end at all-zero books.
func TestBooksReapRacingMove(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(sys, Config{MinLeaseTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inj := faults.NewInjector(faults.NewMachineTarget(sys.Machine))
	inj.Subscribe(s.ApplyFault)
	ctx := ContextWithTenant(context.Background(), bookTenants[0])
	const rounds = 300
	for i := 0; i < rounds; i++ {
		resp, err := s.Alloc(ctx, AllocRequest{Name: "reap", Size: 1 << 20, Attr: "Capacity",
			Initiator: "0-19", Remote: true, TTLSeconds: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		l, _ := s.leases.get(resp.Lease)
		node := l.buf.SegmentsSnapshot()[0].Node.OSIndex()
		l.release()
		time.Sleep(2 * time.Millisecond) // expired before the move starts
		evacuate := i%2 == 1
		done := make(chan struct{})
		go func() {
			defer close(done)
			if evacuate {
				inj.Apply(faults.Event{NodeOS: node, Kind: faults.Offline})
			} else {
				s.Migrate(ctx, MigrateRequest{Lease: resp.Lease, Attr: "Latency", Remote: true})
			}
		}()
		// A varying head start, so the reap lands before, inside and
		// after the move over the rounds.
		for j := 0; j < i%16; j++ {
			runtime.Gosched()
		}
		s.ReapNow()
		<-done
		if evacuate {
			inj.Apply(faults.Event{NodeOS: node, Kind: faults.Online})
		}
		s.ReapNow() // if the move went first
	}
	sum := checkBooks(t, s, "after the races")
	if sum.Count != 0 || sum.Bytes != 0 || len(sum.NodeBytes) != 0 || len(sum.TenantBytes) != 0 {
		t.Fatalf("books after every lease was reaped: %+v", sum)
	}
	met := s.Metrics()
	if got := met.LeasesReaped.Load(); got != rounds {
		t.Fatalf("%d leases reaped, want %d", got, rounds)
	}
	if met.MigrateTotal.Load() == 0 || met.AutoMigrateTotal.Load() == 0 {
		t.Fatalf("%d migrates and %d evacuations won the race; the loop tests too little",
			met.MigrateTotal.Load(), met.AutoMigrateTotal.Load())
	}
}
