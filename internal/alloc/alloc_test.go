package alloc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hetmem/internal/bench"
	"hetmem/internal/bitmap"
	"hetmem/internal/hmat"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/platform"
)

const gib = uint64(1) << 30

// discoveredAlloc builds the named platform's allocator as the daemon
// does: from its HMAT when it has one, else by benchmark discovery.
func discoveredAlloc(t *testing.T, name string) *Allocator {
	t.Helper()
	p, err := platform.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	reg := memattr.NewRegistry(p.Topo)
	if tbl := p.HMATTable(); tbl != nil {
		err = hmat.Apply(tbl, reg)
	} else {
		var res []bench.Result
		if res, err = bench.MeasureAll(m, bench.Options{}); err == nil {
			err = bench.Apply(res, reg)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return New(m, reg)
}

// knlAlloc builds a KNL machine with benchmark-discovered attributes
// (KNL has no HMAT), and cluster 0's cores.
func knlAlloc(t *testing.T) (*Allocator, *bitmap.Bitmap) {
	t.Helper()
	return discoveredAlloc(t, "knl-snc4-flat"), bitmap.NewFromRange(0, 15)
}

// xeonAlloc builds the Xeon use-case machine with HMAT-discovered
// attributes, and package 0's cores.
func xeonAlloc(t *testing.T) (*Allocator, *bitmap.Bitmap) {
	t.Helper()
	return discoveredAlloc(t, "xeon"), bitmap.NewFromRange(0, 19)
}

func TestPortabilityOfAttributeRequests(t *testing.T) {
	// The same three requests adapt to each machine — the paper's
	// central claim.
	knl, kini := knlAlloc(t)
	xeon, xini := xeonAlloc(t)

	cases := []struct {
		a        *Allocator
		ini      *bitmap.Bitmap
		attr     memattr.ID
		wantKind string
	}{
		{knl, kini, memattr.Bandwidth, "MCDRAM"},
		{knl, kini, memattr.Latency, "DRAM"}, // KNL DDR4 idle latency is marginally better than MCDRAM's
		{knl, kini, memattr.Capacity, "DRAM"},
		{xeon, xini, memattr.Bandwidth, "DRAM"}, // no HBM on Xeon: DRAM wins bandwidth
		{xeon, xini, memattr.Latency, "DRAM"},
		{xeon, xini, memattr.Capacity, "NVDIMM"},
	}
	for _, c := range cases {
		buf, dec, err := c.a.Alloc("b", gib, c.attr, c.ini)
		if err != nil {
			t.Fatalf("Alloc(%v): %v", c.attr, err)
		}
		if dec.Target.Subtype != c.wantKind {
			t.Errorf("attr %s: placed on %s, want %s", c.a.Registry().Name(c.attr), dec.Target.Subtype, c.wantKind)
		}
		if dec.RankPosition != 0 || dec.Partial || dec.Remote {
			t.Errorf("attr %v: unexpected decision %v", c.attr, dec)
		}
		c.a.Machine().Free(buf)
	}
}

func TestRankedFallbackWhenFull(t *testing.T) {
	a, ini := knlAlloc(t)
	// MCDRAM (4GB) holds the first buffer; the second spills to DRAM.
	b1, dec1, err := a.Alloc("hot1", 3*gib, memattr.Bandwidth, ini)
	if err != nil || dec1.Target.Subtype != "MCDRAM" {
		t.Fatalf("first: %v %v", dec1, err)
	}
	b2, dec2, err := a.Alloc("hot2", 3*gib, memattr.Bandwidth, ini)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Target.Subtype != "DRAM" || dec2.RankPosition != 1 {
		t.Fatalf("second: %v", dec2)
	}
	a.Machine().Free(b1)
	a.Machine().Free(b2)
}

func TestBindPolicyFails(t *testing.T) {
	a, ini := knlAlloc(t)
	if _, _, err := a.Alloc("big", 5*gib, memattr.Bandwidth, ini, WithPolicy(Bind)); !errors.Is(err, ErrExhausted) {
		t.Fatalf("bind to full MCDRAM err = %v", err)
	}
	// Preferred succeeds for the same request.
	buf, dec, err := a.Alloc("big", 5*gib, memattr.Bandwidth, ini)
	if err != nil || dec.Target.Subtype != "DRAM" {
		t.Fatalf("preferred: %v %v", dec, err)
	}
	a.Machine().Free(buf)
}

func TestPartialAllocation(t *testing.T) {
	a, ini := knlAlloc(t)
	// 26 GiB exceeds both the 4 GiB MCDRAM and what either node can
	// hold alone? DRAM is 24GiB, so 26 GiB needs a split.
	buf, dec, err := a.Alloc("huge", 26*gib, memattr.Bandwidth, ini, WithPartial())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Partial {
		t.Fatalf("decision = %v, want partial", dec)
	}
	if len(buf.SegmentsSnapshot()) != 2 {
		t.Fatalf("segments = %d", len(buf.SegmentsSnapshot()))
	}
	// Ranking order: MCDRAM first (bandwidth), then DRAM.
	if buf.SegmentsSnapshot()[0].Node.Kind() != "MCDRAM" || buf.SegmentsSnapshot()[0].Bytes != 4*gib {
		t.Fatalf("segment 0 = %+v", buf.SegmentsSnapshot()[0])
	}
	if buf.SegmentsSnapshot()[1].Node.Kind() != "DRAM" || buf.SegmentsSnapshot()[1].Bytes != 22*gib {
		t.Fatalf("segment 1 = %+v", buf.SegmentsSnapshot()[1])
	}
	a.Machine().Free(buf)

	// Without WithPartial the same request is exhausted.
	if _, _, err := a.Alloc("huge", 26*gib, memattr.Bandwidth, ini); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteFallback(t *testing.T) {
	a, ini := knlAlloc(t)
	m := a.Machine()
	// Benchmarked attributes only cover local pairs; remote candidates
	// need remote measurements, taken while nodes still have room.
	results, err := bench.MeasureAll(m, bench.Options{IncludeRemote: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Apply(results, a.Registry()); err != nil {
		t.Fatal(err)
	}
	// Fill cluster 0 entirely.
	if _, _, err := a.Alloc("fill-mc", 4*gib, memattr.Bandwidth, ini); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Alloc("fill-dram", 24*gib, memattr.Capacity, ini); err != nil {
		t.Fatal(err)
	}
	// Local-only fails now.
	if _, _, err := a.Alloc("b", gib, memattr.Bandwidth, ini); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	buf, dec, err := a.Alloc("b", gib, memattr.Bandwidth, ini, WithRemote())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Remote {
		t.Fatalf("decision = %v, want remote", dec)
	}
	if bitmap.Intersects(dec.Target.CPUSet, ini) {
		t.Fatal("target should be non-local")
	}
	a.Machine().Free(buf)
}

func TestAttributeFallback(t *testing.T) {
	a, ini := xeonAlloc(t)
	// The Xeon HMAT exposes only access bandwidth/latency; requesting
	// ReadBandwidth falls back to Bandwidth.
	buf, dec, err := a.Alloc("b", gib, memattr.ReadBandwidth, ini)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.AttrFellBack || dec.Used != memattr.Bandwidth {
		t.Fatalf("decision = %+v", dec)
	}
	a.Machine().Free(buf)
}

func TestAllocUnknownAttr(t *testing.T) {
	a, ini := xeonAlloc(t)
	if _, _, err := a.Alloc("b", gib, memattr.ID(999), ini); !errors.Is(err, memattr.ErrUnknownAttr) {
		t.Fatalf("err = %v", err)
	}
}

func TestLinuxPreferredAllowed(t *testing.T) {
	a, _ := knlAlloc(t)
	m := a.Machine()
	dram := m.NodeByOS(0)
	mcdram := m.NodeByOS(4)
	// Preferring MCDRAM with DRAM fallback is impossible on Linux
	// (MCDRAM has the higher index) — the paper's footnote.
	if LinuxPreferredAllowed(mcdram, []*memsim.Node{dram}) {
		t.Fatal("Linux should not allow MCDRAM-preferred with DRAM fallback")
	}
	if !LinuxPreferredAllowed(dram, []*memsim.Node{mcdram}) {
		t.Fatal("DRAM-preferred with MCDRAM fallback should be allowed")
	}
}

func TestMigrateToBest(t *testing.T) {
	a, ini := knlAlloc(t)
	m := a.Machine()
	// Land a buffer on DRAM by capacity, then migrate it to the
	// bandwidth-best target between phases.
	buf, dec, err := a.Alloc("phase-buf", 2*gib, memattr.Capacity, ini)
	if err != nil || dec.Target.Subtype != "DRAM" {
		t.Fatalf("alloc: %v %v", dec, err)
	}
	cost, mdec, err := a.MigrateToBest(buf, memattr.Bandwidth, ini)
	if err != nil {
		t.Fatal(err)
	}
	if mdec.Target.Subtype != "MCDRAM" || cost <= 0 {
		t.Fatalf("migrate: %v cost=%f", mdec, cost)
	}
	if buf.NodeNames() != "MCDRAM#4" {
		t.Fatalf("placement = %s", buf.NodeNames())
	}
	// Already on the best target: no cost.
	cost, _, err = a.MigrateToBest(buf, memattr.Bandwidth, ini)
	if err != nil || cost != 0 {
		t.Fatalf("re-migrate: cost=%f err=%v", cost, err)
	}
	// A buffer already resident on a candidate target is never
	// "exhausted": migrating a DRAM-resident buffer that fits nowhere
	// better stays put at zero cost.
	big, _, err := a.Alloc("big", 20*gib, memattr.Capacity, ini)
	if err != nil {
		t.Fatal(err)
	}
	cost, mdec, err = a.MigrateToBest(big, memattr.Bandwidth, ini)
	if err != nil || cost != 0 || mdec.Target.Subtype != "DRAM" {
		t.Fatalf("stay-put migrate: %v cost=%f err=%v", mdec, cost, err)
	}
	// Exhaustion: a buffer stranded on a *remote* node with every
	// local candidate full cannot be migrated locally.
	stranded, err := m.Alloc("stranded", 8*gib, m.NodeByOS(1)) // cluster 1 DRAM
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Alloc("fill-mc", 2*gib, memattr.Bandwidth, ini); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Alloc("fill-dram", 2*gib, memattr.Capacity, ini); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.MigrateToBest(stranded, memattr.Bandwidth, ini); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestFCFSVersusPriority(t *testing.T) {
	// Section VII: a late critical buffer loses the MCDRAM under FCFS
	// but wins it under priority planning.
	reqs := []Request{
		{Name: "scratch", Size: 3 * gib, Attr: memattr.Bandwidth, Priority: 1},
		{Name: "critical", Size: 3 * gib, Attr: memattr.Bandwidth, Priority: 10},
	}

	a1, ini := knlAlloc(t)
	fcfs := a1.PlanFCFS(reqs, ini)
	if fcfs[0].Err != nil || fcfs[1].Err != nil {
		t.Fatalf("fcfs errors: %v %v", fcfs[0].Err, fcfs[1].Err)
	}
	if fcfs[0].Dec.Target.Subtype != "MCDRAM" || fcfs[1].Dec.Target.Subtype != "DRAM" {
		t.Fatalf("fcfs placement: %s %s", fcfs[0].Dec.Target.Subtype, fcfs[1].Dec.Target.Subtype)
	}

	a2, ini2 := knlAlloc(t)
	prio := a2.PlanPriority(reqs, ini2)
	if prio[1].Dec.Target.Subtype != "MCDRAM" || prio[0].Dec.Target.Subtype != "DRAM" {
		t.Fatalf("priority placement: %s %s", prio[0].Dec.Target.Subtype, prio[1].Dec.Target.Subtype)
	}
	// Results stay in request order regardless of allocation order.
	if prio[0].Request.Name != "scratch" || prio[1].Request.Name != "critical" {
		t.Fatal("priority results out of request order")
	}
}

func TestCandidatesOrdering(t *testing.T) {
	a, ini := knlAlloc(t)
	ranked, used, fell, err := a.Candidates(memattr.Bandwidth, ini, false)
	if err != nil || fell || used != memattr.Bandwidth {
		t.Fatalf("candidates: used=%v fell=%v err=%v", used, fell, err)
	}
	if len(ranked) != 2 {
		t.Fatalf("local candidates = %d", len(ranked))
	}
	if ranked[0].Target.Subtype != "MCDRAM" || ranked[1].Target.Subtype != "DRAM" {
		t.Fatalf("order: %s %s", ranked[0].Target.Subtype, ranked[1].Target.Subtype)
	}
	if ranked[0].Value <= ranked[1].Value {
		t.Fatal("bandwidth ranking not decreasing")
	}
}

// TestQuickRandomRequestSequences drives the allocator with random
// request streams and checks the global invariants: capacity never
// exceeded, every success lands on a candidate with room, every
// failure is ErrExhausted, and freeing restores accounting exactly.
func TestQuickRandomRequestSequences(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a, ini := knlAlloc(t)
		m := a.Machine()
		attrs := []memattr.ID{memattr.Bandwidth, memattr.Latency, memattr.Capacity}
		var live []*memsim.Buffer
		for i := 0; i < 60; i++ {
			if len(live) > 0 && rnd.Intn(3) == 0 {
				j := rnd.Intn(len(live))
				if err := m.Free(live[j]); err != nil {
					return false
				}
				live = append(live[:j], live[j+1:]...)
				continue
			}
			size := uint64(rnd.Intn(4)+1) << 30
			buf, dec, err := a.Alloc("b", size, attrs[rnd.Intn(len(attrs))], ini)
			if err != nil {
				if !errors.Is(err, ErrExhausted) {
					return false
				}
				continue
			}
			if dec.Target == nil || buf.Size != size {
				return false
			}
			live = append(live, buf)
			for _, n := range m.Nodes() {
				if n.Allocated() > n.Capacity() {
					return false
				}
			}
		}
		for _, b := range live {
			if err := m.Free(b); err != nil {
				return false
			}
		}
		for _, n := range m.Nodes() {
			if n.Allocated() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecisionHonorsRanking: whenever the allocator picks rank k,
// every better-ranked candidate genuinely lacked room at that moment.
func TestQuickDecisionHonorsRanking(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a, ini := knlAlloc(t)
		m := a.Machine()
		for i := 0; i < 30; i++ {
			size := uint64(rnd.Intn(3)+1) << 30
			ranked, _, _, err := a.Candidates(memattr.Bandwidth, ini, false)
			if err != nil {
				return false
			}
			avail := make([]uint64, len(ranked))
			for j, tv := range ranked {
				avail[j] = m.Node(tv.Target).Available()
			}
			_, dec, err := a.Alloc("b", size, memattr.Bandwidth, ini)
			if err != nil {
				if !errors.Is(err, ErrExhausted) {
					return false
				}
				for _, room := range avail {
					if room >= size {
						return false // a candidate had room but we failed
					}
				}
				continue
			}
			for j := 0; j < dec.RankPosition; j++ {
				if avail[j] >= size {
					return false // skipped a better candidate with room
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
