package memsim

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hetmem/internal/bitmap"
	"hetmem/internal/topology"
)

const gb = 1 << 30

// testRig builds a 2-package machine. Package 0: DRAM(0, 96G) +
// NVDIMM(1, 768G); package 1: DRAM(2, 96G). 4 cores × 1 PU per package.
func testRig(t testing.TB) (*Machine, *topology.Topology) {
	t.Helper()
	root := topology.New(topology.Machine, -1)
	pu := 0
	p0 := root.AddChild(topology.New(topology.Package, 0))
	p0.AddMemChild(topology.NewNUMA(0, "DRAM", 96*gb))
	p0.AddMemChild(topology.NewNUMA(1, "NVDIMM", 768*gb))
	p1 := root.AddChild(topology.New(topology.Package, 1))
	p1.AddMemChild(topology.NewNUMA(2, "DRAM", 96*gb))
	for _, pkg := range []*topology.Object{p0, p1} {
		for c := 0; c < 4; c++ {
			pkg.AddChild(topology.New(topology.Core, pu)).AddChild(topology.New(topology.PU, pu))
			pu++
		}
	}
	topo, err := topology.Build(root)
	if err != nil {
		t.Fatal(err)
	}
	dram := NodeModel{
		Kind: "DRAM", ReadBW: 105, WriteBW: 45, TotalBW: 75, PerThreadBW: 12,
		IdleLatency: 81, LoadedLatency: 200,
	}
	nvdimm := NodeModel{
		Kind: "NVDIMM", ReadBW: 30, WriteBW: 3.3, TotalBW: 25, PerThreadBW: 6,
		IdleLatency: 305, LoadedLatency: 900,
		BufferBytes: 32 * gb, BufferedReadBW: 60, BufferedWriteBW: 12, BufferedTotalBW: 32,
		BufferedLatency: 290,
	}
	m, err := NewMachine(topo, MachineModel{
		Nodes:  map[int]NodeModel{0: dram, 1: nvdimm, 2: dram},
		Caches: CacheModel{LineSize: 64, L2PerCore: 1 << 20, LLCPerDomain: 27 << 20},
		Remote: RemoteModel{BWFactor: 0.5, LatencyAdd: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, topo
}

func pkg0Set() *bitmap.Bitmap { return bitmap.NewFromRange(0, 3) }

func TestNewMachineMissingModel(t *testing.T) {
	root := topology.New(topology.Machine, -1)
	root.AddMemChild(topology.NewNUMA(0, "DRAM", gb))
	root.AddChild(topology.New(topology.PU, 0))
	topo, err := topology.Build(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachine(topo, MachineModel{Nodes: map[int]NodeModel{}}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
}

func TestAllocFreeAccounting(t *testing.T) {
	m, _ := testRig(t)
	dram := m.NodeByOS(0)
	if dram.Available() != 96*gb {
		t.Fatalf("initial available = %d", dram.Available())
	}
	b, err := m.Alloc("x", 10*gb, dram)
	if err != nil {
		t.Fatal(err)
	}
	if dram.Allocated() != 10*gb || dram.Available() != 86*gb {
		t.Fatalf("after alloc: allocated=%d available=%d", dram.Allocated(), dram.Available())
	}
	if b.NodeNames() != "DRAM#0" {
		t.Fatalf("NodeNames = %q", b.NodeNames())
	}
	if len(m.Buffers()) != 1 {
		t.Fatal("Buffers should list the live buffer")
	}
	if err := m.Free(b); err != nil {
		t.Fatal(err)
	}
	if dram.Allocated() != 0 {
		t.Fatalf("after free: allocated=%d", dram.Allocated())
	}
	if err := m.Free(b); !errors.Is(err, ErrFreed) {
		t.Fatalf("double free err = %v", err)
	}
	if len(m.Buffers()) != 0 {
		t.Fatal("freed buffer still listed")
	}
}

// TestFreedBufferHasNoPlacement: a buffer carries no freed flag, so
// "freed" is "has no placement". After Free every reader sees an empty
// placement, Migrate and a second Free refuse it, and the registry —
// Buffers() and the sweep in track — drops it. A zero-part AllocSplit
// also has no segments, but it was never freed and must not read so.
func TestFreedBufferHasNoPlacement(t *testing.T) {
	m, _ := testRig(t)
	dram, nv := m.NodeByOS(0), m.NodeByOS(1)
	one, err := m.Alloc("one", gb, dram)
	if err != nil {
		t.Fatal(err)
	}
	split, err := m.AllocSplit("split", []Segment{{dram, gb}, {nv, gb}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := m.AllocSplit("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Freed() || empty.Size != 0 || empty.NodeNames() != "" {
		t.Fatalf("zero-part buffer: freed %v, size %d, placement %q", empty.Freed(), empty.Size, empty.NodeNames())
	}
	for _, b := range []*Buffer{one, split} {
		if err := m.Free(b); err != nil {
			t.Fatal(err)
		}
		if !b.Freed() {
			t.Fatalf("%s: Freed() = false after Free", b.Name)
		}
		if segs := b.AppendSegments(nil); len(segs) != 0 {
			t.Fatalf("%s: AppendSegments after Free = %+v", b.Name, segs)
		}
		if segs := b.SegmentsSnapshot(); len(segs) != 0 {
			t.Fatalf("%s: SegmentsSnapshot after Free = %+v", b.Name, segs)
		}
		if got := b.NodeNames(); got != "" {
			t.Fatalf("%s: NodeNames after Free = %q", b.Name, got)
		}
		if b.OnKind("DRAM") {
			t.Fatalf("%s: OnKind(DRAM) after Free", b.Name)
		}
		if _, err := m.Migrate(b, dram); !errors.Is(err, ErrFreed) {
			t.Fatalf("%s: Migrate after Free: %v, want ErrFreed", b.Name, err)
		}
		if err := m.Free(b); !errors.Is(err, ErrFreed) {
			t.Fatalf("%s: second Free: %v, want ErrFreed", b.Name, err)
		}
	}
	if dram.Allocated() != 0 || nv.Allocated() != 0 {
		t.Fatalf("freed buffers left %d B on DRAM and %d B on NVDIMM", dram.Allocated(), nv.Allocated())
	}
	if got := m.Buffers(); len(got) != 1 || got[0] != empty {
		t.Fatalf("Buffers() after the frees = %v, want only the zero-part buffer", got)
	}

	// Enough allocations to reach a sweep: it keeps the live zero-part
	// buffer and drops the two freed ones.
	for i := 0; i < minSweep; i++ {
		if _, err := m.Alloc("fill", 1, dram); err != nil {
			t.Fatal(err)
		}
	}
	m.bufMu.Lock()
	tracked := slices.Clone(m.buffers)
	m.bufMu.Unlock()
	if slices.Contains(tracked, one) || slices.Contains(tracked, split) {
		t.Fatal("the sweep kept a freed buffer")
	}
	if !slices.Contains(tracked, empty) {
		t.Fatal("the sweep dropped the live zero-part buffer")
	}
	if err := m.Free(empty); err != nil || !empty.Freed() {
		t.Fatalf("freeing the zero-part buffer: %v, freed %v", err, empty.Freed())
	}
}

func TestAllocCapacityExhausted(t *testing.T) {
	m, _ := testRig(t)
	dram := m.NodeByOS(0)
	if _, err := m.Alloc("big", 97*gb, dram); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	// A failed alloc must not leak accounting.
	if dram.Allocated() != 0 {
		t.Fatalf("allocated = %d after failed alloc", dram.Allocated())
	}
}

func TestAllocSplitAndInterleave(t *testing.T) {
	m, _ := testRig(t)
	dram, nv := m.NodeByOS(0), m.NodeByOS(1)
	b, err := m.AllocSplit("hybrid", []Segment{{dram, 4 * gb}, {nv, 12 * gb}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Size != 16*gb || b.NodeNames() != "DRAM#0+NVDIMM#1" {
		t.Fatalf("split = %d %q", b.Size, b.NodeNames())
	}
	if !b.OnKind("NVDIMM") || b.OnKind("HBM") {
		t.Fatal("OnKind wrong")
	}
	// All-or-nothing: second part too big -> nothing allocated.
	before := dram.Allocated()
	if _, err := m.AllocSplit("bad", []Segment{{dram, gb}, {nv, 10000 * gb}}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
	if dram.Allocated() != before {
		t.Fatal("failed split leaked accounting")
	}

	il, err := m.AllocInterleave("il", 10*gb, []*Node{dram, nv})
	if err != nil {
		t.Fatal(err)
	}
	if len(il.Segments) != 2 || il.Segments[0].Bytes != 5*gb || il.Segments[1].Bytes != 5*gb {
		t.Fatalf("interleave segments = %+v", il.Segments)
	}
	if _, err := m.AllocInterleave("none", gb, nil); err == nil {
		t.Fatal("interleave across zero nodes should fail")
	}
}

func TestMigrate(t *testing.T) {
	m, _ := testRig(t)
	dram, nv := m.NodeByOS(0), m.NodeByOS(1)
	b, err := m.Alloc("buf", 8*gb, nv)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := m.Migrate(b, dram)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("migration should cost time")
	}
	// Copying 8GB at ~30GB/s plus per-page cost: must exceed the raw
	// copy time (the paper stresses OS migration overhead).
	raw := 8.0 / 30.0
	if cost <= raw {
		t.Fatalf("cost %.3f should exceed raw copy %.3f", cost, raw)
	}
	if nv.Allocated() != 0 || dram.Allocated() != 8*gb {
		t.Fatal("migration did not move accounting")
	}
	if b.NodeNames() != "DRAM#0" {
		t.Fatalf("NodeNames = %q", b.NodeNames())
	}
	// Migrating to a full node fails.
	if _, err := m.Alloc("fill", 88*gb, dram); err != nil {
		t.Fatal(err)
	}
	b2, _ := m.Alloc("other", 8*gb, nv)
	if _, err := m.Migrate(b2, dram); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
	// Migrating in place is free.
	cost, err = m.Migrate(b, dram)
	if err != nil || cost != 0 {
		t.Fatalf("in-place migrate = %.3f, %v", cost, err)
	}
}

func TestStreamDRAMvsNVDIMM(t *testing.T) {
	m, _ := testRig(t)
	ini := pkg0Set()
	size := uint64(40 * gb)

	run := func(node *Node) float64 {
		e := NewEngine(m, ini)
		b, err := m.Alloc("a", size, node)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Free(b)
		res := e.Phase("stream", []Access{{Buffer: b, ReadBytes: size, WriteBytes: size / 2}})
		if res.AchievedBW <= 0 {
			t.Fatal("no achieved bandwidth")
		}
		return res.AchievedBW
	}
	dbw := run(m.NodeByOS(0))
	nbw := run(m.NodeByOS(1))
	if dbw <= nbw {
		t.Fatalf("DRAM bw %.1f should beat NVDIMM bw %.1f", dbw, nbw)
	}
	if ratio := dbw / nbw; ratio < 2 || ratio > 12 {
		t.Fatalf("DRAM/NVDIMM stream ratio %.2f out of plausible range", ratio)
	}
	// DRAM achieved should approach but not exceed its TotalBW.
	if dbw > 75.01 || dbw < 40 {
		t.Fatalf("DRAM achieved %.1f implausible vs TotalBW 75", dbw)
	}
}

func TestNVDIMMBufferedSmallWorkingSet(t *testing.T) {
	m, _ := testRig(t)
	ini := pkg0Set()
	nv := m.NodeByOS(1)

	run := func(size uint64) float64 {
		e := NewEngine(m, ini)
		b, err := m.Alloc("a", size, nv)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Free(b)
		res := e.Phase("stream", []Access{{Buffer: b, ReadBytes: size * 2, WriteBytes: size}})
		return res.AchievedBW
	}
	small := run(20 * gb)  // fits the 32GB device buffer
	large := run(100 * gb) // sustained
	if small <= large*1.5 {
		t.Fatalf("buffered bw %.1f should clearly beat sustained %.1f", small, large)
	}
}

func TestRandomLatencyBound(t *testing.T) {
	m, _ := testRig(t)
	ini := pkg0Set()
	const n = 50_000_000

	run := func(node *Node) float64 {
		e := NewEngine(m, ini)
		b, err := m.Alloc("graph", 8*gb, node)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Free(b)
		res := e.Phase("bfs", []Access{{Buffer: b, RandomReads: n, MLP: 4}})
		if res.RandomSeconds <= 0 || res.StreamSeconds != 0 {
			t.Fatalf("decomposition wrong: %+v", res)
		}
		return res.Seconds
	}
	dt := run(m.NodeByOS(0))
	nt := run(m.NodeByOS(1))
	if nt <= dt {
		t.Fatalf("NVDIMM random time %.3f should exceed DRAM %.3f", nt, dt)
	}
	ratio := nt / dt
	if ratio < 1.5 || ratio > 8 {
		t.Fatalf("NVDIMM/DRAM latency ratio %.2f out of plausible range", ratio)
	}
}

func TestMLPAndThreadsScaling(t *testing.T) {
	m, _ := testRig(t)
	node := m.NodeByOS(0)
	b, err := m.Alloc("g", 8*gb, node)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10_000_000

	run := func(threads int, mlp float64) float64 {
		e := NewEngine(m, pkg0Set())
		e.SetThreads(threads)
		return e.Phase("r", []Access{{Buffer: b, RandomReads: n, MLP: mlp}}).Seconds
	}
	t1 := run(1, 1)
	t4 := run(4, 1)
	tm := run(1, 4)
	if t4 >= t1 || tm >= t1 {
		t.Fatalf("threads/MLP should speed up random access: t1=%.3f t4=%.3f tm=%.3f", t1, t4, tm)
	}
	if math.Abs(t4-tm)/t1 > 0.3 {
		t.Fatalf("4 threads and MLP 4 should be comparable: %.3f vs %.3f", t4, tm)
	}
}

func TestSmallBufferCached(t *testing.T) {
	m, _ := testRig(t)
	e := NewEngine(m, pkg0Set())
	node := m.NodeByOS(0)
	small, _ := m.Alloc("small", 4<<20, node) // fits LLC
	big, _ := m.Alloc("big", 8*gb, node)
	const n = 1_000_000
	ts := e.Phase("s", []Access{{Buffer: small, RandomReads: n}}).Seconds
	tb := e.Phase("b", []Access{{Buffer: big, RandomReads: n}}).Seconds
	if ts >= tb/5 {
		t.Fatalf("LLC-resident random access %.5f should be far faster than %.5f", ts, tb)
	}
}

func TestRemoteAccessSlower(t *testing.T) {
	m, _ := testRig(t)
	size := uint64(40 * gb)
	dram0 := m.NodeByOS(0) // local to pkg0
	dram2 := m.NodeByOS(2) // remote from pkg0

	run := func(node *Node) (float64, float64) {
		e := NewEngine(m, pkg0Set())
		b, _ := m.Alloc("a", size, node)
		defer m.Free(b)
		st := e.Phase("s", []Access{{Buffer: b, ReadBytes: size}}).Seconds
		rt := e.Phase("r", []Access{{Buffer: b, RandomReads: 10_000_000}}).Seconds
		return st, rt
	}
	ls, lr := run(dram0)
	rs, rr := run(dram2)
	if rs <= ls {
		t.Fatalf("remote stream %.3f should be slower than local %.3f", rs, ls)
	}
	if rr <= lr {
		t.Fatalf("remote random %.4f should be slower than local %.4f", rr, lr)
	}
}

func TestMemorySideCache(t *testing.T) {
	// A DRAM node fronted by a fast 16GB memory-side cache.
	root := topology.New(topology.Machine, -1)
	pkg := root.AddChild(topology.New(topology.Package, 0))
	msc := pkg.AddMemChild(topology.NewMemCache(16 * gb))
	msc.AddMemChild(topology.NewNUMA(0, "DRAM", 96*gb))
	for c := 0; c < 4; c++ {
		pkg.AddChild(topology.New(topology.Core, c)).AddChild(topology.New(topology.PU, c))
	}
	topo, err := topology.Build(root)
	if err != nil {
		t.Fatal(err)
	}
	dram := NodeModel{Kind: "DRAM", ReadBW: 20, WriteBW: 10, TotalBW: 18, IdleLatency: 130, LoadedLatency: 250}
	mcModel := MemCacheModel{Size: 16 * gb, ReadBW: 300, WriteBW: 200, TotalBW: 320, Latency: 120}

	mkMachine := func(withCache bool) *Machine {
		mm := MachineModel{Nodes: map[int]NodeModel{0: dram}}
		if withCache {
			mm.MemCaches = map[int]MemCacheModel{0: mcModel}
		}
		m, err := NewMachine(topo, mm)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(m *Machine, size uint64) float64 {
		e := NewEngine(m, bitmap.NewFromRange(0, 3))
		b, _ := m.Alloc("a", size, m.NodeByOS(0))
		defer m.Free(b)
		return e.Phase("s", []Access{{Buffer: b, ReadBytes: size * 4}}).AchievedBW
	}
	plain := run(mkMachine(false), 8*gb)
	cachedFit := run(mkMachine(true), 8*gb)    // fits the cache
	cachedSpill := run(mkMachine(true), 64*gb) // mostly misses
	if cachedFit <= plain*2 {
		t.Fatalf("fitting working set should be much faster with memory-side cache: %.1f vs %.1f", cachedFit, plain)
	}
	if cachedSpill >= cachedFit/2 {
		t.Fatalf("spilling working set %.1f should be much slower than fitting %.1f", cachedSpill, cachedFit)
	}
}

func TestCountersAndStats(t *testing.T) {
	m, _ := testRig(t)
	e := NewEngine(m, pkg0Set())
	dram := m.NodeByOS(0)
	nv := m.NodeByOS(1)
	a, _ := m.Alloc("a", 40*gb, dram)
	g, _ := m.Alloc("g", 40*gb, nv)

	e.Phase("mix", []Access{
		{Buffer: a, ReadBytes: 40 * gb, WriteBytes: 10 * gb},
		{Buffer: g, RandomReads: 30_000_000},
	})
	if dram.BytesRead < 40*gb || dram.BytesWritten < 10*gb {
		t.Fatalf("DRAM counters: read=%d written=%d", dram.BytesRead, dram.BytesWritten)
	}
	if nv.RandomReads == 0 || nv.BytesRead == 0 {
		t.Fatal("NVDIMM random counters empty")
	}
	if a.LLCMisses() == 0 || g.LLCMisses() == 0 {
		t.Fatal("per-buffer LLC miss counters empty")
	}
	if a.Loads() == 0 || a.Stores() == 0 || g.Loads() == 0 {
		t.Fatal("per-buffer load/store counters empty")
	}

	st := e.Stats()
	if st.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if st.BWBoundSeconds["DRAM"] <= 0 {
		t.Fatal("DRAM bandwidth-bound time missing")
	}
	if st.StallSeconds["NVDIMM"] <= 0 {
		t.Fatal("NVDIMM stall time missing")
	}
	if len(st.Phases) != 1 || st.Phases[0].Name != "mix" {
		t.Fatalf("phases = %+v", st.Phases)
	}

	// Stats() must be a snapshot: mutating it must not affect the engine.
	st.StallSeconds["DRAM"] = 1e9
	if e.Stats().StallSeconds["DRAM"] == 1e9 {
		t.Fatal("Stats leaked internal map")
	}

	m.ResetCounters()
	if dram.BytesRead != 0 || a.LLCMisses() != 0 {
		t.Fatal("ResetCounters incomplete")
	}
	e.ResetStats()
	if e.Elapsed() != 0 || len(e.Stats().Phases) != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestPhaseOnFreedBufferPanics(t *testing.T) {
	m, _ := testRig(t)
	e := NewEngine(m, pkg0Set())
	b, _ := m.Alloc("a", gb, m.NodeByOS(0))
	m.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("phase on freed buffer should panic")
		}
	}()
	e.Phase("uaf", []Access{{Buffer: b, ReadBytes: gb}})
}

func TestAdvanceClock(t *testing.T) {
	m, _ := testRig(t)
	e := NewEngine(m, pkg0Set())
	e.AdvanceClock(1.5)
	if e.Elapsed() != 1.5 {
		t.Fatalf("Elapsed = %f", e.Elapsed())
	}
}

func TestQuickMoreTrafficMoreTime(t *testing.T) {
	m, _ := testRig(t)
	node := m.NodeByOS(0)
	b, err := m.Alloc("a", 40*gb, node)
	if err != nil {
		t.Fatal(err)
	}
	f := func(k uint8) bool {
		size := (uint64(k%16) + 1) * gb
		e1 := NewEngine(m, pkg0Set())
		t1 := e1.Phase("p", []Access{{Buffer: b, ReadBytes: size}}).Seconds
		e2 := NewEngine(m, pkg0Set())
		t2 := e2.Phase("p", []Access{{Buffer: b, ReadBytes: size * 2}}).Seconds
		return t2 > t1 && t1 > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllocNeverExceedsCapacity(t *testing.T) {
	f := func(sizes []uint32) bool {
		m, _ := testRig(t)
		node := m.NodeByOS(0)
		var want uint64
		for i, s := range sizes {
			sz := uint64(s) * 1024
			if _, err := m.Alloc("b", sz, node); err == nil {
				want += sz
			} else if !errors.Is(err, ErrNoCapacity) {
				return false
			}
			if node.Allocated() != want || node.Allocated() > node.Capacity() {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
