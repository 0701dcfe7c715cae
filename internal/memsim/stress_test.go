package memsim

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestConcurrentAllocFree hammers the machine's allocation accounting
// from many goroutines; the mutex must keep it consistent and the
// final state must be empty.
func TestConcurrentAllocFree(t *testing.T) {
	m, _ := testRig(t)
	node := m.NodeByOS(0)
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				size := uint64(r.Intn(1<<20) + 1)
				b, err := m.Alloc("b", size, node)
				if err != nil {
					continue
				}
				if r.Intn(4) == 0 {
					m.Migrate(b, m.NodeByOS(1))
				}
				m.Free(b)
			}
		}()
	}
	wg.Wait()
	for _, n := range m.Nodes() {
		if n.Allocated() != 0 {
			t.Fatalf("node %v leaked %d bytes", n.Obj, n.Allocated())
		}
	}
}

// TestDeterminism: the model must be bit-for-bit reproducible — the
// basis of trace replay equivalence.
func TestDeterminism(t *testing.T) {
	run := func() float64 {
		m, _ := testRig(t)
		e := NewEngine(m, pkg0Set())
		a, _ := m.Alloc("a", 10*gb, m.NodeByOS(0))
		g, _ := m.Alloc("g", 10*gb, m.NodeByOS(1))
		e.Phase("p1", []Access{
			{Buffer: a, ReadBytes: 30 * gb, WriteBytes: 5 * gb},
			{Buffer: g, RandomReads: 12_345_678, MLP: 3},
		})
		e.Phase("p2", []Access{{Buffer: g, ReadBytes: 7 * gb}})
		return e.Elapsed()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic engine: %v != %v", a, b)
	}
}

func TestEmptyPhase(t *testing.T) {
	m, _ := testRig(t)
	e := NewEngine(m, pkg0Set())
	res := e.Phase("empty", nil)
	if res.Seconds != 0 || res.BoundKind != "" || res.BoundNode != -1 {
		t.Fatalf("empty phase = %+v", res)
	}
	// Nil buffers are skipped; pure CPU accesses still cost time.
	res = e.Phase("cpu-only", []Access{{CPUSeconds: 0.5}})
	if res.Seconds != 0.5 || res.CPUSeconds != 0.5 {
		t.Fatalf("cpu-only phase = %+v", res)
	}
}

func TestQuickLatencyMonotoneInUtilization(t *testing.T) {
	model := NodeModel{IdleLatency: 100, LoadedLatency: 400}
	f := func(a, b uint8) bool {
		u1 := float64(a%101) / 100
		u2 := float64(b%101) / 100
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		return model.effectiveLatency(u1, 1<<30) <= model.effectiveLatency(u2, 1<<30)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Out-of-range utilization clamps instead of extrapolating.
	if model.effectiveLatency(-3, 0) != 100 || model.effectiveLatency(9, 0) != 400 {
		t.Fatal("utilization clamping broken")
	}
}

func TestQuickBandwidthMonotoneInWorkingSet(t *testing.T) {
	model := NodeModel{
		ReadBW: 30, WriteBW: 4, TotalBW: 26,
		BufferBytes: 32 * gb, BufferedReadBW: 60, BufferedWriteBW: 13, BufferedTotalBW: 35,
		DegradePerTiB: 0.7,
	}
	f := func(a, b uint16) bool {
		w1 := uint64(a) << 28 // up to ~16 TiB
		w2 := uint64(b) << 28
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		_, _, t1 := model.effectiveBW(w1)
		_, _, t2 := model.effectiveBW(w2)
		return t1 >= t2 // bigger working set is never faster
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// The degrade floor: bandwidth never collapses below 20% of base.
	_, _, tt := model.effectiveBW(1 << 45)
	if tt < 26*0.2-1e-9 {
		t.Fatalf("degrade floor broken: %f", tt)
	}
}

func TestQuickOverflowLatencyKicksIn(t *testing.T) {
	model := NodeModel{
		IdleLatency: 300, LoadedLatency: 800,
		BufferBytes: 32 * gb, OverflowLatencyFactor: 2,
	}
	below := model.effectiveLatency(0, 31*gb)
	above := model.effectiveLatency(0, 33*gb)
	if below != 300 || above != 600 {
		t.Fatalf("overflow latency: below=%f above=%f", below, above)
	}
}

// TestSplitBufferTrafficProportional: a buffer split across two nodes
// spreads its traffic by segment size; the phase is bound by the
// slower share.
func TestSplitBufferTrafficProportional(t *testing.T) {
	m, _ := testRig(t)
	dram, nv := m.NodeByOS(0), m.NodeByOS(1)
	b, err := m.AllocSplit("split", []Segment{{dram, 30 * gb}, {nv, 10 * gb}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, pkg0Set())
	e.Phase("s", []Access{{Buffer: b, ReadBytes: 40 * gb}})
	// 3/4 of the traffic on DRAM, 1/4 on NVDIMM (± rounding).
	if dram.BytesRead < 29*gb || dram.BytesRead > 31*gb {
		t.Fatalf("DRAM share = %d", dram.BytesRead)
	}
	if nv.BytesRead < 9*gb || nv.BytesRead > 11*gb {
		t.Fatalf("NVDIMM share = %d", nv.BytesRead)
	}
	// Nodes stream concurrently, so for *bandwidth* the split
	// aggregates the two memories and beats pure DRAM — the very
	// reason the interleave policy exists.
	b2, _ := m.Alloc("pure", 40*gb, dram)
	e2 := NewEngine(m, pkg0Set())
	pureStream := e2.Phase("s", []Access{{Buffer: b2, ReadBytes: 40 * gb}})
	e3 := NewEngine(m, pkg0Set())
	splitStream := e3.Phase("s", []Access{{Buffer: b, ReadBytes: 40 * gb}})
	if splitStream.Seconds >= pureStream.Seconds {
		t.Fatalf("split stream %.3f should aggregate bandwidth vs pure DRAM %.3f",
			splitStream.Seconds, pureStream.Seconds)
	}
	// For *latency* the split drags: a quarter of the random misses
	// pay the NVDIMM latency — the paper's warning about partial
	// allocations causing irregular performance.
	e4 := NewEngine(m, pkg0Set())
	pureRand := e4.Phase("r", []Access{{Buffer: b2, RandomReads: 50_000_000, MLP: 4}})
	e5 := NewEngine(m, pkg0Set())
	splitRand := e5.Phase("r", []Access{{Buffer: b, RandomReads: 50_000_000, MLP: 4}})
	if splitRand.Seconds <= pureRand.Seconds {
		t.Fatalf("split random %.3f should be slower than pure DRAM %.3f",
			splitRand.Seconds, pureRand.Seconds)
	}
}

// TestSharedMachineCapacityPressure: two engines (two "jobs") share
// one machine; the second job sees only what the first left — the
// available-capacity consideration of paper Section III-B3.
func TestSharedMachineCapacityPressure(t *testing.T) {
	m, _ := testRig(t)
	dram := m.NodeByOS(0)
	if _, err := m.Alloc("job1", 90*gb, dram); err != nil {
		t.Fatal(err)
	}
	if dram.Available() != 6*gb {
		t.Fatalf("available = %d", dram.Available())
	}
	if _, err := m.Alloc("job2", 10*gb, dram); err == nil {
		t.Fatal("job2 should not fit")
	}
	if _, err := m.Alloc("job2", 6*gb, dram); err != nil {
		t.Fatal(err)
	}
}
