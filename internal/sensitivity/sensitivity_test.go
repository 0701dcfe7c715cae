package sensitivity

import (
	"errors"
	"testing"

	"hetmem/internal/bench"
	"hetmem/internal/bitmap"
	"hetmem/internal/graph500"
	"hetmem/internal/hmat"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/platform"
	"hetmem/internal/profile"
	"hetmem/internal/stream"
)

const gib = uint64(1) << 30

type rig struct {
	m   *memsim.Machine
	reg *memattr.Registry
	ini *bitmap.Bitmap
}

func xeonRig(t *testing.T) rig {
	t.Helper()
	p, err := platform.Get("xeon")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	reg := memattr.NewRegistry(p.Topo)
	if err := hmat.Apply(p.HMATTable(), reg); err != nil {
		t.Fatal(err)
	}
	return rig{m, reg, bitmap.NewFromRange(0, 19)}
}

func knlRig(t *testing.T) rig {
	t.Helper()
	p, err := platform.Get("knl-snc4-flat")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	results, err := bench.MeasureAll(m, bench.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := memattr.NewRegistry(p.Topo)
	if err := bench.Apply(results, reg); err != nil {
		t.Fatal(err)
	}
	return rig{m, reg, bitmap.NewFromRange(0, 15)}
}

// graph500On runs the analytic Graph500 entirely on one node and
// returns the harmonic TEPS — the process-level benchmarking method.
func graph500On(t *testing.T, r rig, scale int, params graph500.SimParams) func(*memsim.Node) (float64, error) {
	return func(n *memsim.Node) (float64, error) {
		s := graph500.Sizes(scale, 16)
		bufs, err := graph500.AllocBuffers(func(name string, size uint64) (*memsim.Buffer, error) {
			return r.m.Alloc(name, size, n)
		}, s)
		if err != nil {
			return 0, err
		}
		defer bufs.Free(r.m)
		e := memsim.NewEngine(r.m, r.ini)
		e.SetThreads(16)
		an := graph500.AnalyticStats(scale, 16)
		res := graph500.RunTEPS(e, bufs, []graph500.BFSStats{an, an}, params)
		return res.HarmonicTEPS, nil
	}
}

func localNodes(r rig, kinds ...string) []*memsim.Node {
	want := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []*memsim.Node
	for _, obj := range r.m.Topology().LocalNUMANodes(r.ini) {
		if want[obj.Subtype] {
			out = append(out, r.m.Node(obj))
		}
	}
	return out
}

func TestUseCaseBenchmarkingConvergesOnLatency(t *testing.T) {
	// Section VI-A end to end: benchmark Graph500 on both testbeds,
	// classify, intersect — the answer must be Latency.
	xeon := xeonRig(t)
	xm, err := BenchmarkProcess(localNodes(xeon, "DRAM", "NVDIMM"), graph500On(t, xeon, 23, graph500.SimParams{}))
	if err != nil {
		t.Fatal(err)
	}
	xeonCands, err := ClassifyFromBench(xm, xeon.reg, xeon.ini)
	if err != nil {
		t.Fatal(err)
	}
	// On the Xeon, DRAM wins and is better in both latency and
	// bandwidth: both hypotheses survive.
	if !contains(xeonCands, memattr.Latency) || !contains(xeonCands, memattr.Bandwidth) {
		t.Fatalf("xeon candidates = %v", names(xeon.reg, xeonCands))
	}

	knl := knlRig(t)
	km, err := BenchmarkProcess(localNodes(knl, "DRAM", "MCDRAM"), graph500On(t, knl, 21, graph500.SimParams{CPUPerEdge: 1.8e-7, MLP: 3}))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Table IIb observation: HBM ≈ DRAM.
	spread := (km[0].Metric - km[1].Metric) / km[0].Metric
	if spread < 0 {
		spread = -spread
	}
	if spread > 0.05 {
		t.Fatalf("KNL TEPS spread %.3f should be small (HBM %.3g vs DRAM %.3g)", spread, km[1].Metric, km[0].Metric)
	}
	knlCands, err := ClassifyFromBench(km, knl.reg, knl.ini)
	if err != nil {
		t.Fatal(err)
	}
	// Bandwidth must be rejected: 3x the bandwidth bought nothing.
	if contains(knlCands, memattr.Bandwidth) {
		t.Fatalf("knl candidates = %v: bandwidth should be rejected", names(knl.reg, knlCands))
	}
	if !contains(knlCands, memattr.Latency) {
		t.Fatalf("knl candidates = %v: latency should survive (equal latencies, equal TEPS)", names(knl.reg, knlCands))
	}

	final := Intersect(xeonCands, knlCands)
	if len(final) != 1 || final[0] != memattr.Latency {
		t.Fatalf("intersection = %v, want [Latency]", names(xeon.reg, final))
	}
}

func TestStreamClassifiesBandwidth(t *testing.T) {
	// STREAM on KNL: MCDRAM is 3x faster, consistent with bandwidth;
	// latency (equal values) also survives vacuously, but bandwidth
	// must lead by support.
	knl := knlRig(t)
	runStream := func(n *memsim.Node) (float64, error) {
		ar, err := stream.AllocArrays(func(name string, size uint64) (*memsim.Buffer, error) {
			return r0alloc(knl, name, size, n)
		}, gib/stream.ElemBytes)
		if err != nil {
			return 0, err
		}
		defer ar.Free(knl.m)
		e := memsim.NewEngine(knl.m, knl.ini)
		return stream.Run(e, ar, 2).TriadBW, nil
	}
	km, err := BenchmarkProcess(localNodes(knl, "DRAM", "MCDRAM"), runStream)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := ClassifyFromBench(km, knl.reg, knl.ini)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || cands[0] != memattr.Bandwidth {
		t.Fatalf("stream candidates = %v, want Bandwidth first", names(knl.reg, cands))
	}
}

func r0alloc(r rig, name string, size uint64, n *memsim.Node) (*memsim.Buffer, error) {
	return r.m.Alloc(name, size, n)
}

func TestClassifyErrors(t *testing.T) {
	xeon := xeonRig(t)
	if _, err := ClassifyFromBench(nil, xeon.reg, xeon.ini); !errors.Is(err, ErrNoMetrics) {
		t.Fatalf("err = %v", err)
	}
	n := xeon.m.NodeByOS(0)
	bad := []NodeMetric{{n, 0}, {xeon.m.NodeByOS(2), 0}}
	if _, err := ClassifyFromBench(bad, xeon.reg, xeon.ini); !errors.Is(err, ErrNoMetrics) {
		t.Fatalf("err = %v", err)
	}
}

func TestBenchmarkProcessPropagatesError(t *testing.T) {
	xeon := xeonRig(t)
	boom := errors.New("boom")
	_, err := BenchmarkProcess([]*memsim.Node{xeon.m.NodeByOS(0)}, func(*memsim.Node) (float64, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestIntersect(t *testing.T) {
	a := []memattr.ID{memattr.Latency, memattr.Bandwidth}
	b := []memattr.ID{memattr.Capacity, memattr.Latency}
	got := Intersect(a, b)
	if len(got) != 1 || got[0] != memattr.Latency {
		t.Fatalf("got %v", got)
	}
	if Intersect() != nil {
		t.Fatal("empty intersect should be nil")
	}
	if got := Intersect(a); len(got) != 2 {
		t.Fatalf("single-list intersect = %v", got)
	}
	if got := Intersect(a, nil); len(got) != 0 {
		t.Fatalf("disjoint intersect = %v", got)
	}
}

func TestFromProfile(t *testing.T) {
	if FromProfile(profile.Summary{BandwidthSensitive: true, BandwidthKind: "DRAM"}) != memattr.Bandwidth {
		t.Fatal("bandwidth flag should map to Bandwidth")
	}
	if FromProfile(profile.Summary{LatencySensitive: true}) != memattr.Latency {
		t.Fatal("latency flag should map to Latency")
	}
	if FromProfile(profile.Summary{}) != memattr.Capacity {
		t.Fatal("no flags should map to Capacity")
	}
}

func TestFromHotObjectsUseCase(t *testing.T) {
	// Profile Graph500 on the Xeon and derive per-buffer attributes:
	// the parent array must come out Latency — the paper's actionable
	// conclusion ("allocate this buffer with the latency attribute").
	xeon := xeonRig(t)
	s := graph500.Sizes(23, 16)
	node := xeon.m.NodeByOS(0)
	bufs, err := graph500.AllocBuffers(func(name string, size uint64) (*memsim.Buffer, error) {
		return xeon.m.Alloc(name, size, node)
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	defer bufs.Free(xeon.m)
	e := memsim.NewEngine(xeon.m, xeon.ini)
	e.SetThreads(16)
	an := graph500.AnalyticStats(23, 16)
	graph500.RunTEPS(e, bufs, []graph500.BFSStats{an}, graph500.SimParams{})

	recs := FromHotObjects(profile.HotObjects(bufs.All()), 0.02)
	byName := map[string]BufferRecommendation{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["bfs_parent"].Attr != memattr.Latency {
		t.Fatalf("bfs_parent -> %v (%s)", byName["bfs_parent"].Attr, byName["bfs_parent"].Rationale)
	}
	if byName["csr_adj"].Attr != memattr.Bandwidth {
		t.Fatalf("csr_adj -> %v (%s)", byName["csr_adj"].Attr, byName["csr_adj"].Rationale)
	}
	// The tiny queue contributes almost no misses: Capacity.
	if byName["bfs_visited"].Attr != memattr.Capacity {
		t.Fatalf("bfs_visited -> %v (%s)", byName["bfs_visited"].Attr, byName["bfs_visited"].Rationale)
	}
}

func TestAnalyzeStatic(t *testing.T) {
	kernels := []KernelSpec{
		{Name: "triad", Uses: []BufferUse{
			{Buffer: "a", Pattern: Sequential, AccessesPerElement: 1},
			{Buffer: "b", Pattern: Sequential, AccessesPerElement: 1},
		}},
		{Name: "bfs", Uses: []BufferUse{
			{Buffer: "parent", Pattern: Random, AccessesPerElement: 16},
			{Buffer: "adj", Pattern: Sequential, AccessesPerElement: 2},
			{Buffer: "work", Pattern: PointerChase, AccessesPerElement: 0}, // weight defaults to 1
		}},
		// A buffer used both ways: the heavier use wins.
		{Name: "mixed", Uses: []BufferUse{
			{Buffer: "idx", Pattern: Sequential, AccessesPerElement: 1},
			{Buffer: "idx", Pattern: Random, AccessesPerElement: 8},
		}},
	}
	got := AnalyzeStatic(kernels)
	want := map[string]memattr.ID{
		"a": memattr.Bandwidth, "b": memattr.Bandwidth,
		"parent": memattr.Latency, "adj": memattr.Bandwidth,
		"work": memattr.Latency, "idx": memattr.Latency,
	}
	for name, attr := range want {
		if got[name] != attr {
			t.Errorf("%s -> %v, want %v", name, got[name], attr)
		}
	}
	// Equal weights: the irregular use wins the tie.
	tie := AnalyzeStatic([]KernelSpec{{Name: "t", Uses: []BufferUse{
		{Buffer: "x", Pattern: Sequential, AccessesPerElement: 2},
		{Buffer: "x", Pattern: PointerChase, AccessesPerElement: 2},
	}}})
	if tie["x"] != memattr.Latency {
		t.Fatalf("tie broke to %v", tie["x"])
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[AccessPattern]string{
		Sequential: "sequential", Strided: "strided", Random: "random",
		PointerChase: "pointer-chase", AccessPattern(99): "unknown",
	} {
		if p.String() != want {
			t.Errorf("%d -> %q", p, p.String())
		}
	}
}

func contains(ids []memattr.ID, id memattr.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func names(reg *memattr.Registry, ids []memattr.ID) []string {
	var out []string
	for _, id := range ids {
		out = append(out, reg.Name(id))
	}
	return out
}
