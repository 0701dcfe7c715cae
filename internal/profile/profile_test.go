package profile

import (
	"strings"
	"testing"

	"hetmem/internal/bitmap"
	"hetmem/internal/graph500"
	"hetmem/internal/memsim"
	"hetmem/internal/platform"
	"hetmem/internal/stream"
)

const gib = uint64(1) << 30

func xeonMachine(t *testing.T) *memsim.Machine {
	t.Helper()
	p, err := platform.Get("xeon")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func placeOn(m *memsim.Machine, os int) func(string, uint64) (*memsim.Buffer, error) {
	return func(name string, size uint64) (*memsim.Buffer, error) {
		return m.Alloc(name, size, m.NodeByOS(os))
	}
}

// runGraph500 profiles an analytic Graph500 run placed on one node.
func runGraph500(t *testing.T, m *memsim.Machine, nodeOS int) (Summary, []ObjectReport) {
	t.Helper()
	s := graph500.Sizes(23, 16)
	bufs, err := graph500.AllocBuffers(placeOn(m, nodeOS), s)
	if err != nil {
		t.Fatal(err)
	}
	defer bufs.Free(m)
	e := memsim.NewEngine(m, bitmap.NewFromRange(0, 19))
	e.SetThreads(16)
	an := graph500.AnalyticStats(23, 16)
	graph500.RunTEPS(e, bufs, []graph500.BFSStats{an, an}, graph500.SimParams{})
	sum := Summarize(e.Stats())
	objs := HotObjects(bufs.All())
	return sum, objs
}

// runStream profiles a STREAM run placed on one node.
func runStream(t *testing.T, m *memsim.Machine, nodeOS int) Summary {
	t.Helper()
	ar, err := stream.AllocArrays(placeOn(m, nodeOS), 22*gib/3/stream.ElemBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Free(m)
	e := memsim.NewEngine(m, bitmap.NewFromRange(0, 19))
	stream.Run(e, ar, 3)
	return Summarize(e.Stats())
}

func TestTableIVShape(t *testing.T) {
	// The four Table IV rows: the flags must land where the paper's do.
	m := xeonMachine(t)

	g500DRAM, _ := runGraph500(t, m, 0)
	m.ResetCounters()
	g500NV, _ := runGraph500(t, m, 2)
	m.ResetCounters()
	strDRAM := runStream(t, m, 0)
	m.ResetCounters()
	strNV := runStream(t, m, 2)

	// Graph500 is latency-sensitive on both placements, never
	// bandwidth-bound.
	for name, s := range map[string]Summary{"g500-dram": g500DRAM, "g500-nv": g500NV} {
		if !s.LatencySensitive || s.BandwidthSensitive {
			t.Errorf("%s flags: latency=%v bandwidth=%v (want latency only); %+v", name, s.LatencySensitive, s.BandwidthSensitive, s)
		}
		if s.DRAMBWBoundPct() > 15 || s.PMemBWBoundPct() > 15 {
			t.Errorf("%s bandwidth-bound too high: %+v", name, s.BWBoundPct)
		}
	}
	// Stalls are higher on NVDIMM (63% vs 29% in the paper).
	if g500NV.DRAMBoundPct <= g500DRAM.DRAMBoundPct {
		t.Errorf("NVDIMM run should stall more: %.1f vs %.1f", g500NV.DRAMBoundPct, g500DRAM.DRAMBoundPct)
	}
	// The overlapping-counter semantics: on NVDIMM, PMem Bound tracks
	// DRAM Bound closely; on DRAM it is zero.
	if g500DRAM.PMemBoundPct != 0 {
		t.Errorf("PMem bound on a DRAM run: %.1f", g500DRAM.PMemBoundPct)
	}
	if g500NV.PMemBoundPct < g500NV.DRAMBoundPct*0.8 {
		t.Errorf("NVDIMM run PMem bound %.1f should track DRAM bound %.1f", g500NV.PMemBoundPct, g500NV.DRAMBoundPct)
	}

	// STREAM is bandwidth-sensitive, with the flag on the kind it ran on.
	if !strDRAM.BandwidthSensitive || strDRAM.BandwidthKind != "DRAM" || strDRAM.LatencySensitive {
		t.Errorf("stream-dram flags wrong: %+v", strDRAM)
	}
	if !strNV.BandwidthSensitive || strNV.BandwidthKind != "NVDIMM" {
		t.Errorf("stream-nv flags wrong: %+v", strNV)
	}
	// Paper: DRAM Bandwidth Bound 80.4% on the DRAM run.
	if strDRAM.DRAMBWBoundPct() < 50 {
		t.Errorf("stream-dram DRAM BW bound = %.1f, want high", strDRAM.DRAMBWBoundPct())
	}
	if strNV.PMemBWBoundPct() < 50 {
		t.Errorf("stream-nv PMem BW bound = %.1f, want high", strNV.PMemBWBoundPct())
	}
}

func TestHotObjectsFig7a(t *testing.T) {
	m := xeonMachine(t)
	_, objs := runGraph500(t, m, 0)
	if len(objs) < 5 {
		t.Fatalf("objects = %d", len(objs))
	}
	// The top two objects by LLC misses are the parent array (random
	// probes) and the adjacency array — the paper identifies the
	// xmalloc'd column array as the hot object.
	top2 := []string{objs[0].Name, objs[1].Name}
	want := map[string]bool{"bfs_parent": true, "csr_adj": true}
	for _, n := range top2 {
		if !want[n] {
			t.Fatalf("top objects = %v, want bfs_parent and csr_adj first", top2)
		}
	}
	// The parent array's misses are overwhelmingly random → latency
	// sensitivity; the adjacency array streams → bandwidth.
	for _, o := range objs {
		switch o.Name {
		case "bfs_parent":
			if o.Sensitivity() != "Latency" {
				t.Errorf("bfs_parent classified %s (random share %.2f)", o.Sensitivity(), o.RandomShare)
			}
		case "csr_adj":
			if o.Sensitivity() != "Bandwidth" {
				t.Errorf("csr_adj classified %s (random share %.2f)", o.Sensitivity(), o.RandomShare)
			}
		}
		if o.Placement == "" || o.Size == 0 {
			t.Errorf("incomplete report %+v", o)
		}
	}
	// Ranking is by misses, descending.
	for i := 1; i < len(objs); i++ {
		if objs[i].LLCMisses > objs[i-1].LLCMisses {
			t.Fatal("hot objects not sorted")
		}
	}
}

func TestTimeline(t *testing.T) {
	m := xeonMachine(t)
	ar, err := stream.AllocArrays(placeOn(m, 0), gib/stream.ElemBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Free(m)
	e := memsim.NewEngine(m, bitmap.NewFromRange(0, 19))
	stream.Run(e, ar, 2)
	tl := Timeline(e.Stats())
	if len(tl) != 8 { // 4 kernels × 2 iterations
		t.Fatalf("timeline entries = %d", len(tl))
	}
	for _, p := range tl {
		if p.AchievedBW <= 0 || p.Seconds <= 0 || p.BoundKind != "DRAM" {
			t.Fatalf("timeline entry %+v", p)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(memsim.Stats{})
	if s.LatencySensitive || s.BandwidthSensitive || s.DRAMBoundPct != 0 {
		t.Fatalf("empty stats produced flags: %+v", s)
	}
}

func TestRenderers(t *testing.T) {
	m := xeonMachine(t)
	sum, objs := runGraph500(t, m, 2)
	txt := RenderSummary(map[string]Summary{"Graph500/NVDIMM": sum})
	if !strings.Contains(txt, "Graph500/NVDIMM") || !strings.Contains(txt, "latency-sensitive") {
		t.Fatalf("summary render:\n%s", txt)
	}
	objTxt := RenderObjects(objs)
	if !strings.Contains(objTxt, "bfs_parent") || !strings.Contains(objTxt, "NVDIMM#2") {
		t.Fatalf("objects render:\n%s", objTxt)
	}
}

func TestRenderTimeline(t *testing.T) {
	m := xeonMachine(t)
	ar, err := stream.AllocArrays(placeOn(m, 0), gib/stream.ElemBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Free(m)
	e := memsim.NewEngine(m, bitmap.NewFromRange(0, 19))
	stream.Run(e, ar, 1)
	out := RenderTimeline(Timeline(e.Stats()))
	if !strings.Contains(out, "stream-triad") || !strings.Contains(out, "#") {
		t.Fatalf("timeline render:\n%s", out)
	}
	if RenderTimeline(nil) == "" {
		t.Fatal("empty timeline should still render a header")
	}
}
