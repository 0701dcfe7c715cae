package experiments

import (
	"fmt"

	"hetmem/internal/alloc"
	"hetmem/internal/bitmap"
	"hetmem/internal/core"
	"hetmem/internal/graph500"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/policy"
	"hetmem/internal/profile"
	"hetmem/internal/stream"
)

func init() {
	register("table2a", "Graph500 TEPS on the Xeon: DRAM vs NVDIMM across graph sizes", func() (string, error) {
		t, err := Table2a()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
	register("table2b", "Graph500 TEPS on the KNL cluster: HBM vs DRAM", func() (string, error) {
		t, err := Table2b()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
	register("table3a", "STREAM Triad on the Xeon by optimized criteria", func() (string, error) {
		t, err := Table3a()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
	register("table3b", "STREAM Triad on the KNL cluster by optimized criteria", func() (string, error) {
		t, err := Table3b()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
	register("table4", "VTune-style execution summaries for Graph500 and STREAM", func() (string, error) {
		return Table4()
	})
	register("fig7a", "per-object memory-access analysis of Graph500 (DRAM vs NVDIMM)", Fig7a)
	register("fig7b", "per-object memory-access analysis of STREAM Triad", Fig7b)
}

// xeonProcs and knlProcs are the paper's process counts: 16 MPI ranks
// on one Xeon package / one KNL cluster.
const (
	xeonProcs     = 16
	knlProcs      = 16
	knlCPUPerEdge = 1.8e-7 // slow KNL cores, calibrated against Table IIb magnitudes
	knlMLP        = 3      // in-order cores sustain few outstanding misses
	nRoots        = 4
)

// Graph500Cell is one (graph size, placement) measurement.
type Graph500Cell struct {
	Scale   int
	GraphGB float64
	// TEPSe8 maps the placement label (DRAM / NVDIMM / HBM) to TEPS
	// in units of 1e8, as Table II reports.
	TEPSe8 map[string]float64
}

// runGraph500On replays the analytic BFS profile with all buffers
// placed through the given placement function.
func runGraph500On(sys *core.System, ini *bitmap.Bitmap, threads, scale int,
	params graph500.SimParams,
	place func(name string, size uint64) (*memsim.Buffer, error)) (float64, error) {

	s := graph500.Sizes(scale, 16)
	bufs, err := graph500.AllocBuffers(place, s)
	if err != nil {
		return 0, err
	}
	defer bufs.Free(sys.Machine)
	e := sys.Engine(ini)
	e.SetThreads(threads)
	an := graph500.AnalyticStats(scale, 16)
	stats := make([]graph500.BFSStats, nRoots)
	for i := range stats {
		stats[i] = an
	}
	return graph500.RunTEPS(e, bufs, stats, params).HarmonicTEPS, nil
}

// Table2aData measures Graph500 on the Xeon with the whole process on
// DRAM and on NVDIMM, for edge lists of 2.15 to 34.36 GB (scales
// 23-27) — the process-level benchmarking method of Section VI-A.
func Table2aData() ([]Graph500Cell, error) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		return nil, err
	}
	ini := sys.InitiatorForPackage(0)
	var out []Graph500Cell
	for scale := 23; scale <= 27; scale++ {
		s := graph500.Sizes(scale, 16)
		cell := Graph500Cell{Scale: scale, GraphGB: float64(s.GraphLabelB) / 1e9, TEPSe8: map[string]float64{}}
		for label, nodeOS := range map[string]int{"DRAM": 0, "NVDIMM": 2} {
			// numactl --membind style whole-process binding, the paper's
			// Section VI-A benchmarking method.
			place := policy.Policy{Mode: policy.Bind, Nodes: []int{nodeOS}}.Placer(sys.Machine, ini)
			teps, err := runGraph500On(sys, ini, xeonProcs, scale, graph500.SimParams{}, place)
			if err != nil {
				return nil, fmt.Errorf("table2a scale %d on %s: %w", scale, label, err)
			}
			cell.TEPSe8[label] = teps / 1e8
		}
		out = append(out, cell)
	}
	return out, nil
}

// Table2a renders Table IIa.
func Table2a() (*Table, error) {
	data, err := Table2aData()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table2a",
		Title:  "Graph500 TEPS(e+8), Xeon, 16 procs on one package (paper Table IIa)",
		Header: []string{"Graph Size", "DRAM", "NVDIMM", "DRAM/NVDIMM"},
		Notes: []string{
			"paper: DRAM 3.42..2.99, NVDIMM 2.06..1.04; DRAM 1.5-3x better, NVDIMM cliff at 34.36GB",
		},
	}
	for _, c := range data {
		d, n := c.TEPSe8["DRAM"], c.TEPSe8["NVDIMM"]
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2f GB", c.GraphGB), f3(d), f3(n), f2(d / n)})
	}
	return t, nil
}

// Table2bData measures Graph500 on one KNL cluster, on MCDRAM (with
// ranked fallback for what does not fit, as the paper's allocator
// does) and on DRAM, for scales 23-24.
func Table2bData() ([]Graph500Cell, error) {
	sys, err := core.NewSystem("knl-snc4-flat", core.Options{})
	if err != nil {
		return nil, err
	}
	ini := sys.InitiatorForGroup(0)
	params := graph500.SimParams{CPUPerEdge: knlCPUPerEdge, MLP: knlMLP}
	var out []Graph500Cell
	for scale := 23; scale <= 24; scale++ {
		s := graph500.Sizes(scale, 16)
		cell := Graph500Cell{Scale: scale, GraphGB: float64(s.GraphLabelB) / 1e9, TEPSe8: map[string]float64{}}

		// HBM run: bandwidth-ranked placement with partial spill (the
		// 4.29GB graph does not fit the 4GB MCDRAM).
		teps, err := runGraph500On(sys, ini, knlProcs, scale, params,
			func(name string, size uint64) (*memsim.Buffer, error) {
				b, _, err := sys.MemAlloc(name, size, memattr.Bandwidth, ini, alloc.WithPartial())
				return b, err
			})
		if err != nil {
			return nil, fmt.Errorf("table2b scale %d on HBM: %w", scale, err)
		}
		cell.TEPSe8["HBM"] = teps / 1e8

		// DRAM run.
		node := sys.Machine.NodeByOS(0)
		teps, err = runGraph500On(sys, ini, knlProcs, scale, params,
			func(name string, size uint64) (*memsim.Buffer, error) {
				return sys.Machine.Alloc(name, size, node)
			})
		if err != nil {
			return nil, fmt.Errorf("table2b scale %d on DRAM: %w", scale, err)
		}
		cell.TEPSe8["DRAM"] = teps / 1e8
		out = append(out, cell)
	}
	return out, nil
}

// Table2b renders Table IIb.
func Table2b() (*Table, error) {
	data, err := Table2bData()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table2b",
		Title:  "Graph500 TEPS(e+8), KNL, 16 procs on one cluster (paper Table IIb)",
		Header: []string{"Graph Size", "HBM", "DRAM", "HBM/DRAM"},
		Notes: []string{
			"paper: 0.418 vs 0.415 and 0.402 vs 0.396 - the choice barely matters (latencies are similar)",
		},
	}
	for _, c := range data {
		h, d := c.TEPSe8["HBM"], c.TEPSe8["DRAM"]
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2f GB", c.GraphGB), f3(h), f3(d), f2(h / d)})
	}
	return t, nil
}

// StreamCell is one (criterion, size) measurement of Table III.
type StreamCell struct {
	Criterion  string
	BestTarget string
	TotalGiB   float64
	TriadGBs   float64
	// Failed marks the paper's blank cells: the criterion's targets
	// cannot hold the arrays.
	Failed bool
	// Spilled marks runs where at least one array fell back past the
	// best-ranked target (e.g. the KNL 17.9GiB bandwidth run, whose
	// arrays exceed the MCDRAM and land on DRAM).
	Spilled bool
}

// streamByCriterion allocates the three arrays via the heterogeneous
// allocator optimizing the given attribute, runs STREAM, and reports
// the triad figure. Array-level ranked fallback happens naturally (the
// KNL 17.9GiB bandwidth case lands on DRAM because each array exceeds
// the MCDRAM).
func streamByCriterion(sys *core.System, ini *bitmap.Bitmap, attr memattr.ID, totalGiB float64) (StreamCell, error) {
	cell := StreamCell{Criterion: sys.Registry.Name(attr), TotalGiB: totalGiB}
	elems := uint64(totalGiB * float64(1<<30) / 3 / stream.ElemBytes)
	var firstDec *alloc.Decision
	spilled := false
	ar, err := stream.AllocArrays(func(name string, size uint64) (*memsim.Buffer, error) {
		b, dec, err := sys.MemAlloc(name, size, attr, ini)
		if err == nil {
			if firstDec == nil {
				firstDec = &dec
			}
			if dec.RankPosition > 0 {
				spilled = true
			}
		}
		return b, err
	}, elems)
	if err != nil {
		cell.Failed = true
		return cell, nil
	}
	defer ar.Free(sys.Machine)
	if firstDec != nil {
		cell.BestTarget = firstDec.Target.Subtype
	}
	cell.Spilled = spilled
	e := sys.Engine(ini)
	res := stream.Run(e, ar, 3)
	cell.TriadGBs = res.TriadBW
	return cell, nil
}

// Table3aData reproduces Table IIIa: Xeon, 20 threads, criteria
// Capacity (NVDIMM) and Latency (DRAM), totals 22.4/89.4/223.5 GiB.
func Table3aData() ([]StreamCell, error) {
	var out []StreamCell
	for _, attr := range []memattr.ID{memattr.Capacity, memattr.Latency} {
		for _, total := range []float64{22.4, 89.4, 223.5} {
			sys, err := core.NewSystem("xeon", core.Options{})
			if err != nil {
				return nil, err
			}
			cell, err := streamByCriterion(sys, sys.InitiatorForPackage(0), attr, total)
			if err != nil {
				return nil, err
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// Table3bData reproduces Table IIIb: KNL cluster, 16 threads, criteria
// Bandwidth (MCDRAM, falling back to DRAM when full) and Latency
// (DRAM), totals 1.1/3.4/17.9 GiB.
func Table3bData() ([]StreamCell, error) {
	var out []StreamCell
	for _, attr := range []memattr.ID{memattr.Bandwidth, memattr.Latency} {
		for _, total := range []float64{1.1, 3.4, 17.9} {
			sys, err := core.NewSystem("knl-snc4-flat", core.Options{})
			if err != nil {
				return nil, err
			}
			cell, err := streamByCriterion(sys, sys.InitiatorForGroup(0), attr, total)
			if err != nil {
				return nil, err
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

func renderStreamTable(id, title string, data []StreamCell, sizes []float64, notes []string) *Table {
	t := &Table{ID: id, Title: title, Notes: notes}
	t.Header = []string{"Optimized Criteria", "Best Target"}
	for _, s := range sizes {
		t.Header = append(t.Header, fmt.Sprintf("%.1fGiB", s))
	}
	byCrit := map[string][]StreamCell{}
	var order []string
	for _, c := range data {
		if _, seen := byCrit[c.Criterion]; !seen {
			order = append(order, c.Criterion)
		}
		byCrit[c.Criterion] = append(byCrit[c.Criterion], c)
	}
	for _, crit := range order {
		cells := byCrit[crit]
		target := ""
		row := []string{crit}
		var vals []string
		for _, c := range cells {
			if c.Failed {
				vals = append(vals, "-")
				continue
			}
			v := f2(c.TriadGBs)
			if c.Spilled {
				v += "*"
			}
			vals = append(vals, v)
			if target == "" {
				target = c.BestTarget
			}
		}
		row = append(row, target)
		row = append(row, vals...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table3a renders Table IIIa.
func Table3a() (*Table, error) {
	data, err := Table3aData()
	if err != nil {
		return nil, err
	}
	return renderStreamTable("table3a",
		"STREAM Triad GB/s, Xeon, 20 threads on one package (paper Table IIIa)",
		data, []float64{22.4, 89.4, 223.5},
		[]string{"cells marked * spilled past the best-ranked target (ranked fallback)",
			"paper: Capacity->NVDIMM 31.59/10.49/9.46; Latency->DRAM 75.06/75.24/- (arrays exceed the DRAM capacity;",
			"our allocator instead spills the third array to NVDIMM and reports the mixed-placement figure)"}), nil
}

// Table3b renders Table IIIb.
func Table3b() (*Table, error) {
	data, err := Table3bData()
	if err != nil {
		return nil, err
	}
	return renderStreamTable("table3b",
		"STREAM Triad GB/s, KNL, 16 threads on one cluster (paper Table IIIb)",
		data, []float64{1.1, 3.4, 17.9},
		[]string{"cells marked * spilled past the best-ranked target (ranked fallback)",
			"paper: Bandwidth->HBM 85.05/89.90/29.16 (HBM full at 17.9GiB, fallback to DRAM); Latency->DRAM 29.17/29.17/-",
			"deviation: we report a measured value for Latency at 17.9GiB (it fits the 24GB DRAM); the paper leaves it blank"}), nil
}

// Table4Data profiles Graph500 and STREAM on DRAM and NVDIMM on the
// Xeon, returning the VTune-style summaries keyed like the paper's
// rows.
func Table4Data() (map[string]profile.Summary, error) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		return nil, err
	}
	ini := sys.InitiatorForPackage(0)
	out := map[string]profile.Summary{}

	for label, nodeOS := range map[string]int{"DRAM": 0, "NVDIMM": 2} {
		node := sys.Machine.NodeByOS(nodeOS)
		place := func(name string, size uint64) (*memsim.Buffer, error) {
			return sys.Machine.Alloc(name, size, node)
		}
		// Graph500.
		s := graph500.Sizes(23, 16)
		bufs, err := graph500.AllocBuffers(place, s)
		if err != nil {
			return nil, err
		}
		e := sys.Engine(ini)
		e.SetThreads(xeonProcs)
		an := graph500.AnalyticStats(23, 16)
		graph500.RunTEPS(e, bufs, []graph500.BFSStats{an, an}, graph500.SimParams{})
		out["Graph500/"+label] = profile.Summarize(e.Stats())
		bufs.Free(sys.Machine)

		// STREAM Triad.
		ar, err := stream.AllocArrays(place, 22*(uint64(1)<<30)/3/stream.ElemBytes)
		if err != nil {
			return nil, err
		}
		e = sys.Engine(ini)
		stream.Run(e, ar, 3)
		out["STREAM/"+label] = profile.Summarize(e.Stats())
		ar.Free(sys.Machine)
	}
	return out, nil
}

// Table4 renders the Table IV analogue.
func Table4() (string, error) {
	rows, err := Table4Data()
	if err != nil {
		return "", err
	}
	head := "VTune-style execution summary (paper Table IV)\n" +
		"paper: Graph500 latency-sensitive (DRAM Bound 29%/63%, BW Bound 0%);\n" +
		"       STREAM bandwidth-sensitive (DRAM BW Bound 80.4% on DRAM, PMem flagged on NVDIMM)\n\n"
	return head + profile.RenderSummary(rows), nil
}

// Fig7a renders the per-object analysis of Graph500 on both
// placements, like Figure 7a.
func Fig7a() (string, error) {
	return fig7(func(place func(string, uint64) (*memsim.Buffer, error), sys *core.System, ini *bitmap.Bitmap) error {
		s := graph500.Sizes(23, 16)
		bufs, err := graph500.AllocBuffers(place, s)
		if err != nil {
			return err
		}
		e := sys.Engine(ini)
		e.SetThreads(xeonProcs)
		an := graph500.AnalyticStats(23, 16)
		graph500.RunTEPS(e, bufs, []graph500.BFSStats{an}, graph500.SimParams{})
		return nil
	}, "Graph500")
}

// Fig7b renders the per-object analysis of STREAM, like Figure 7b.
func Fig7b() (string, error) {
	return fig7(func(place func(string, uint64) (*memsim.Buffer, error), sys *core.System, ini *bitmap.Bitmap) error {
		ar, err := stream.AllocArrays(place, 22*(uint64(1)<<30)/3/stream.ElemBytes)
		if err != nil {
			return err
		}
		e := sys.Engine(ini)
		stream.Run(e, ar, 3)
		return nil
	}, "STREAM Triad")
}

func fig7(run func(func(string, uint64) (*memsim.Buffer, error), *core.System, *bitmap.Bitmap) error, app string) (string, error) {
	out := fmt.Sprintf("Memory Access analysis: hot objects of %s (paper Figure 7)\n", app)
	for _, placement := range []struct {
		label  string
		nodeOS int
	}{{"DRAM", 0}, {"NVDIMM", 2}} {
		sys, err := core.NewSystem("xeon", core.Options{})
		if err != nil {
			return "", err
		}
		ini := sys.InitiatorForPackage(0)
		node := sys.Machine.NodeByOS(placement.nodeOS)
		var bufs []*memsim.Buffer // allocation order
		err = run(func(name string, size uint64) (*memsim.Buffer, error) {
			b, err := sys.Machine.Alloc(name, size, node)
			if err == nil {
				bufs = append(bufs, b)
			}
			return b, err
		}, sys, ini)
		if err != nil {
			return "", err
		}
		out += fmt.Sprintf("\n--- allocated on %s ---\n", placement.label)
		out += profile.RenderObjects(profile.HotObjects(bufs))
	}
	return out, nil
}
