package experiments

import (
	"fmt"

	"hetmem/internal/core"
	"hetmem/internal/gups"
)

func init() {
	register("gups", "extension: HPCC RandomAccess (GUPS) by placement — a pure-latency workload", func() (string, error) {
		t, err := GUPS()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

// GUPSCell is one (machine, placement) measurement.
type GUPSCell struct {
	Machine string
	Kind    string
	GUPS    float64
}

// GUPSData measures RandomAccess over an 8 GiB (Xeon) / 3 GiB (KNL)
// table on each local memory kind.
func GUPSData() ([]GUPSCell, error) {
	var out []GUPSCell
	// A slice, not a map: the table's rows come out in this order.
	type placement struct {
		kind   string
		nodeOS int
	}
	cfgs := []struct {
		machine string
		tableB  uint64
		updates uint64
		nodes   []placement
	}{
		{"xeon", 8 << 30, 500_000_000, []placement{{"DRAM", 0}, {"NVDIMM", 2}}},
		{"knl-snc4-flat", 3 << 30, 200_000_000, []placement{{"DRAM", 0}, {"MCDRAM", 4}}},
	}
	for _, cfg := range cfgs {
		sys, err := core.NewSystem(cfg.machine, core.Options{})
		if err != nil {
			return nil, err
		}
		ini := sys.InitiatorForGroup(0)
		for _, p := range cfg.nodes {
			table, err := sys.Machine.Alloc("gups-table", cfg.tableB, sys.Machine.NodeByOS(p.nodeOS))
			if err != nil {
				return nil, err
			}
			e := sys.Engine(ini)
			res := gups.Run(e, table, cfg.updates, gups.SimParams{})
			sys.Free(table)
			out = append(out, GUPSCell{cfg.machine, p.kind, res.GUPS})
		}
	}
	return out, nil
}

// GUPS renders the extension table.
func GUPS() (*Table, error) {
	data, err := GUPSData()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "gups",
		Title:  "HPCC RandomAccess (GUPS) by placement (extension workload)",
		Header: []string{"Machine", "Placement", "GUPS"},
		Notes: []string{
			"a second latency-bound application beyond Graph500: the NVDIMM penalty passes straight through,",
			"while on KNL the update stream saturates DDR4 bandwidth and the MCDRAM wins clearly",
		},
	}
	for _, c := range data {
		t.Rows = append(t.Rows, []string{c.Machine, c.Kind, fmt.Sprintf("%.4f", c.GUPS)})
	}
	// Keep the real kernel honest whenever the experiment runs.
	if err := gups.Real(16, 100_000); err != nil {
		return nil, err
	}
	return t, nil
}
