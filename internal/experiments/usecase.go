package experiments

import (
	"fmt"

	"hetmem/internal/alloc"
	"hetmem/internal/core"
	"hetmem/internal/memattr"
	"hetmem/internal/memkind"
	"hetmem/internal/memsim"
)

func init() {
	register("portability", "attribute requests adapt per machine; memkind baseline fails", func() (string, error) {
		t, err := Portability()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
	register("capacity", "capacity conflicts: FCFS vs priority, partial allocation, migration", Capacity)
}

// PortabilityRow records where one request landed on one machine.
type PortabilityRow struct {
	Machine string
	Request string
	Outcome string // memory kind, or "ERROR: ..." for the baseline
}

// PortabilityData runs the Section VI-A portability matrix: the same
// attribute requests on the Xeon and the KNL, against the memkind
// baseline whose hardwired HBW kind only exists on one of them.
func PortabilityData() ([]PortabilityRow, error) {
	var rows []PortabilityRow
	for _, machine := range []string{"xeon", "knl-snc4-flat", "rhea"} {
		sys, err := core.NewSystem(machine, core.Options{})
		if err != nil {
			return nil, err
		}
		ini := sys.InitiatorForGroup(0)
		for _, attr := range []memattr.ID{memattr.Bandwidth, memattr.Latency, memattr.Capacity} {
			buf, dec, err := sys.MemAlloc("probe", 1<<30, attr, ini)
			if err != nil {
				return nil, err
			}
			rows = append(rows, PortabilityRow{
				Machine: machine,
				Request: "attribute " + sys.Registry.Name(attr),
				Outcome: dec.Target.Subtype,
			})
			sys.Free(buf)
		}
		// Baseline: memkind's hardwired HBW.
		mk := memkind.New(sys.Machine, ini)
		if b, err := mk.Malloc(memkind.HBW, "probe", 1<<30); err != nil {
			rows = append(rows, PortabilityRow{machine, "MEMKIND_HBW (baseline)", "ERROR: " + err.Error()})
		} else {
			rows = append(rows, PortabilityRow{machine, "MEMKIND_HBW (baseline)", b.SegmentsSnapshot()[0].Node.Kind()})
			sys.Free(b)
		}
	}
	return rows, nil
}

// Portability renders the matrix.
func Portability() (*Table, error) {
	rows, err := PortabilityData()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "portability",
		Title:  "Same request, per-machine outcome (paper Section VI-A claim)",
		Header: []string{"Machine", "Request", "Placed on"},
		Notes: []string{
			"attribute requests adapt: Bandwidth->MCDRAM on KNL, DRAM on the HBM-less Xeon, HBM on the",
			"HBM+DDR5 generation (rhea); the memkind baseline hardwires the technology and errors where",
			"it does not exist",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Machine, r.Request, r.Outcome})
	}
	return t, nil
}

// Capacity runs the Section VII scenarios on a KNL cluster: a late
// critical buffer under FCFS vs priority planning, a hybrid partial
// allocation, and a phase migration with its cost.
func Capacity() (string, error) {
	out := "Capacity-conflict management (paper Section VII)\n\n"

	// FCFS vs priority.
	reqs := []alloc.Request{
		{Name: "scratch", Size: 3 << 30, Attr: memattr.Bandwidth, Priority: 1},
		{Name: "critical", Size: 3 << 30, Attr: memattr.Bandwidth, Priority: 10},
	}
	for _, mode := range []string{"FCFS", "priority"} {
		sys, err := core.NewSystem("knl-snc4-flat", core.Options{})
		if err != nil {
			return "", err
		}
		ini := sys.InitiatorForGroup(0)
		var placements []alloc.Placement
		if mode == "FCFS" {
			placements = sys.Allocator.PlanFCFS(reqs, ini)
		} else {
			placements = sys.Allocator.PlanPriority(reqs, ini)
		}
		out += fmt.Sprintf("--- %s allocation order ---\n", mode)
		for _, p := range placements {
			if p.Err != nil {
				out += fmt.Sprintf("  %-9s -> error: %v\n", p.Request.Name, p.Err)
				continue
			}
			out += fmt.Sprintf("  %-9s (prio %2d) -> %s\n", p.Request.Name, p.Request.Priority, p.Buffer.NodeNames())
		}
	}

	// Hybrid (partial) allocation.
	sys, err := core.NewSystem("knl-snc4-flat", core.Options{})
	if err != nil {
		return "", err
	}
	ini := sys.InitiatorForGroup(0)
	buf, dec, err := sys.MemAlloc("huge", 26<<30, memattr.Bandwidth, ini, alloc.WithPartial())
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("\n--- hybrid allocation ---\n  26GiB bandwidth-ranked with WithPartial -> %s (partial=%v)\n",
		buf.NodeNames(), dec.Partial)
	sys.Free(buf)

	// Phase migration.
	buf, _, err = sys.MemAlloc("phase-buf", 2<<30, memattr.Capacity, ini)
	if err != nil {
		return "", err
	}
	cost, mdec, err := sys.Allocator.MigrateToBest(buf, memattr.Bandwidth, ini)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("\n--- phase migration ---\n  2GiB buffer %s, migrated to %s for the bandwidth phase: %.3f s\n",
		"capacity-placed on DRAM", mdec.Target.Subtype, cost)
	out += "  (the paper: migration is expensive; only worth it across phases)\n"

	// The Linux preferred-policy restriction our allocator sidesteps.
	dram := sys.Machine.NodeByOS(0)
	mcdram := sys.Machine.NodeByOS(4)
	out += fmt.Sprintf("\n--- Linux preferred-policy restriction ---\n"+
		"  prefer MCDRAM#%d with DRAM#%d fallback allowed by Linux: %v (our allocator: yes)\n",
		mcdram.OSIndex(), dram.OSIndex(), alloc.LinuxPreferredAllowed(mcdram, []*memsim.Node{dram}))
	return out, nil
}
