// Package platform defines the simulated machines used throughout the
// reproduction: the paper's two testbeds (dual Xeon Cascade Lake 6230
// with Optane NVDIMMs; Knights Landing 7230 in SNC-4 Flat mode), the
// Figure 1/2/3 topologies, and a few extra machines for tests and
// ablations. Each platform couples
//
//   - a topology (internal/topology),
//   - a ground-truth performance model (internal/memsim), calibrated so
//     the paper's measured numbers come out of the simulator with the
//     right ranking and crossover structure (see DESIGN.md), and
//   - the firmware view: whether the machine exposes an HMAT and with
//     which values (internal/hmat). KNL predates ACPI 6.2 and exposes
//     none, which forces the benchmarking discovery path — exactly the
//     situation Table I of the paper distinguishes.
package platform

import (
	"fmt"
	"sort"
	"strings"

	"hetmem/internal/hmat"
	"hetmem/internal/memsim"
	"hetmem/internal/topology"
)

// GiB is one binary gigabyte.
const GiB = uint64(1) << 30

// Platform couples a topology with its performance model and firmware
// behaviour.
type Platform struct {
	Name        string
	Description string
	Topo        *topology.Topology
	Model       memsim.MachineModel

	// HasHMAT reports whether the firmware exposes an HMAT. When
	// false, performance attributes must be discovered by
	// benchmarking (internal/bench).
	HasHMAT  bool
	HMATOpts hmat.Options
}

// NewMachine instantiates a fresh simulated machine (capacity
// accounting and counters start empty).
func (p *Platform) NewMachine() (*memsim.Machine, error) {
	return memsim.NewMachine(p.Topo, p.Model)
}

// HMATTable builds the firmware table, or nil when the platform has
// none.
func (p *Platform) HMATTable() *hmat.Table {
	if !p.HasHMAT {
		return nil
	}
	return hmat.BuildTable(p.Topo, p.Model, p.HMATOpts)
}

var registry = map[string]func() *Platform{}

func register(name string, f func() *Platform) {
	if _, dup := registry[name]; dup {
		panic("platform: duplicate " + name)
	}
	registry[name] = f
}

// Get builds the named platform. Names of the form
// "synthetic:<desc>" build an ad-hoc machine from the FromSynthetic
// grammar instead of the registry, so every -platform flag can take a
// purpose-built topology (the cluster tenant-isolation test uses this
// for a fleet small enough to saturate).
func Get(name string) (*Platform, error) {
	if desc, ok := strings.CutPrefix(name, "synthetic:"); ok {
		return FromSynthetic("synthetic", desc)
	}
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("platform: unknown platform %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered platform names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// mustBuild wraps topology.Build for statically-defined machines.
func mustBuild(root *topology.Object) *topology.Topology {
	t, err := topology.Build(root)
	if err != nil {
		panic(err)
	}
	return t
}

// addCores attaches n cores (one PU each) to parent, numbering PUs
// from firstPU. Returns the next free PU number.
func addCores(parent *topology.Object, n, firstPU int) int {
	for i := 0; i < n; i++ {
		core := parent.AddChild(topology.New(topology.Core, firstPU+i))
		core.AddChild(topology.New(topology.PU, firstPU+i))
	}
	return firstPU + n
}
