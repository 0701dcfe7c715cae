package memsim

import (
	"fmt"
	"sort"
	"strings"

	"hetmem/internal/topology"
)

// UsageRow summarizes one node's state for reporting.
type UsageRow struct {
	Node         *Node
	Capacity     uint64
	Allocated    uint64
	Available    uint64
	BytesRead    uint64
	BytesWritten uint64
	RandomReads  uint64
}

// Usage snapshots every node, ordered by OS index.
func (m *Machine) Usage() []UsageRow {
	rows := make([]UsageRow, 0, len(m.nodes))
	for _, n := range m.nodes {
		alloc := n.Allocated()
		rows = append(rows, UsageRow{
			Node:         n,
			Capacity:     n.Capacity(),
			Allocated:    alloc,
			Available:    n.Capacity() - alloc,
			BytesRead:    n.BytesRead,
			BytesWritten: n.BytesWritten,
			RandomReads:  n.RandomReads,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Node.OSIndex() < rows[j].Node.OSIndex() })
	return rows
}

// RenderUsage formats a numastat-like view of the machine: capacity,
// allocation and traffic per node, plus those of bufs still live.
func (m *Machine) RenderUsage(bufs ...*Buffer) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-8s %10s %10s %10s %12s %12s %12s\n",
		"Node", "Kind", "Capacity", "Allocated", "Available", "Read", "Written", "RandomReads")
	for _, r := range m.Usage() {
		fmt.Fprintf(&sb, "P#%-8d %-8s %10s %10s %10s %12s %12s %12d\n",
			r.Node.OSIndex(), r.Node.Kind(),
			topology.FormatBytes(r.Capacity), topology.FormatBytes(r.Allocated), topology.FormatBytes(r.Available),
			topology.FormatBytes(r.BytesRead), topology.FormatBytes(r.BytesWritten), r.RandomReads)
	}
	header := "\nlive buffers:\n"
	for _, b := range bufs {
		if !b.Freed() {
			fmt.Fprintf(&sb, "%s  %-16s %10s on %s\n", header, b.Name, topology.FormatBytes(b.Size), b.NodeNames())
			header = ""
		}
	}
	return sb.String()
}
