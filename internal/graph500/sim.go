package graph500

import (
	"fmt"

	"hetmem/internal/memsim"
)

// Buffers are the benchmark's data structures placed on simulated
// memory. Adj (the adjacency "column" array) is the hot buffer the
// paper's profiling use case identifies (allocated by xmalloc in the
// reference code, Figure 7a).
type Buffers struct {
	XAdj    *memsim.Buffer
	Adj     *memsim.Buffer
	Parent  *memsim.Buffer
	Queue   *memsim.Buffer
	Visited *memsim.Buffer
}

// AllocBuffers places all BFS data structures through the given
// placement function (typically the heterogeneous allocator, or a
// direct node binding for the process-level benchmarking method).
func AllocBuffers(place func(name string, size uint64) (*memsim.Buffer, error), s SizesInfo) (*Buffers, error) {
	b := &Buffers{}
	var err error
	alloc := func(dst **memsim.Buffer, name string, size uint64) {
		if err != nil {
			return
		}
		*dst, err = place(name, size)
		if err != nil {
			err = fmt.Errorf("graph500: allocating %s (%d bytes): %w", name, size, err)
		}
	}
	alloc(&b.XAdj, "csr_xadj", s.XAdjB)
	alloc(&b.Adj, "csr_adj", s.AdjB)
	alloc(&b.Parent, "bfs_parent", s.ParentB)
	alloc(&b.Queue, "bfs_queue", s.QueueB)
	alloc(&b.Visited, "bfs_visited", s.VisitedB)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// All returns the buffers in allocation order.
func (b *Buffers) All() []*memsim.Buffer {
	return []*memsim.Buffer{b.XAdj, b.Adj, b.Parent, b.Queue, b.Visited}
}

// Free releases all buffers.
func (b *Buffers) Free(m *memsim.Machine) {
	for _, buf := range b.All() {
		if buf != nil {
			m.Free(buf)
		}
	}
}

// SimParams tunes the replay of a BFS profile through the simulator.
type SimParams struct {
	// MLP is the memory-level parallelism of the irregular accesses
	// (outstanding parent-array probes per thread). Default 12.
	MLP float64
	// CPUPerEdge is the per-thread instruction cost of scanning one
	// adjacency entry (queue management, bitmap ops). Default 11 ns,
	// calibrated for the Xeon testbed; the KNL runs use a larger value
	// for its slow cores.
	CPUPerEdge float64
}

func (p *SimParams) defaults() {
	if p.MLP == 0 {
		p.MLP = 12
	}
	if p.CPUPerEdge == 0 {
		p.CPUPerEdge = 1.12e-8
	}
}

// SimulateBFS replays one traversal's access profile: streamed scans
// of the adjacency array, irregular probes of the parent array (the
// latency-critical part), offset lookups, and queue traffic.
func SimulateBFS(e *memsim.Engine, b *Buffers, st BFSStats, p SimParams) memsim.PhaseResult {
	p.defaults()
	threads := float64(e.Threads())
	accesses := []memsim.Access{
		{Buffer: b.XAdj, RandomReads: uint64(st.FrontierTotal), MLP: p.MLP},
		{Buffer: b.Adj, ReadBytes: uint64(st.EdgesScanned) * 8, RandomReads: uint64(st.FrontierTotal), MLP: p.MLP},
		{Buffer: b.Parent, RandomReads: uint64(st.EdgesScanned), MLP: p.MLP,
			WriteBytes: uint64(st.FrontierTotal) * 8,
			CPUSeconds: p.CPUPerEdge * float64(st.EdgesScanned) / threads},
		{Buffer: b.Queue, ReadBytes: uint64(st.FrontierTotal) * 8, WriteBytes: uint64(st.FrontierTotal) * 8},
		{Buffer: b.Visited, RandomReads: uint64(st.EdgesScanned) / 4, MLP: p.MLP},
	}
	return e.Phase(fmt.Sprintf("bfs-root-%d", st.Root), accesses)
}

// RunResult aggregates a multi-root run the way Graph500 reports it.
type RunResult struct {
	HarmonicTEPS float64
	MeanSeconds  float64
	PerRootTEPS  []float64
}

// RunTEPS replays a set of BFS profiles and computes the harmonic mean
// of the per-root TEPS, the benchmark's headline metric.
func RunTEPS(e *memsim.Engine, b *Buffers, stats []BFSStats, p SimParams) RunResult {
	var res RunResult
	var invSum, timeSum float64
	for _, st := range stats {
		pr := SimulateBFS(e, b, st, p)
		teps := float64(st.ReachableEdges) / pr.Seconds
		res.PerRootTEPS = append(res.PerRootTEPS, teps)
		invSum += 1 / teps
		timeSum += pr.Seconds
	}
	if n := float64(len(stats)); n > 0 {
		res.HarmonicTEPS = n / invSum
		res.MeanSeconds = timeSum / n
	}
	return res
}
