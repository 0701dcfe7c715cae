// Package memsim simulates the memory system of a heterogeneous
// machine. It is the substitute for the physical Xeon+NVDIMM and
// Knights Landing testbeds of the paper: NUMA nodes have modelled
// capacity, read/write/total bandwidth, idle latency, and (for
// non-volatile memory) an internal buffer that makes small working
// sets faster than sustained traffic, as measured by van Renen et al.
// and by the paper's own STREAM/Graph500 numbers.
//
// Applications allocate Buffers on nodes (directly or via the
// heterogeneous allocator) and describe their execution as Phases of
// Accesses (streamed bytes and/or dependent random reads). The Engine
// converts each phase into elapsed time using a roofline-style model —
// traffic/bandwidth for streams, misses×latency/MLP for irregular
// access — while maintaining the hardware counters (per-node traffic,
// per-buffer LLC misses, stall and bandwidth-bound time per memory
// kind) that the profiling layer exposes VTune-style. A Machine keeps
// no list of the buffers it placed: callers hold theirs and pass them
// to whatever reports on them, and a freed buffer is garbage once its
// holder drops it.
//
// The model is analytical, not cycle-accurate: the paper's claims are
// about *rankings* and *crossovers* between memory kinds, which survive
// this abstraction; absolute GB/s are calibration constants.
package memsim

import "hetmem/internal/topology"

// NodeModel is the physical performance model of one NUMA node.
// Bandwidths are GiB/s, latencies nanoseconds.
type NodeModel struct {
	// Kind mirrors the topology subtype (DRAM, MCDRAM, HBM, NVDIMM,
	// NAM). Used only for counter attribution and reporting — the
	// allocation stack never branches on it.
	Kind string

	// ReadBW, WriteBW and TotalBW are sustained bandwidth limits. A
	// streamed phase is bound by max(read/ReadBW, write/WriteBW,
	// (read+write)/TotalBW).
	ReadBW, WriteBW, TotalBW float64

	// PerThreadBW caps the bandwidth a single thread can extract, so
	// that a 1-thread STREAM does not saturate the node.
	PerThreadBW float64

	// IdleLatency is the unloaded access latency.
	IdleLatency float64

	// LoadedLatency is the latency under heavy concurrent traffic. The
	// effective latency interpolates between the two with utilization.
	LoadedLatency float64

	// BufferBytes, when non-zero, models an internal device buffer
	// (e.g. Optane's write-combining/AIT caching behaviour): phases
	// whose working set on this node fits within BufferBytes run at
	// the Buffered* figures instead of the sustained ones.
	BufferBytes uint64
	// BufferedReadBW/BufferedWriteBW/BufferedTotalBW used below
	// BufferBytes. Zero values mean "same as sustained".
	BufferedReadBW, BufferedWriteBW, BufferedTotalBW float64
	// BufferedLatency used below BufferBytes (zero = IdleLatency).
	BufferedLatency float64
	// OverflowLatencyFactor multiplies latency once the working set
	// exceeds BufferBytes, modelling the AIT-miss cliff of persistent
	// memory (zero = no extra penalty).
	OverflowLatencyFactor float64

	// DegradePerTiB linearly degrades sustained bandwidth and inflates
	// latency as the phase working set grows, modelling TLB/AIT
	// pressure on very large footprints: effective = base ×
	// (1 - DegradePerTiB × workingSetTiB) for bandwidth.
	DegradePerTiB float64
}

// effectiveBW returns the (read, write, total) bandwidth for a phase
// with the given working-set footprint on the node.
func (m *NodeModel) effectiveBW(workingSet uint64) (r, w, t float64) {
	r, w, t = m.ReadBW, m.WriteBW, m.TotalBW
	if m.BufferBytes > 0 && workingSet <= m.BufferBytes {
		if m.BufferedReadBW > 0 {
			r = m.BufferedReadBW
		}
		if m.BufferedWriteBW > 0 {
			w = m.BufferedWriteBW
		}
		if m.BufferedTotalBW > 0 {
			t = m.BufferedTotalBW
		}
		return r, w, t
	}
	if m.DegradePerTiB > 0 {
		f := 1 - m.DegradePerTiB*float64(workingSet)/float64(1<<40)
		if f < 0.2 {
			f = 0.2
		}
		r *= f
		w *= f
		t *= f
	}
	return r, w, t
}

// effectiveLatency returns the access latency for a phase with the
// given utilization (0..1) and working-set footprint.
func (m *NodeModel) effectiveLatency(utilization float64, workingSet uint64) float64 {
	base := m.IdleLatency
	loaded := m.LoadedLatency
	if loaded < base {
		loaded = base
	}
	if m.BufferBytes > 0 && workingSet <= m.BufferBytes {
		if m.BufferedLatency > 0 {
			base = m.BufferedLatency
			if loaded < base {
				loaded = base
			}
		}
	} else {
		if m.BufferBytes > 0 && m.OverflowLatencyFactor > 0 {
			base *= m.OverflowLatencyFactor
			loaded *= m.OverflowLatencyFactor
		}
		if m.DegradePerTiB > 0 {
			f := 1 + m.DegradePerTiB*float64(workingSet)/float64(1<<40)
			base *= f
			loaded *= f
		}
	}
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	return base + (loaded-base)*utilization
}

// CacheModel describes the CPU cache hierarchy seen by every core, plus
// the line size used to convert misses to traffic.
type CacheModel struct {
	LineSize uint64 // bytes per cache line (64 typical)
	// L2PerCore and LLCPerDomain are capacities in bytes. The LLC
	// domain is the Group (SNC cluster) when present, else the
	// Package.
	L2PerCore    uint64
	LLCPerDomain uint64
}

// DefaultCaches returns a Xeon-like cache hierarchy.
func DefaultCaches() CacheModel {
	return CacheModel{LineSize: 64, L2PerCore: 1 << 20, LLCPerDomain: 27 << 20}
}

// MemCacheModel describes a memory-side cache in front of a node (KNL
// Cache mode MCDRAM, Xeon 2LM DRAM cache).
type MemCacheModel struct {
	Size    uint64
	ReadBW  float64
	WriteBW float64
	TotalBW float64
	Latency float64
}

// RemoteModel describes the penalty for accessing a node from an
// initiator outside its locality (e.g. across the UPI/QPI link).
type RemoteModel struct {
	// BWFactor scales bandwidth for remote accesses (e.g. 0.5).
	BWFactor float64
	// LatencyAdd is added to latency for remote accesses (ns).
	LatencyAdd float64
}

// MachineModel aggregates everything internal/platform defines about a
// machine's memory system. NodeModels is keyed by NUMA node OS index.
type MachineModel struct {
	Nodes      map[int]NodeModel
	MemCaches  map[int]MemCacheModel // keyed by the OS index of the *cached* node
	Caches     CacheModel
	Remote     RemoteModel
	FreqGHz    float64 // core frequency, for clocktick accounting
	CPUPerByte float64 // seconds of pure CPU work per byte of streamed kernel traffic (models the non-memory part of kernels)
}

// KindOf returns the memory kind string for a node object.
func KindOf(n *topology.Object) string {
	if n.Subtype != "" {
		return n.Subtype
	}
	return "DRAM"
}

// IsPMem reports whether a kind is persistent memory for counter
// attribution (VTune's "PMem Bound").
func IsPMem(kind string) bool { return kind == "NVDIMM" || kind == "PMEM" }

// IsHighBandwidth reports whether a kind is an HBM-class memory.
func IsHighBandwidth(kind string) bool { return kind == "HBM" || kind == "MCDRAM" }
