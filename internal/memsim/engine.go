package memsim

import (
	"fmt"

	"hetmem/internal/bitmap"
)

// Access describes how one phase of an application touches one buffer.
type Access struct {
	Buffer *Buffer

	// ReadBytes and WriteBytes are streamed (sequential) traffic at
	// the kernel level, before cache filtering.
	ReadBytes  uint64
	WriteBytes uint64

	// RandomReads is the number of data-dependent irregular reads
	// (graph indirections, pointer chasing). Each one that misses the
	// caches pays the node's load-to-use latency.
	RandomReads uint64

	// MLP is the memory-level parallelism of the random reads per
	// thread: 1 for a pure pointer chase, higher when independent
	// requests overlap (e.g. several edges of a BFS frontier vertex).
	// Zero means 1.
	MLP float64

	// CPUSeconds is additional pure-compute time for this access
	// (already divided by threads), letting applications model their
	// per-element instruction cost beyond the engine's default.
	CPUSeconds float64
}

// PhaseResult reports the timing decomposition of one phase.
type PhaseResult struct {
	Name          string
	Seconds       float64
	StreamSeconds float64
	RandomSeconds float64
	CPUSeconds    float64

	// BoundKind is the memory kind of the node whose bandwidth bound
	// the streamed part ("" when there was no streamed traffic).
	BoundKind string
	// BoundNode is the OS index of that node (-1 if none).
	BoundNode int

	// AchievedBW is the total streamed traffic divided by
	// StreamSeconds, in GiB/s (0 if no streamed traffic).
	AchievedBW float64
}

// Stats accumulates profiling counters across phases. They feed the
// VTune-style summary in internal/profile.
type Stats struct {
	Elapsed    float64
	CPUSeconds float64
	// StallSeconds is time the cores spent waiting on memory, per
	// memory kind.
	StallSeconds map[string]float64
	// BWBoundSeconds is time spent saturating the bandwidth of a node,
	// per memory kind (VTune's "X Bandwidth Bound % of elapsed time").
	BWBoundSeconds map[string]float64
	Phases         []PhaseResult
}

func newStats() Stats {
	return Stats{
		StallSeconds:   make(map[string]float64),
		BWBoundSeconds: make(map[string]float64),
	}
}

// Engine executes phases on a machine from a given initiator (the set
// of PUs running the threads). It owns a virtual clock.
//
// An Engine is not safe for concurrent use: phases mutate shared
// buffer and node counters. Model concurrent jobs with one engine per
// job over the shared (mutex-protected) Machine, as the distributed
// Graph500 does.
type Engine struct {
	m         *Machine
	initiator *bitmap.Bitmap
	threads   int
	stats     Stats
}

// NewEngine creates an engine with one software thread per PU of the
// initiator cpuset.
func NewEngine(m *Machine, initiator *bitmap.Bitmap) *Engine {
	threads := initiator.Weight()
	if threads == 0 {
		threads = 1
	}
	return &Engine{m: m, initiator: initiator.Copy(), threads: threads, stats: newStats()}
}

// SetThreads overrides the thread count (e.g. 16 MPI ranks on a
// 20-core package).
func (e *Engine) SetThreads(n int) {
	if n > 0 {
		e.threads = n
	}
}

// Threads returns the thread count.
func (e *Engine) Threads() int { return e.threads }

// Initiator returns a copy of the engine's initiator cpuset.
func (e *Engine) Initiator() *bitmap.Bitmap { return e.initiator.Copy() }

// Machine returns the underlying machine.
func (e *Engine) Machine() *Machine { return e.m }

// Elapsed returns the virtual clock in seconds.
func (e *Engine) Elapsed() float64 { return e.stats.Elapsed }

// Stats returns a copy of the accumulated statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.StallSeconds = make(map[string]float64, len(e.stats.StallSeconds))
	for k, v := range e.stats.StallSeconds {
		s.StallSeconds[k] = v
	}
	s.BWBoundSeconds = make(map[string]float64, len(e.stats.BWBoundSeconds))
	for k, v := range e.stats.BWBoundSeconds {
		s.BWBoundSeconds[k] = v
	}
	s.Phases = append([]PhaseResult(nil), e.stats.Phases...)
	return s
}

// ResetStats clears the clock and counters.
func (e *Engine) ResetStats() { e.stats = newStats() }

// AdvanceClock adds raw seconds (e.g. a migration cost) to the clock.
func (e *Engine) AdvanceClock(s float64) { e.stats.Elapsed += s }

func (e *Engine) isLocal(n *Node) bool {
	return bitmap.Intersects(e.initiator, n.Obj.CPUSet)
}

// nodeTraffic accumulates per-node phase traffic.
type nodeTraffic struct {
	node       *Node
	read       uint64 // streamed bytes after cache filtering
	write      uint64
	fills      uint64  // line-fill bytes from random misses (overlapped with their latency)
	misses     uint64  // random-read cache misses
	missWeight float64 // Σ misses/MLP, for latency time
	workingSet uint64  // bytes of the phase footprint on this node
}

// streamMissFraction returns the share of streamed traffic that
// reaches memory given the buffer size versus the LLC.
func (e *Engine) streamMissFraction(bufSize uint64) float64 {
	llc := e.m.model.Caches.LLCPerDomain
	if bufSize <= llc/2 {
		return 0.05
	}
	return 1.0
}

// randomMissRate returns the cache miss rate for irregular accesses to
// a buffer of the given size.
func (e *Engine) randomMissRate(bufSize uint64) float64 {
	llc := e.m.model.Caches.LLCPerDomain
	if bufSize == 0 {
		return 0
	}
	if bufSize <= llc/2 {
		return 0.02
	}
	r := 1.0 - float64(llc)/float64(bufSize)
	if r < 0.05 {
		r = 0.05
	}
	return r
}

// Phase executes one phase and advances the clock. Accesses touching
// freed buffers panic: that is a use-after-free in the simulated
// application. Placement is read through SegmentsSnapshot, so a
// concurrent Migrate (the daemon's advisor or rebalancer moving a
// buffer mid-run) lands between phases rather than racing one.
func (e *Engine) Phase(name string, accesses []Access) PhaseResult {
	lineSize := e.m.model.Caches.LineSize

	traffic := make(map[int]*nodeTraffic)
	get := func(n *Node) *nodeTraffic {
		t, ok := traffic[n.OSIndex()]
		if !ok {
			t = &nodeTraffic{node: n}
			traffic[n.OSIndex()] = t
		}
		return t
	}

	var totalStreamBytes float64
	var totalRandom uint64
	var extraCPU float64
	var touched []*counters

	for _, a := range accesses {
		extraCPU += a.CPUSeconds
		b := a.Buffer
		if b == nil {
			continue
		}
		if b.Freed() {
			panic(fmt.Sprintf("memsim: phase %q touches freed buffer %q", name, b.Name))
		}
		sf := e.streamMissFraction(b.Size)
		mr := e.randomMissRate(b.Size)
		mlp := a.MLP
		if mlp <= 0 {
			mlp = 1
		}
		c := b.counters()
		c.loads += a.ReadBytes/8 + a.RandomReads
		c.stores += a.WriteBytes / 8
		touched = append(touched, c)
		for _, seg := range b.SegmentsSnapshot() {
			frac := 1.0
			if b.Size > 0 {
				frac = float64(seg.Bytes) / float64(b.Size)
			}
			t := get(seg.Node)
			r := uint64(float64(a.ReadBytes) * frac * sf)
			w := uint64(float64(a.WriteBytes) * frac * sf)
			misses := uint64(float64(a.RandomReads) * frac * mr)
			t.read += r
			t.write += w
			t.fills += misses * lineSize
			t.misses += misses
			t.missWeight += float64(misses) / mlp
			t.workingSet += seg.Bytes
			c.llcMisses += (r+w)/lineSize + misses
			c.randomMisses += misses
			seg.Node.BytesRead += r + misses*lineSize
			seg.Node.BytesWritten += w
			seg.Node.RandomReads += misses
			totalStreamBytes += float64(r + w)
			totalRandom += misses
		}
	}

	// Streamed time: each node streams concurrently; the phase is
	// bound by the slowest node. Memory-side caches absorb the part of
	// the working set that fits them.
	res := PhaseResult{Name: name, BoundNode: -1}
	var streamTime float64
	utils := make(map[int]float64)
	for _, t := range traffic {
		tt, util := e.nodeStreamTime(t)
		utils[t.node.OSIndex()] = util
		if tt > streamTime {
			streamTime = tt
			res.BoundKind = t.node.Kind()
			res.BoundNode = t.node.OSIndex()
		}
	}

	// Random (latency-bound) time: one pass with idle-ish latency to
	// estimate utilization, then a refinement pass.
	randomTime := e.randomTime(traffic, utils, 0, streamTime)
	if randomTime > 0 {
		randomTime = e.randomTime(traffic, utils, randomTime, streamTime)
	}

	cpu := e.m.model.CPUPerByte * totalStreamBytes / float64(e.threads)
	cpu += 2e-9 * float64(totalRandom) / float64(e.threads) // a few instructions per irregular access
	cpu += extraCPU

	res.StreamSeconds = streamTime
	res.RandomSeconds = randomTime
	res.CPUSeconds = cpu
	res.Seconds = streamTime + randomTime + cpu
	if streamTime > 0 {
		res.AchievedBW = totalStreamBytes / float64(1<<30) / streamTime
	}

	// Counter attribution.
	e.stats.Elapsed += res.Seconds
	e.stats.CPUSeconds += cpu
	if streamTime > 0 && res.BoundKind != "" {
		e.stats.BWBoundSeconds[res.BoundKind] += streamTime
		e.stats.StallSeconds[res.BoundKind] += streamTime * 0.8 // cores mostly stalled while saturating bandwidth
	}
	if randomTime > 0 {
		// Attribute latency stalls proportionally to each node's share
		// of miss×latency weight.
		var total float64
		shares := make(map[string]float64)
		for _, t := range traffic {
			if t.missWeight == 0 {
				continue
			}
			lat := e.nodeLatency(t, utils[t.node.OSIndex()])
			share := t.missWeight * lat
			shares[t.node.Kind()] += share
			total += share
		}
		if total > 0 {
			for kind, s := range shares {
				e.stats.StallSeconds[kind] += randomTime * (s / total)
			}
		}
	}
	e.stats.Phases = append(e.stats.Phases, res)
	for _, c := range touched {
		c.publish()
	}
	return res
}

// nodeStreamTime computes the streamed-traffic time for one node and
// the node's bandwidth utilization.
func (e *Engine) nodeStreamTime(t *nodeTraffic) (seconds, utilization float64) {
	if t.read+t.write == 0 {
		return 0, 0
	}
	n := t.node
	model := n.Model
	rbw, wbw, tbw := model.effectiveBW(t.workingSet)

	read, write := float64(t.read), float64(t.write)

	// Memory-side cache: the fitting share of the working set is
	// served by the cache instead of the node.
	var cacheTime float64
	if mc, ok := e.m.model.MemCaches[n.OSIndex()]; ok && t.workingSet > 0 {
		hit := float64(mc.Size) / float64(t.workingSet)
		if hit > 1 {
			hit = 1
		}
		hit *= 0.85 // direct-mapped conflict losses
		cr, cw := read*hit, write*hit
		read -= cr
		write -= cw
		ctb := mc.TotalBW
		if ctb <= 0 {
			ctb = mc.ReadBW + mc.WriteBW
		}
		cacheTime = e.boundedStreamTime(cr, cw, mc.ReadBW, mc.WriteBW, ctb)
	}

	if !e.isLocal(n) {
		f := e.m.model.Remote.BWFactor
		if f <= 0 {
			f = 0.5
		}
		rbw *= f
		wbw *= f
		tbw *= f
	}
	// A few threads cannot saturate the node.
	if model.PerThreadBW > 0 {
		cap := model.PerThreadBW * float64(e.threads)
		if rbw > cap {
			rbw = cap
		}
		if wbw > cap {
			wbw = cap
		}
		if tbw > cap {
			tbw = cap
		}
	}
	nodeTime := e.boundedStreamTime(read, write, rbw, wbw, tbw)
	seconds = nodeTime + cacheTime
	if seconds > 0 {
		utilization = (float64(t.read+t.write) / float64(1<<30) / seconds) / tbw
		if utilization > 1 {
			utilization = 1
		}
	}
	return seconds, utilization
}

// boundedStreamTime applies the three-way roofline bound. Bandwidths
// are GiB/s; traffic is bytes.
func (e *Engine) boundedStreamTime(read, write, rbw, wbw, tbw float64) float64 {
	const gib = float64(1 << 30)
	var tt float64
	if read > 0 && rbw > 0 {
		if v := read / gib / rbw; v > tt {
			tt = v
		}
	}
	if write > 0 && wbw > 0 {
		if v := write / gib / wbw; v > tt {
			tt = v
		}
	}
	if read+write > 0 && tbw > 0 {
		if v := (read + write) / gib / tbw; v > tt {
			tt = v
		}
	}
	return tt
}

// nodeLatency returns the effective per-miss latency (seconds) on a
// node for the current phase.
func (e *Engine) nodeLatency(t *nodeTraffic, utilization float64) float64 {
	n := t.node
	lat := n.Model.effectiveLatency(utilization, t.workingSet)
	if mc, ok := e.m.model.MemCaches[n.OSIndex()]; ok && t.workingSet > 0 {
		hit := float64(mc.Size) / float64(t.workingSet)
		if hit > 1 {
			hit = 1
		}
		hit *= 0.85
		lat = hit*mc.Latency + (1-hit)*lat
	}
	if !e.isLocal(n) {
		add := e.m.model.Remote.LatencyAdd
		if add <= 0 {
			add = 60
		}
		lat += add
	}
	return lat * 1e-9
}

// randomTime computes the latency-bound time of the phase.
// prevEstimate (seconds) from a first pass refines node utilization
// for loaded-latency interpolation; pass 0 on the first call. The
// stream-derived utilization is weighted by the stream's share of the
// phase: a short saturated burst does not load a long random phase.
func (e *Engine) randomTime(traffic map[int]*nodeTraffic, utils map[int]float64, prevEstimate, streamTime float64) float64 {
	var total float64
	for _, t := range traffic {
		if t.missWeight == 0 {
			continue
		}
		util := utils[t.node.OSIndex()]
		rbw, _, tbw := t.node.Model.effectiveBW(t.workingSet)
		if prevEstimate > 0 {
			if streamTime+prevEstimate > 0 {
				util *= streamTime / (streamTime + prevEstimate)
			}
			// Utilization generated by the random traffic itself
			// (its line fills consume bandwidth too).
			if tbw > 0 {
				u := float64(t.fills) / float64(1<<30) / prevEstimate / tbw
				if u > util {
					util = u
				}
			}
		}
		lat := e.nodeLatency(t, util)
		nodeTime := t.missWeight * lat / float64(e.threads)
		// Bandwidth floor: however parallel the misses, their line
		// fills cannot exceed the node's read bandwidth.
		if floorBW := minPositive(rbw, tbw); floorBW > 0 {
			if floor := float64(t.fills) / float64(1<<30) / floorBW; floor > nodeTime {
				nodeTime = floor
			}
		}
		total += nodeTime
	}
	return total
}

func minPositive(a, b float64) float64 {
	switch {
	case a <= 0:
		return b
	case b <= 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}
