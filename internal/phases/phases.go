// Package phases implements the paper's Section VII guidance on
// migration as a runtime component: "it should likely be avoided
// unless the application behavior changes significantly between
// phases, either by using different buffers, or by using the same
// buffers with different access patterns". A Manager watches the
// per-buffer hardware counters between phases, classifies each managed
// buffer's behaviour in the last phase (latency-bound, bandwidth-bound
// or idle), and advises a migration only when the estimated per-phase
// gain over the caller's remaining-phase horizon exceeds the estimated
// OS migration cost.
package phases

import (
	"fmt"

	"hetmem/internal/alloc"
	"hetmem/internal/bitmap"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
)

// Behaviour classifies what a buffer did during the last observed
// phase.
type Behaviour int

const (
	// Idle: the buffer was barely touched.
	Idle Behaviour = iota
	// LatencyBound: most of its misses were irregular.
	LatencyBound
	// BandwidthBound: its misses were streaming line fills.
	BandwidthBound
)

// String names the behaviour.
func (b Behaviour) String() string {
	switch b {
	case Idle:
		return "idle"
	case LatencyBound:
		return "latency-bound"
	case BandwidthBound:
		return "bandwidth-bound"
	default:
		return "unknown"
	}
}

// attrFor maps a behaviour to the attribute that should drive the
// buffer's placement while it lasts.
func (b Behaviour) attrFor() (memattr.ID, bool) {
	switch b {
	case LatencyBound:
		return memattr.Latency, true
	case BandwidthBound:
		return memattr.Bandwidth, true
	default:
		return 0, false
	}
}

type snapshot struct {
	llcMisses    uint64
	randomMisses uint64
}

// Advice is one recommendation from the manager.
type Advice struct {
	Buffer    *memsim.Buffer
	Behaviour Behaviour
	Attr      memattr.ID
	// Target is the recommended node (nil when no move is advised).
	Target *memsim.Node
	// GainPerPhase and Cost are the estimated seconds saved per
	// future phase and the one-off migration cost.
	GainPerPhase float64
	Cost         float64
	// Migrate is true when GainPerPhase × horizon > Cost.
	Migrate bool
	Reason  string
}

// Manager observes phases and advises migrations.
type Manager struct {
	a   *alloc.Allocator
	ini *bitmap.Bitmap
	// Horizon is the number of future phases the caller expects the
	// current behaviour to persist for (the paper's "unless the
	// application behavior changes significantly").
	Horizon int
	// MinMisses filters noise: buffers with fewer misses in the phase
	// are Idle.
	MinMisses uint64
	// AssumedMLP converts miss counts to time for the gain estimate.
	AssumedMLP float64

	threads int
	prev    map[*memsim.Buffer]snapshot
	managed []*memsim.Buffer
}

// NewManager creates a manager for buffers used by threads on the
// initiator cpuset.
func NewManager(a *alloc.Allocator, initiator *bitmap.Bitmap, threads int) *Manager {
	if threads <= 0 {
		threads = initiator.Weight()
	}
	return &Manager{
		a: a, ini: initiator.Copy(),
		Horizon: 1, MinMisses: 100_000, AssumedMLP: 8,
		threads: threads,
		prev:    make(map[*memsim.Buffer]snapshot),
	}
}

// Manage registers a buffer for observation.
func (m *Manager) Manage(b *memsim.Buffer) {
	m.managed = append(m.managed, b)
	m.prev[b] = snapshot{b.LLCMisses(), b.RandomMisses()}
}

// classify derives the behaviour from the counter delta.
func (m *Manager) classify(delta snapshot) Behaviour {
	if delta.llcMisses < m.MinMisses {
		return Idle
	}
	if float64(delta.randomMisses) >= 0.5*float64(delta.llcMisses) {
		return LatencyBound
	}
	return BandwidthBound
}

// Observe reads the counters accumulated since the last call and
// produces advice per managed buffer. It does not migrate anything;
// pass the advice to Apply (optionally filtered) for that.
func (m *Manager) Observe() []Advice {
	var out []Advice
	for _, b := range m.managed {
		last := m.prev[b]
		cur := snapshot{b.LLCMisses(), b.RandomMisses()}
		delta := snapshot{cur.llcMisses - last.llcMisses, cur.randomMisses - last.randomMisses}
		m.prev[b] = cur

		adv := Advice{Buffer: b, Behaviour: m.classify(delta)}
		attr, ok := adv.Behaviour.attrFor()
		if !ok {
			adv.Reason = "buffer idle in last phase"
			out = append(out, adv)
			continue
		}
		adv.Attr = attr
		target, gain, err := m.estimate(b, attr, delta)
		if err != nil {
			adv.Reason = err.Error()
			out = append(out, adv)
			continue
		}
		if target == nil {
			adv.Reason = "already on the best feasible target"
			out = append(out, adv)
			continue
		}
		adv.Target = target
		adv.GainPerPhase = gain
		adv.Cost = m.a.Machine().MigrationCost(b, target)
		horizon := m.Horizon
		if horizon < 1 {
			horizon = 1
		}
		if gain*float64(horizon) > adv.Cost {
			adv.Migrate = true
			adv.Reason = fmt.Sprintf("%.3fs/phase x %d phases > %.3fs copy", gain, horizon, adv.Cost)
		} else {
			adv.Reason = fmt.Sprintf("%.3fs/phase x %d phases does not amortize %.3fs copy", gain, horizon, adv.Cost)
		}
		out = append(out, adv)
	}
	return out
}

// estimate finds the best feasible target for attr and the per-phase
// gain of moving there, using the attribute registry's values.
func (m *Manager) estimate(b *memsim.Buffer, attr memattr.ID, delta snapshot) (*memsim.Node, float64, error) {
	ranked, used, _, err := m.a.Candidates(attr, m.ini, false)
	if err != nil {
		return nil, 0, err
	}
	reg := m.a.Registry()
	cur := b.SegmentsSnapshot()[0].Node
	curVal, err := reg.Value(used, cur.Obj, m.ini)
	if err != nil {
		return nil, 0, fmt.Errorf("phases: current node has no %s value", reg.Name(used))
	}
	for _, tv := range ranked {
		n := m.a.Machine().Node(tv.Target)
		if n == cur {
			return nil, 0, nil // already best among feasible
		}
		if n.Available() < b.Size {
			continue
		}
		// Feasible better target found: estimate the gain.
		var gain float64
		flags, _ := reg.Flags(used)
		if flags&memattr.LowerFirst != 0 {
			// Latency in ns: misses pay (cur - best) each, divided by
			// concurrency.
			diff := float64(curVal) - float64(tv.Value)
			if diff <= 0 {
				return nil, 0, nil
			}
			gain = float64(delta.randomMisses) * diff * 1e-9 / (float64(m.threads) * m.AssumedMLP)
		} else {
			// Bandwidth in MiB/s: traffic moves at the better rate.
			bytes := float64(delta.llcMisses) * 64
			curBW := float64(curVal) * float64(1<<20)
			bestBW := float64(tv.Value) * float64(1<<20)
			if bestBW <= curBW {
				return nil, 0, nil
			}
			gain = bytes/curBW - bytes/bestBW
		}
		return n, gain, nil
	}
	return nil, 0, nil
}

// Apply migrates per the advice (only entries with Migrate set),
// advancing the engine clock by the migration costs, and returns the
// total cost.
func (m *Manager) Apply(advice []Advice, e *memsim.Engine) (float64, error) {
	var total float64
	for _, adv := range advice {
		if !adv.Migrate || adv.Target == nil {
			continue
		}
		cost, err := m.a.Machine().Migrate(adv.Buffer, adv.Target)
		if err != nil {
			return total, err
		}
		e.AdvanceClock(cost)
		total += cost
	}
	return total, nil
}
