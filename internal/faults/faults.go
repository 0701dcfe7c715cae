// Package faults injects the failure modes real tiered-memory systems
// exhibit into a simulated machine: NUMA nodes going offline and coming
// back, tiers degrading under contention (bandwidth/latency
// multipliers), capacity shrinking out from under the allocator, and
// transient allocation errors.
//
// Everything is deterministic and seedable. A Plan is an ordered script
// of Events; an Injector applies events to a Target (usually a
// memsim.Machine via NewMachineTarget) and notifies subscribers — the
// placement daemon subscribes its health state machine, so injected
// faults drive the same re-ranking, auto-migration, and load-shedding
// paths a production monitor would.
//
// Tests script scenarios through the same small Target interface, so
// chaos runs and unit tests share one fault vocabulary.
package faults

import (
	"errors"
	"fmt"
	"sync"

	"hetmem/internal/memsim"
)

// Kind enumerates fault event types.
type Kind int

// The fault kinds.
const (
	// Offline takes a node out of service: no new allocations land on
	// it until an Online event.
	Offline Kind = iota
	// Online brings a node back to service.
	Online
	// Degrade scales a node's delivered bandwidth (by BWFactor < 1)
	// and latency (by LatFactor > 1).
	Degrade
	// Restore resets a node's performance to nominal.
	Restore
	// Shrink caps a node's capacity at CapacityLimit bytes
	// (CapacityLimit 0 restores the full capacity).
	Shrink
	// Transient makes the node's next Failures allocations fail with a
	// retryable error.
	Transient
)

var kindNames = map[Kind]string{
	Offline:   "offline",
	Online:    "online",
	Degrade:   "degrade",
	Restore:   "restore",
	Shrink:    "shrink",
	Transient: "transient",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scripted fault.
type Event struct {
	// Step orders events within a Plan; events sharing a step fire
	// together.
	Step int
	// NodeOS is the OS index of the NUMA node the event targets.
	NodeOS int
	Kind   Kind

	// BWFactor and LatFactor parameterize Degrade.
	BWFactor, LatFactor float64
	// CapacityLimit parameterizes Shrink (0 = restore full capacity).
	CapacityLimit uint64
	// Failures parameterizes Transient.
	Failures int
}

func (e Event) String() string {
	switch e.Kind {
	case Degrade:
		return fmt.Sprintf("step %d: node %d %s bw×%.2f lat×%.2f", e.Step, e.NodeOS, e.Kind, e.BWFactor, e.LatFactor)
	case Shrink:
		return fmt.Sprintf("step %d: node %d %s to %d bytes", e.Step, e.NodeOS, e.Kind, e.CapacityLimit)
	case Transient:
		return fmt.Sprintf("step %d: node %d %s ×%d", e.Step, e.NodeOS, e.Kind, e.Failures)
	default:
		return fmt.Sprintf("step %d: node %d %s", e.Step, e.NodeOS, e.Kind)
	}
}

// ErrUnknownNode is returned when an event names a node the target
// does not have.
var ErrUnknownNode = errors.New("faults: unknown node")

// Target is the injection surface. memsim.Machine satisfies it via
// NewMachineTarget; tests can substitute fakes.
type Target interface {
	// NodeOSIndexes lists the injectable nodes.
	NodeOSIndexes() []int
	// SetOffline takes the node out of (or back into) service.
	SetOffline(nodeOS int, offline bool) error
	// SetPerfFactors scales the node's bandwidth and latency.
	SetPerfFactors(nodeOS int, bw, lat float64) error
	// SetCapacityLimit caps the node's capacity (0 = full).
	SetCapacityLimit(nodeOS int, limit uint64) error
	// InjectAllocFailures arms n transient allocation failures.
	InjectAllocFailures(nodeOS int, n int) error
}

// machineTarget adapts a memsim.Machine to the Target interface.
type machineTarget struct{ m *memsim.Machine }

// NewMachineTarget wraps a simulated machine as an injection target.
func NewMachineTarget(m *memsim.Machine) Target { return machineTarget{m} }

func (t machineTarget) NodeOSIndexes() []int {
	nodes := t.m.Nodes()
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = n.OSIndex()
	}
	return out
}

func (t machineTarget) node(os int) (*memsim.Node, error) {
	n := t.m.NodeByOS(os)
	if n == nil {
		return nil, fmt.Errorf("%w: P#%d", ErrUnknownNode, os)
	}
	return n, nil
}

func (t machineTarget) SetOffline(os int, offline bool) error {
	n, err := t.node(os)
	if err != nil {
		return err
	}
	n.SetOffline(offline)
	return nil
}

func (t machineTarget) SetPerfFactors(os int, bw, lat float64) error {
	n, err := t.node(os)
	if err != nil {
		return err
	}
	n.SetPerfFactors(bw, lat)
	return nil
}

func (t machineTarget) SetCapacityLimit(os int, limit uint64) error {
	n, err := t.node(os)
	if err != nil {
		return err
	}
	n.SetCapacityLimit(limit)
	return nil
}

func (t machineTarget) InjectAllocFailures(os int, count int) error {
	n, err := t.node(os)
	if err != nil {
		return err
	}
	if count > 0 {
		n.InjectAllocFailures(uint64(count))
	}
	return nil
}

// Injector applies events to a target, keeps a log, and fans events out
// to subscribers. Apply is safe for concurrent use.
type Injector struct {
	target Target

	mu   sync.Mutex
	subs []func(Event)
	log  []Event
}

// NewInjector creates an injector over a target.
func NewInjector(t Target) *Injector { return &Injector{target: t} }

// Subscribe registers a callback invoked synchronously (in Apply's
// goroutine) for every successfully applied event. Subscribe before
// the first Apply; subscribing concurrently with Apply is safe but the
// new subscriber only sees subsequent events.
func (in *Injector) Subscribe(fn func(Event)) {
	in.mu.Lock()
	in.subs = append(in.subs, fn)
	in.mu.Unlock()
}

// Apply injects one event into the target, logs it, and notifies
// subscribers. The target mutation happens before subscribers run, so
// a subscriber observing the machine sees the post-event state.
func (in *Injector) Apply(ev Event) error {
	var err error
	switch ev.Kind {
	case Offline:
		err = in.target.SetOffline(ev.NodeOS, true)
	case Online:
		err = in.target.SetOffline(ev.NodeOS, false)
	case Degrade:
		err = in.target.SetPerfFactors(ev.NodeOS, ev.BWFactor, ev.LatFactor)
	case Restore:
		err = in.target.SetPerfFactors(ev.NodeOS, 0, 0)
	case Shrink:
		err = in.target.SetCapacityLimit(ev.NodeOS, ev.CapacityLimit)
	case Transient:
		err = in.target.InjectAllocFailures(ev.NodeOS, ev.Failures)
	default:
		err = fmt.Errorf("faults: unknown event kind %v", ev.Kind)
	}
	if err != nil {
		return err
	}
	in.mu.Lock()
	in.log = append(in.log, ev)
	subs := make([]func(Event), len(in.subs))
	copy(subs, in.subs)
	in.mu.Unlock()
	for _, fn := range subs {
		fn(ev)
	}
	return nil
}

// Run applies a whole plan in order, stopping at the first error.
func (in *Injector) Run(p Plan) error {
	for _, ev := range p.Events {
		if err := in.Apply(ev); err != nil {
			return err
		}
	}
	return nil
}

// HealAll brings every node of the target back to nominal: online,
// full capacity, nominal performance. Pending transient failures are
// not cleared (they drain on the next allocations).
func (in *Injector) HealAll() error {
	for _, os := range in.target.NodeOSIndexes() {
		for _, ev := range []Event{
			{NodeOS: os, Kind: Online},
			{NodeOS: os, Kind: Restore},
			{NodeOS: os, Kind: Shrink, CapacityLimit: 0},
		} {
			if err := in.Apply(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// Log returns a copy of all applied events in order.
func (in *Injector) Log() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.log))
	copy(out, in.log)
	return out
}
