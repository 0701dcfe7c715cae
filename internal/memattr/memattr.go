// Package memattr implements the memory-attributes API that is the
// primary contribution of the paper (released as hwloc 2.3's
// hwloc/memattrs.h). It characterizes the NUMA nodes of a topology
// ("targets") with performance attributes — capacity, locality,
// bandwidth, latency, read/write variants, and user-defined metrics —
// possibly relative to an "initiator" (a set of processors performing
// the accesses).
//
// The intended placement workflow, per the paper:
//
//  1. select the targets local to the cores where the application runs
//     (NUMA affinity): topology.LocalNUMANodes;
//  2. compare those targets for the attribute that matters to the
//     buffer being allocated (memory-kind affinity): Registry.BestTarget
//     or Registry.RankTargets;
//  3. allocate, falling back along the ranking when a target is full
//     (implemented by internal/alloc).
//
// Because placement decisions only need an ordering of targets, values
// do not need to be precise; firmware-provided theoretical numbers
// (internal/hmat) and benchmark measurements (internal/bench) are both
// acceptable sources.
package memattr

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"hetmem/internal/bitmap"
	"hetmem/internal/topology"
)

// Flags describe how an attribute behaves.
type Flags uint

const (
	// HigherFirst means larger values are better (bandwidth, capacity).
	HigherFirst Flags = 1 << iota
	// LowerFirst means smaller values are better (latency, locality).
	LowerFirst
	// NeedInitiator means values depend on which cores perform the
	// accesses, so they are stored and queried per initiator.
	NeedInitiator
)

func (f Flags) valid() bool {
	hi, lo := f&HigherFirst != 0, f&LowerFirst != 0
	return hi != lo // exactly one direction
}

// String lists the flag names, e.g. "higher-first,need-initiator".
func (f Flags) String() string {
	s := ""
	if f&HigherFirst != 0 {
		s = "higher-first"
	}
	if f&LowerFirst != 0 {
		if s != "" {
			s += ","
		}
		s += "lower-first"
	}
	if f&NeedInitiator != 0 {
		if s != "" {
			s += ","
		}
		s += "need-initiator"
	}
	return s
}

// ID identifies an attribute within a Registry. The predefined IDs
// below mirror hwloc's HWLOC_MEMATTR_ID_*; custom attributes get IDs
// from Register.
type ID int

const (
	// Capacity is the node capacity in bytes. Higher is better. No
	// initiator. Always discovered natively from the topology.
	Capacity ID = iota
	// Locality is the number of PUs in the target's locality; smaller
	// means the node is attached closer to a specific part of the
	// machine. Lower is better. No initiator. Always discovered
	// natively.
	Locality
	// Bandwidth is the access bandwidth in MiB/s from an initiator to
	// a target. Higher is better.
	Bandwidth
	// Latency is the access latency in nanoseconds from an initiator
	// to a target. Lower is better.
	Latency
	// ReadBandwidth and WriteBandwidth separate the two directions
	// when the platform exposes them.
	ReadBandwidth
	WriteBandwidth
	// ReadLatency and WriteLatency separate the two directions.
	ReadLatency
	WriteLatency

	firstCustomID
)

var predefined = []struct {
	id    ID
	name  string
	flags Flags
}{
	{Capacity, "Capacity", HigherFirst},
	{Locality, "Locality", LowerFirst},
	{Bandwidth, "Bandwidth", HigherFirst | NeedInitiator},
	{Latency, "Latency", LowerFirst | NeedInitiator},
	{ReadBandwidth, "ReadBandwidth", HigherFirst | NeedInitiator},
	{WriteBandwidth, "WriteBandwidth", HigherFirst | NeedInitiator},
	{ReadLatency, "ReadLatency", LowerFirst | NeedInitiator},
	{WriteLatency, "WriteLatency", LowerFirst | NeedInitiator},
}

// fallbacks maps an attribute to similar attributes to try when the
// requested one has no values on this platform, per the paper's
// allocator design ("Bandwidth instead of Read Bandwidth").
var fallbacks = map[ID][]ID{
	ReadBandwidth:  {Bandwidth},
	WriteBandwidth: {Bandwidth},
	ReadLatency:    {Latency},
	WriteLatency:   {Latency},
	Bandwidth:      {ReadBandwidth},
	Latency:        {ReadLatency},
}

// Errors returned by Registry queries.
var (
	ErrUnknownAttr = errors.New("memattr: unknown attribute")
	ErrNoValue     = errors.New("memattr: no value for this target/initiator")
	ErrDuplicate   = errors.New("memattr: attribute name already registered")
	ErrBadFlags    = errors.New("memattr: flags must set exactly one of HigherFirst/LowerFirst")
	ErrNoTarget    = errors.New("memattr: no target has a value for this attribute/initiator")
)

// valueEntry stores one measured/declared value, with the initiator it
// was recorded for: one of the registry's inis, or nil for
// initiator-less attributes.
type valueEntry struct {
	initiator *bitmap.Bitmap
	value     uint64
}

type attribute struct {
	id     ID
	name   string
	flags  Flags
	values map[*topology.Object][]valueEntry
}

// better reports whether a beats b under this attribute's direction.
func (a *attribute) better(va, vb uint64) bool {
	if a.flags&HigherFirst != 0 {
		return va > vb
	}
	return va < vb
}

// Registry holds the attributes of one topology.
type Registry struct {
	topo    *topology.Topology
	byID    map[ID]*attribute
	byName  map[string]ID
	nextID  ID
	ordered []ID // registration order, for stable reporting
	// inis holds one copy of each distinct initiator a value was
	// recorded for, in recording order; value entries share these
	// copies, so an entry's initiator is matched by pointer.
	inis []*bitmap.Bitmap
}

// NewRegistry creates a registry for the given topology with all
// predefined attributes registered. Capacity and Locality are filled
// immediately from the topology itself (they are always discoverable
// natively, per Table I of the paper); performance attributes start
// empty and are fed by internal/hmat or internal/bench.
func NewRegistry(topo *topology.Topology) *Registry {
	r := &Registry{
		topo:   topo,
		byID:   make(map[ID]*attribute),
		byName: make(map[string]ID),
		nextID: firstCustomID,
	}
	for _, p := range predefined {
		r.byID[p.id] = &attribute{
			id:     p.id,
			name:   p.name,
			flags:  p.flags,
			values: make(map[*topology.Object][]valueEntry),
		}
		r.byName[p.name] = p.id
		r.ordered = append(r.ordered, p.id)
	}
	for _, n := range topo.NUMANodes() {
		r.mustSet(Capacity, n, nil, n.Memory)
		r.mustSet(Locality, n, nil, uint64(n.CPUSet.Weight()))
	}
	return r
}

// Topology returns the topology this registry describes.
func (r *Registry) Topology() *topology.Topology { return r.topo }

// Register adds a custom attribute (e.g. "StreamTriadScore") and
// returns its ID. Names must be unique; flags must select exactly one
// ordering direction.
func (r *Registry) Register(name string, flags Flags) (ID, error) {
	if !flags.valid() {
		return 0, ErrBadFlags
	}
	if _, dup := r.byName[name]; dup {
		return 0, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	id := r.nextID
	r.nextID++
	r.byID[id] = &attribute{
		id:     id,
		name:   name,
		flags:  flags,
		values: make(map[*topology.Object][]valueEntry),
	}
	r.byName[name] = id
	r.ordered = append(r.ordered, id)
	return id, nil
}

// ByName resolves an attribute name to its ID.
func (r *Registry) ByName(name string) (ID, bool) {
	id, ok := r.byName[name]
	return id, ok
}

// Name returns the attribute's name, or "" if unknown.
func (r *Registry) Name(id ID) string {
	if a, ok := r.byID[id]; ok {
		return a.name
	}
	return ""
}

// Flags returns the attribute's flags.
func (r *Registry) Flags(id ID) (Flags, error) {
	a, ok := r.byID[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownAttr, int(id))
	}
	return a.flags, nil
}

// IDs returns all attribute IDs in registration order (predefined
// first).
func (r *Registry) IDs() []ID {
	out := make([]ID, len(r.ordered))
	copy(out, r.ordered)
	return out
}

func (r *Registry) mustSet(id ID, target *topology.Object, initiator *bitmap.Bitmap, v uint64) {
	if err := r.SetValue(id, target, initiator, v); err != nil {
		panic(err)
	}
}

// SetValue records a value for (attribute, target, initiator). For
// initiator-less attributes the initiator must be nil; for
// initiator-dependent attributes it must be a non-empty cpuset.
// Setting a value for the same (target, initiator) pair overwrites the
// previous one, so re-running discovery refreshes the registry.
func (r *Registry) SetValue(id ID, target *topology.Object, initiator *bitmap.Bitmap, v uint64) error {
	a, ok := r.byID[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownAttr, int(id))
	}
	if target == nil || target.Type != topology.NUMANode {
		return fmt.Errorf("memattr: target must be a NUMANode, got %v", target)
	}
	if a.flags&NeedInitiator != 0 {
		if initiator == nil || initiator.IsZero() {
			return fmt.Errorf("memattr: attribute %s needs a non-empty initiator", a.name)
		}
		initiator = r.internInitiator(initiator)
	} else if initiator != nil {
		return fmt.Errorf("memattr: attribute %s takes no initiator", a.name)
	}
	entries := a.values[target]
	for i := range entries {
		if entries[i].initiator == initiator {
			entries[i].value = v
			return nil
		}
	}
	a.values[target] = append(entries, valueEntry{initiator: initiator, value: v})
	return nil
}

// internInitiator returns the registry's copy of ini, recording one if
// no stored initiator equals it.
func (r *Registry) internInitiator(ini *bitmap.Bitmap) *bitmap.Bitmap {
	for _, s := range r.inis {
		if bitmap.Equal(s, ini) {
			return s
		}
	}
	s := ini.Copy()
	r.inis = append(r.inis, s)
	return s
}

// AppendLocality appends to dst a key for the initiator's locality:
// everything Value and topology.LocalNUMANodes read of it, and nothing
// else. For each stored initiator, its overlap with ini and whether it
// equals ini; for each NUMA node, whether its cpuset intersects ini;
// and whether ini is empty or the whole machine, on which an error and
// the CPU-less nodes depend. Two initiators with equal keys get equal
// values for every attribute and target and the same local nodes, so a
// ranking computed for one holds for the other — until the registry
// records a new initiator, which changes the key's layout.
func (r *Registry) AppendLocality(dst []byte, ini *bitmap.Bitmap) []byte {
	for _, s := range r.inis {
		ov := uint64(bitmap.AndWeight(s, ini)) << 1
		if bitmap.Equal(s, ini) {
			ov |= 1
		}
		dst = binary.AppendUvarint(dst, ov) // two bytes up to bitmap.MaxCPUs
	}
	var b byte
	for i, n := range r.topo.NUMANodes() {
		if bitmap.Intersects(n.CPUSet, ini) {
			b |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst, b = append(dst, b), 0
		}
	}
	var shape byte
	switch {
	case ini.IsZero():
		shape = 1
	case bitmap.Equal(ini, r.topo.Root().CPUSet):
		shape = 2
	}
	return append(dst, b, shape)
}

// Value returns the attribute value for the target as seen from the
// initiator. For initiator-less attributes pass a nil initiator (a
// non-nil one is accepted and ignored, easing generic callers).
//
// Initiator matching follows hwloc: an exact cpuset match wins;
// otherwise the stored initiator with the largest overlap with the
// query is used (so asking from one PU finds the value recorded for
// the whole local package). ErrNoValue is returned when nothing
// matches.
func (r *Registry) Value(id ID, target *topology.Object, initiator *bitmap.Bitmap) (uint64, error) {
	a, ok := r.byID[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownAttr, int(id))
	}
	entries := a.values[target]
	if len(entries) == 0 {
		return 0, ErrNoValue
	}
	if a.flags&NeedInitiator == 0 {
		return entries[0].value, nil
	}
	if initiator == nil || initiator.IsZero() {
		return 0, fmt.Errorf("memattr: attribute %s needs a non-empty initiator", a.name)
	}
	bestOverlap := 0
	var best *valueEntry
	for i := range entries {
		e := &entries[i]
		if bitmap.Equal(e.initiator, initiator) {
			return e.value, nil
		}
		if ov := bitmap.AndWeight(e.initiator, initiator); ov > bestOverlap {
			bestOverlap = ov
			best = e
		}
	}
	if best == nil {
		return 0, ErrNoValue
	}
	return best.value, nil
}

// TargetValue pairs a target with its value for some attribute.
type TargetValue struct {
	Target *topology.Object
	Value  uint64
}

// BestTarget returns the target with the best value for the attribute
// as seen from the initiator, among all targets that have a value,
// mirroring hwloc_memattr_get_best_target. Ties break toward the
// lower NUMA logical index for determinism. ErrNoTarget is returned
// when no target has a value.
func (r *Registry) BestTarget(id ID, initiator *bitmap.Bitmap) (*topology.Object, uint64, error) {
	ranked, err := r.RankTargets(id, initiator, r.topo.NUMANodes())
	if err != nil {
		return nil, 0, err
	}
	if len(ranked) == 0 {
		return nil, 0, ErrNoTarget
	}
	return ranked[0].Target, ranked[0].Value, nil
}

// BestLocalTarget is the paper's two-step selection in one call: it
// restricts candidates to the NUMA nodes local to the initiator, then
// ranks them by the attribute. This is what the heterogeneous
// allocator uses.
func (r *Registry) BestLocalTarget(id ID, initiator *bitmap.Bitmap) (*topology.Object, uint64, error) {
	ranked, err := r.RankTargets(id, initiator, r.topo.LocalNUMANodes(initiator))
	if err != nil {
		return nil, 0, err
	}
	if len(ranked) == 0 {
		return nil, 0, ErrNoTarget
	}
	return ranked[0].Target, ranked[0].Value, nil
}

// RankTargets orders the given candidate targets from best to worst
// for the attribute as seen from the initiator. Targets without a
// value are omitted. Ties break toward lower logical index so the
// ranking is deterministic.
func (r *Registry) RankTargets(id ID, initiator *bitmap.Bitmap, candidates []*topology.Object) ([]TargetValue, error) {
	a, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownAttr, int(id))
	}
	out := make([]TargetValue, 0, len(candidates))
	for _, tgt := range candidates {
		v, err := r.Value(id, tgt, initiator)
		if errors.Is(err, ErrNoValue) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, TargetValue{tgt, v})
	}
	slices.SortStableFunc(out, func(x, y TargetValue) int {
		if x.Value != y.Value {
			if a.better(x.Value, y.Value) {
				return -1
			}
			return 1
		}
		return cmp.Compare(x.Target.LogicalIndex, y.Target.LogicalIndex)
	})
	return out, nil
}

// InitiatorValue pairs an initiator cpuset with its value for some
// (attribute, target).
type InitiatorValue struct {
	Initiator *bitmap.Bitmap
	Value     uint64
}

// BestInitiator returns the initiator with the best value for the
// given attribute and target, mirroring hwloc_memattr_get_best_initiator.
// It fails for initiator-less attributes.
func (r *Registry) BestInitiator(id ID, target *topology.Object) (*bitmap.Bitmap, uint64, error) {
	a, ok := r.byID[id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownAttr, int(id))
	}
	if a.flags&NeedInitiator == 0 {
		return nil, 0, fmt.Errorf("memattr: attribute %s has no initiators", a.name)
	}
	entries := a.values[target]
	if len(entries) == 0 {
		return nil, 0, ErrNoValue
	}
	best := entries[0]
	for _, e := range entries[1:] {
		if a.better(e.value, best.value) {
			best = e
		}
	}
	return best.initiator.Copy(), best.value, nil
}

// Initiators returns all recorded (initiator, value) pairs for the
// attribute and target, in recording order.
func (r *Registry) Initiators(id ID, target *topology.Object) ([]InitiatorValue, error) {
	a, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownAttr, int(id))
	}
	entries := a.values[target]
	out := make([]InitiatorValue, 0, len(entries))
	for _, e := range entries {
		var ini *bitmap.Bitmap
		if e.initiator != nil {
			ini = e.initiator.Copy()
		}
		out = append(out, InitiatorValue{ini, e.value})
	}
	return out, nil
}

// Targets returns the targets that have at least one value for the
// attribute, in logical order.
func (r *Registry) Targets(id ID) []*topology.Object {
	a, ok := r.byID[id]
	if !ok {
		return nil
	}
	var out []*topology.Object
	for _, n := range r.topo.NUMANodes() {
		if len(a.values[n]) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// HasValues reports whether any target has a value for the attribute.
// The heterogeneous allocator uses this to decide whether to fall back
// to a similar attribute.
func (r *Registry) HasValues(id ID) bool { return len(r.Targets(id)) > 0 }

// ResolveWithFallback returns id itself if it has values, otherwise
// the first similar attribute (per the paper: Bandwidth instead of
// ReadBandwidth, ...) that does. The boolean reports whether a
// fallback was taken. ErrNoTarget is returned when nothing has values.
func (r *Registry) ResolveWithFallback(id ID) (ID, bool, error) {
	if _, ok := r.byID[id]; !ok {
		return 0, false, fmt.Errorf("%w: %d", ErrUnknownAttr, int(id))
	}
	if r.HasValues(id) {
		return id, false, nil
	}
	for _, fb := range fallbacks[id] {
		if r.HasValues(fb) {
			return fb, true, nil
		}
	}
	return 0, false, fmt.Errorf("%w: attribute %s (and fallbacks) has no values", ErrNoTarget, r.Name(id))
}
