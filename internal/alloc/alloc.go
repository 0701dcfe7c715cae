// Package alloc implements the paper's heterogeneous memory allocator
// (Section IV-B): a single call — Alloc(name, size, attribute) — that
// places a buffer on the best *local* memory target for the requested
// performance attribute, with ranked fallback when the best target is
// full, attribute fallback when the platform lacks the requested
// metric (Bandwidth instead of ReadBandwidth), and optional hybrid
// (partial) and remote placements.
//
// The key portability property, demonstrated by the use case: the
// application states what matters for a buffer (Bandwidth, Latency,
// Capacity, or a custom metric), never which technology to use. The
// same request picks MCDRAM on KNL, DRAM on a Xeon without HBM, and
// adapts to however many nodes the machine has — unlike memkind-style
// APIs that hardwire HBW/DRAM kinds (see internal/memkind for that
// baseline).
package alloc

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"hetmem/internal/bitmap"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/topology"
)

// Policy selects the fallback behaviour of an allocation.
type Policy int

const (
	// Preferred allocates on the best target if possible and walks
	// down the attribute ranking otherwise (the allocator's default,
	// unlike Linux's restricted preferred policy — see
	// LinuxPreferredAllowed).
	Preferred Policy = iota
	// Bind allocates on the best target or fails.
	Bind
)

// Errors returned by the allocator.
var (
	// ErrExhausted means no candidate target could hold the buffer.
	ErrExhausted = errors.New("alloc: all candidate targets exhausted")
)

// Decision records how an allocation was placed, for logging and for
// the experiments.
type Decision struct {
	// Requested and Used are the requested attribute and the one
	// actually used after attribute fallback.
	Requested, Used memattr.ID
	AttrFellBack    bool

	// Target is the node of the first (or only) segment.
	Target *topology.Object
	// RankPosition is the index of the chosen target in the ranking
	// (0 = the best target was available).
	RankPosition int
	// Partial is true when the buffer was split across targets.
	Partial bool
	// Remote is true when a non-local target had to be used.
	Remote bool
}

func (d Decision) String() string {
	s := fmt.Sprintf("target=%s rank=%d", d.Target, d.RankPosition)
	if d.AttrFellBack {
		s += " (attribute fallback)"
	}
	if d.Partial {
		s += " (partial)"
	}
	if d.Remote {
		s += " (remote)"
	}
	return s
}

// Spec is the struct form of an Option list. Hot callers (the
// placement daemon's request path) fill one Spec and call AllocSpec or
// MigrateToBestSpec directly, paying no per-request closure or option
// slice allocations; the Option API remains as sugar over it.
type Spec struct {
	// Policy is the fallback policy (Preferred by default).
	Policy Policy
	// Partial allows splitting the buffer across several targets in
	// ranking order when no single one fits.
	Partial bool
	// Remote extends the candidate set to non-local nodes.
	Remote bool
	// Avoid deprioritizes targets for which it returns true.
	Avoid func(*topology.Object) bool
}

// Option configures one allocation.
type Option func(*Spec)

// specOf folds an option list into a Spec.
func specOf(opts []Option) Spec {
	var sp Spec
	for _, o := range opts {
		o(&sp)
	}
	return sp
}

// WithPolicy sets the fallback policy.
func WithPolicy(p Policy) Option { return func(s *Spec) { s.Policy = p } }

// WithPartial allows splitting the buffer across several targets in
// ranking order when no single one fits (the hybrid allocations of
// Section VII).
func WithPartial() Option { return func(s *Spec) { s.Partial = true } }

// WithRemote extends the candidate set to non-local nodes (ranked
// after local ones) when local targets are exhausted.
func WithRemote() Option { return func(s *Spec) { s.Remote = true } }

// WithAvoid deprioritizes targets for which pred returns true: they
// move to the end of the ranking (in their original relative order)
// instead of being excluded, so a degraded tier is still a last resort
// when everything healthy is full. The placement daemon uses this to
// steer traffic away from unhealthy nodes.
func WithAvoid(pred func(*topology.Object) bool) Option {
	return func(s *Spec) { s.Avoid = pred }
}

// demote stable-partitions ranked targets: preferred first, avoided
// last. When nothing is avoided — the steady state of a healthy
// machine — the input slice is returned as-is, allocation-free.
func demote(ranked []memattr.TargetValue, avoid func(*topology.Object) bool) []memattr.TargetValue {
	if avoid == nil {
		return ranked
	}
	first := -1
	for i, tv := range ranked {
		if avoid(tv.Target) {
			first = i
			break
		}
	}
	if first == -1 {
		return ranked
	}
	out := make([]memattr.TargetValue, 0, len(ranked))
	var tail []memattr.TargetValue
	for _, tv := range ranked {
		if avoid(tv.Target) {
			tail = append(tail, tv)
		} else {
			out = append(out, tv)
		}
	}
	return append(out, tail...)
}

// skippable reports whether an allocation error should make the
// allocator fall down the ranking (full or offline target) rather than
// fail the request (transient faults, programming errors).
func skippable(err error) bool {
	return errors.Is(err, memsim.ErrNoCapacity) || errors.Is(err, memsim.ErrNodeOffline)
}

// Allocator binds a simulated machine to an attribute registry.
//
// An Allocator is safe for concurrent use by multiple goroutines once
// discovery has populated the registry: Alloc, MigrateToBest, and the
// planners only read the registry and rely on the machine's per-node
// atomic capacity accounting. Capacity checks are races-by-design —
// when two goroutines contend for the last bytes of a target, the
// loser transparently falls down the ranking exactly as if the target
// had been full, and the hybrid (partial) path retries its plan a few
// times before giving up. Mutating the registry (SetValue, Register)
// concurrently with allocation is not supported.
type Allocator struct {
	m   *memsim.Machine
	reg *memattr.Registry

	// cache memoizes Candidates rankings (see cache.go); localGen is
	// the allocator's own invalidation counter, added to the machine's
	// placement generation.
	cache    *candCache
	localGen atomic.Uint64
}

// New creates an allocator with its ranked-candidate cache; see
// InvalidateCandidates.
func New(m *memsim.Machine, reg *memattr.Registry) *Allocator {
	return &Allocator{m: m, reg: reg, cache: newCandCache()}
}

// Machine returns the underlying machine.
func (a *Allocator) Machine() *memsim.Machine { return a.m }

// Registry returns the attribute registry.
func (a *Allocator) Registry() *memattr.Registry { return a.reg }

// Candidates returns the ranked candidate nodes for an allocation from
// the initiator optimizing attr: local nodes in attribute order,
// followed — when remote is set — by the remaining nodes in attribute
// order. It also reports the attribute actually used after fallback.
//
// Results are memoized per (attribute, locality, remote) until the
// machine's placement generation moves — initiators of one locality
// share a ranking (see cache.go) — so the returned slice may be shared
// with the cache and other callers: treat it as read-only.
func (a *Allocator) Candidates(attr memattr.ID, initiator *bitmap.Bitmap, remote bool) ([]memattr.TargetValue, memattr.ID, bool, error) {
	if initiator == nil {
		return a.rankCandidates(attr, initiator, remote) // nothing to key on
	}
	gen := a.cacheGen()
	var buf [candKeyBuf]byte
	key := a.appendCandKey(buf[:0], attr, initiator, remote)
	if e, ok := a.cache.lookup(key, gen); ok {
		a.cache.hits.Add(1)
		return e.ranked, e.used, e.fell, nil
	}
	a.cache.misses.Add(1)
	ranked, used, fell, err := a.rankCandidates(attr, initiator, remote)
	if err != nil {
		return nil, 0, false, err
	}
	a.cache.store(string(key), &candEntry{gen: gen, ranked: ranked, used: used, fell: fell})
	return ranked, used, fell, nil
}

// rankCandidates is the uncached ranking Candidates memoizes.
func (a *Allocator) rankCandidates(attr memattr.ID, initiator *bitmap.Bitmap, remote bool) ([]memattr.TargetValue, memattr.ID, bool, error) {
	used, fell, err := a.reg.ResolveWithFallback(attr)
	if err != nil {
		return nil, 0, false, err
	}
	topo := a.reg.Topology()
	local, err := a.reg.RankTargets(used, initiator, topo.LocalNUMANodes(initiator))
	if err != nil {
		return nil, 0, false, err
	}
	out := local
	if remote {
		inLocal := make(map[*topology.Object]bool, len(local))
		for _, tv := range local {
			inLocal[tv.Target] = true
		}
		all, err := a.reg.RankTargets(used, initiator, topo.NUMANodes())
		if err != nil {
			return nil, 0, false, err
		}
		for _, tv := range all {
			if !inLocal[tv.Target] {
				out = append(out, tv)
			}
		}
	}
	return out, used, fell, nil
}

// Alloc places size bytes according to the requested attribute, as
// seen from the initiator. This is the paper's mem_alloc(...,
// attribute).
func (a *Allocator) Alloc(name string, size uint64, attr memattr.ID, initiator *bitmap.Bitmap, opts ...Option) (*memsim.Buffer, Decision, error) {
	return a.AllocSpec(name, size, attr, initiator, specOf(opts))
}

// AllocSpec is Alloc with the options as a plain struct — the
// allocation-free form the daemon's hot path uses.
func (a *Allocator) AllocSpec(name string, size uint64, attr memattr.ID, initiator *bitmap.Bitmap, c Spec) (*memsim.Buffer, Decision, error) {
	ranked, used, fell, err := a.Candidates(attr, initiator, c.Remote)
	if err != nil {
		return nil, Decision{}, err
	}
	if len(ranked) == 0 {
		return nil, Decision{}, fmt.Errorf("%w: no candidate has attribute %s", ErrExhausted, a.reg.Name(used))
	}
	ranked = demote(ranked, c.Avoid)
	dec := Decision{Requested: attr, Used: used, AttrFellBack: fell}
	isRemote := func(t *topology.Object) bool {
		return !bitmap.Intersects(t.CPUSet, initiator)
	}

	limit := len(ranked)
	if c.Policy == Bind {
		limit = 1
	}
	for i := 0; i < limit; i++ {
		t := ranked[i].Target
		buf, err := a.m.Alloc(name, size, a.m.Node(t))
		if err == nil {
			dec.Target = t
			dec.RankPosition = i
			dec.Remote = isRemote(t)
			return buf, dec, nil
		}
		if !skippable(err) {
			return nil, Decision{}, err
		}
	}

	if c.Partial && c.Policy != Bind {
		// Hybrid allocation: fill targets in ranking order. The plan is
		// built from a snapshot of per-node availability, so under
		// concurrent allocation AllocSplit can lose the race; re-plan a
		// few times before declaring exhaustion.
		for attempt := 0; attempt < 4; attempt++ {
			var parts []memsim.Segment
			remaining := size
			for _, tv := range ranked {
				n := a.m.Node(tv.Target)
				take := n.Available()
				if take == 0 {
					continue
				}
				if take > remaining {
					take = remaining
				}
				parts = append(parts, memsim.Segment{Node: n, Bytes: take})
				remaining -= take
				if remaining == 0 {
					break
				}
			}
			if remaining != 0 {
				break
			}
			buf, err := a.m.AllocSplit(name, parts)
			if skippable(err) {
				continue
			}
			if err != nil {
				return nil, Decision{}, err
			}
			dec.Target = parts[0].Node.Obj
			dec.Partial = true
			dec.Remote = isRemote(parts[0].Node.Obj)
			return buf, dec, nil
		}
	}
	return nil, Decision{}, fmt.Errorf("%w: %d bytes requested for %q", ErrExhausted, size, name)
}

// MigrateToBest moves an existing buffer to the best target for attr
// that can hold it, returning the simulated migration cost in seconds
// (0 if the buffer is already on the best feasible target). The
// paper's Section VII recommends this only across application phases,
// because the OS cost is high.
func (a *Allocator) MigrateToBest(buf *memsim.Buffer, attr memattr.ID, initiator *bitmap.Bitmap, opts ...Option) (float64, Decision, error) {
	return a.MigrateToBestSpec(buf, attr, initiator, specOf(opts))
}

// MigrateToBestSpec is MigrateToBest with the options as a plain
// struct.
func (a *Allocator) MigrateToBestSpec(buf *memsim.Buffer, attr memattr.ID, initiator *bitmap.Bitmap, c Spec) (float64, Decision, error) {
	ranked, used, fell, err := a.Candidates(attr, initiator, c.Remote)
	if err != nil {
		return 0, Decision{}, err
	}
	ranked = demote(ranked, c.Avoid)
	dec := Decision{Requested: attr, Used: used, AttrFellBack: fell}
	for i, tv := range ranked {
		n := a.m.Node(tv.Target)
		segs := buf.SegmentsSnapshot()
		already := len(segs) == 1 && segs[0].Node == n
		if !already && n.Available() < buf.Size {
			continue
		}
		dec.Target = tv.Target
		dec.RankPosition = i
		dec.Remote = !bitmap.Intersects(tv.Target.CPUSet, initiator)
		if already {
			return 0, dec, nil
		}
		cost, err := a.m.Migrate(buf, n)
		if skippable(err) {
			// Lost a capacity race or the node just went down; try the
			// next candidate.
			continue
		}
		return cost, dec, err
	}
	return 0, Decision{}, fmt.Errorf("%w: migrating %q", ErrExhausted, buf.Name)
}

// LinuxPreferredAllowed reports whether Linux's preferred memory
// policy could express "allocate on preferred, else on any fallback":
// per the paper's footnote, the preferred node must have a lower OS
// index than the fallback nodes. On KNL the MCDRAM always has higher
// indexes than the DRAM, so preferring MCDRAM with DRAM fallback is
// exactly the case Linux cannot express — and our allocator can.
func LinuxPreferredAllowed(preferred *memsim.Node, fallbacks []*memsim.Node) bool {
	for _, f := range fallbacks {
		if preferred.OSIndex() > f.OSIndex() {
			return false
		}
	}
	return true
}

// Request is one buffer of a capacity-planning problem (Section VII).
type Request struct {
	Name string
	Size uint64
	Attr memattr.ID
	// Priority orders the priority planner: higher allocates first.
	Priority int
}

// Placement pairs a request with its outcome.
type Placement struct {
	Request Request
	Buffer  *memsim.Buffer
	Dec     Decision
	Err     error
}

// PlanFCFS allocates the requests in the order given (first come,
// first served) — late performance-critical buffers may find fast
// memory already full.
func (a *Allocator) PlanFCFS(reqs []Request, initiator *bitmap.Bitmap, opts ...Option) []Placement {
	out := make([]Placement, 0, len(reqs))
	for _, r := range reqs {
		buf, dec, err := a.Alloc(r.Name, r.Size, r.Attr, initiator, opts...)
		out = append(out, Placement{Request: r, Buffer: buf, Dec: dec, Err: err})
	}
	return out
}

// PlanPriority allocates in descending priority (stable for equal
// priorities), implementing the paper's recommendation that capacity
// conflicts be managed by priorities rather than allocation order.
func (a *Allocator) PlanPriority(reqs []Request, initiator *bitmap.Bitmap, opts ...Option) []Placement {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return reqs[idx[x]].Priority > reqs[idx[y]].Priority
	})
	out := make([]Placement, len(reqs))
	for _, i := range idx {
		r := reqs[i]
		buf, dec, err := a.Alloc(r.Name, r.Size, r.Attr, initiator, opts...)
		out[i] = Placement{Request: r, Buffer: buf, Dec: dec, Err: err}
	}
	return out
}
