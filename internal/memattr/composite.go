package memattr

import (
	"errors"
	"fmt"
	"slices"

	"hetmem/internal/bitmap"
	"hetmem/internal/topology"
)

// Composite attributes implement the paper's footnote on complex
// criteria: "If the memory access pattern is 2 reads for 1 write, one
// may build its own target ranking by combining read/write bandwidths
// from the API". A composite is a custom attribute whose value for
// every (target, initiator) pair is a weighted sum of other
// attributes' values; once registered it participates in BestTarget,
// RankTargets and the allocator exactly like a measured attribute.

// Term is one weighted component of a composite attribute.
type Term struct {
	Attr   ID
	Weight float64
}

// ErrCompositeTerms is wrapped by composite validation failures.
var ErrCompositeTerms = errors.New("memattr: bad composite terms")

// RegisterComposite registers a custom attribute named name and fills
// it for every (target, initiator) pair for which *all* terms have a
// value. The direction flag is given by the caller (e.g. a combined
// bandwidth is HigherFirst; a weighted read/write latency LowerFirst).
// Weights must be non-zero. Values are rounded to the nearest integer.
//
// Example, the footnote's 2-reads-per-write ranking:
//
//	id, err := reg.RegisterComposite("RW21Bandwidth",
//	    memattr.HigherFirst|memattr.NeedInitiator,
//	    []memattr.Term{{memattr.ReadBandwidth, 2. / 3}, {memattr.WriteBandwidth, 1. / 3}})
func (r *Registry) RegisterComposite(name string, flags Flags, terms []Term) (ID, error) {
	if len(terms) == 0 {
		return 0, fmt.Errorf("%w: no terms", ErrCompositeTerms)
	}
	needIni := flags&NeedInitiator != 0
	for _, t := range terms {
		a, ok := r.byID[t.Attr]
		if !ok {
			return 0, fmt.Errorf("%w: unknown attribute %d", ErrCompositeTerms, int(t.Attr))
		}
		if t.Weight == 0 {
			return 0, fmt.Errorf("%w: zero weight for %s", ErrCompositeTerms, a.name)
		}
		if a.flags&NeedInitiator != 0 && !needIni {
			return 0, fmt.Errorf("%w: term %s needs an initiator but the composite does not", ErrCompositeTerms, a.name)
		}
	}
	id, err := r.Register(name, flags)
	if err != nil {
		return 0, err
	}

	// Candidate initiators: the union of initiators recorded for the
	// terms (nil for initiator-less composites).
	for _, tgt := range r.topo.NUMANodes() {
		inis := r.compositeInitiators(terms, tgt, needIni)
		for _, ini := range inis {
			var sum float64
			complete := true
			for _, t := range terms {
				v, err := r.Value(t.Attr, tgt, ini)
				if err != nil {
					complete = false
					break
				}
				sum += t.Weight * float64(v)
			}
			if !complete {
				continue
			}
			if sum < 0 {
				sum = 0
			}
			if err := r.SetValue(id, tgt, ini, uint64(sum+0.5)); err != nil {
				return 0, err
			}
		}
	}
	return id, nil
}

// compositeInitiators collects the distinct initiators recorded for
// the terms on a target.
func (r *Registry) compositeInitiators(terms []Term, tgt *topology.Object, needIni bool) []*bitmap.Bitmap {
	if !needIni {
		return []*bitmap.Bitmap{nil}
	}
	var out []*bitmap.Bitmap
	for _, t := range terms {
		a := r.byID[t.Attr]
		if a.flags&NeedInitiator == 0 {
			continue
		}
		for _, e := range a.values[tgt] {
			if !slices.Contains(out, e.initiator) { // one copy per initiator in the registry
				out = append(out, e.initiator)
			}
		}
	}
	return out
}
