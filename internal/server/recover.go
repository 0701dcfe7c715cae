package server

import (
	"fmt"
	"sort"
	"time"

	"hetmem/internal/journal"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/tenant"
)

// restoreFromJournal folds replayed records into the lease table and
// re-reserves each live lease's bytes on the machine, reconstructing
// per-node accounting exactly as it was journaled. The records come
// from journal.OpenStore, which has already truncated any torn tail
// and stitched the snapshot onto the WAL suffix, so every record here
// is internally consistent — but the sequence can still be
// semantically invalid (a free without an alloc), which is an error:
// it means the file was tampered with, not torn.
//
// Restored TTL leases get a fresh full TTL of grace from now: their
// clients' heartbeats were lost with the crash, and reaping a live
// client's lease is worse than carrying an orphan one extra TTL.
func (s *Server) restoreFromJournal(recs []journal.Record, nextLease uint64) error {
	type pending struct {
		rec   journal.Record // the alloc record, segments updated by migrates
		attr  memattr.ID     // rec.Attr, resolved
		keyed bool
	}
	live := make(map[uint64]*pending)
	for i, r := range recs {
		switch r.Op {
		case journal.OpAlloc:
			if _, dup := live[r.Lease]; dup {
				return fmt.Errorf("server: journal record %d: duplicate alloc of lease %d", i, r.Lease)
			}
			var sum uint64
			for _, seg := range r.Segments {
				sum += seg.Bytes
			}
			if sum != r.Size {
				return fmt.Errorf("server: journal record %d: lease %d segments sum to %d, size %d",
					i, r.Lease, sum, r.Size)
			}
			attr, ok := s.sys.Registry.ByName(r.Attr)
			if !ok {
				return fmt.Errorf("server: journal record %d: lease %d references unknown attribute %q", i, r.Lease, r.Attr)
			}
			live[r.Lease] = &pending{rec: r, attr: attr, keyed: r.Key != ""}
		case journal.OpFree:
			if _, ok := live[r.Lease]; !ok {
				return fmt.Errorf("server: journal record %d: free of unknown lease %d", i, r.Lease)
			}
			delete(live, r.Lease)
		case journal.OpMigrate:
			p, ok := live[r.Lease]
			if !ok {
				return fmt.Errorf("server: journal record %d: migrate of unknown lease %d", i, r.Lease)
			}
			var sum uint64
			for _, seg := range r.Segments {
				sum += seg.Bytes
			}
			if sum != p.rec.Size {
				return fmt.Errorf("server: journal record %d: migrated lease %d segments sum to %d, size %d",
					i, r.Lease, sum, p.rec.Size)
			}
			p.rec.Segments = r.Segments
			if r.Attr != "" {
				// The move reclassified the lease (the tiering advisor
				// journals its target attribute); the restored lease keeps
				// the new attribute.
				attr, ok := s.sys.Registry.ByName(r.Attr)
				if !ok {
					return fmt.Errorf("server: journal record %d: lease %d references unknown attribute %q", i, r.Lease, r.Attr)
				}
				p.rec.Attr, p.attr = r.Attr, attr
			}
			if r.Origin == journal.OriginAdvisor {
				// Restore the advisor's move counters exactly as they
				// were: a Capacity-bound move was a demotion, anything
				// else a promotion.
				if r.Attr == "Capacity" {
					s.metrics.AdvisorDemoted.Add(1)
				} else {
					s.metrics.AdvisorPromoted.Add(1)
				}
			}
		default:
			return fmt.Errorf("server: journal record %d: unknown op %d", i, r.Op)
		}
	}

	// Materialize survivors in lease-ID order so buffer and ID ordering
	// are deterministic across restarts.
	ids := make([]uint64, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := live[id]
		parts := make([]memsim.Segment, len(p.rec.Segments))
		for i, seg := range p.rec.Segments {
			n := s.sys.Machine.NodeByOS(seg.NodeOS)
			if n == nil {
				return fmt.Errorf("server: journal lease %d references unknown node %d", id, seg.NodeOS)
			}
			parts[i] = memsim.Segment{Node: n, Bytes: seg.Bytes}
		}
		buf, err := s.sys.Machine.AllocSplit(p.rec.Name, parts)
		if err != nil {
			return fmt.Errorf("server: journal lease %d does not fit the machine: %w", id, err)
		}
		l := newLease()
		l.id = id
		l.attr = uint16(p.attr)
		if l.ini, err = s.resolveInitiator(p.rec.Initiator); err != nil {
			l.ini = &internedIni{list: p.rec.Initiator} // a refused list: moves fail on it
		}
		if p.rec.Key != "" {
			l.ext = &leaseExt{key: p.rec.Key}
		}
		l.tenant = p.rec.Tenant
		if l.tenant == "" {
			// Pre-tenancy journal record: its lease belongs to the
			// default tenant, same as an untenanted live request.
			l.tenant = tenant.Default
		}
		l.buf = buf
		// Re-charge the tenant's books. ForceCharge, not Charge: the
		// bytes are already placed, and a quota lowered across the
		// restart must not strand a journaled lease.
		forceChargeBuf(s.tenants.Get(l.tenant), buf)
		l.setTTL(time.Duration(p.rec.TTLMillis) * time.Millisecond)
		l.renew(time.Now())
		s.leases.restore(l)
		if p.keyed {
			s.idem.restoreDone(p.rec.Key, AllocResponse{
				Lease:     id,
				Placement: buf.NodeNames(),
				AttrUsed:  p.rec.Attr,
			})
		}
	}
	s.leases.floor(nextLease)
	return nil
}
