package server

// The batch allocation fast path: /v1/alloc/batch places many buffers
// and journals them as ONE WAL batch — one contiguous write, one fsync
// — instead of paying a journal round-trip per item. Items are
// independent: each succeeds or fails on its own, and the response
// reports per-item outcomes in request order. Only the journal write
// is all-or-nothing (a failed write rolls the whole batch back and
// every placed item is unwound).

import (
	"context"
	"fmt"
	"time"

	"hetmem/internal/alloc"
	"hetmem/internal/journal"
	"hetmem/internal/memattr"
)

// batchItem tracks one successfully placed item between placement and
// journal commit. size mirrors the lease's size because restore()
// transfers our lease reference to the table — after phase 2 the
// lease may already be freed and recycled by a concurrent client, so
// phase 3 must not touch l.
type batchItem struct {
	idx  int // index into the request (and response) slice
	l    *lease
	size uint64
	dec  alloc.Decision
	resp AllocResponse
}

// AllocBatch is the Backend entry behind /v1/alloc/batch: every item
// placed independently, one journal batch for the lot.
func (s *Server) AllocBatch(ctx context.Context, reqs []AllocRequest) (BatchAllocResponse, error) {
	resp := BatchAllocResponse{Results: make([]BatchAllocItem, len(reqs))}
	fail := func(i int, err error) {
		body := ErrorBodyFor(err, s.cfg.RetryAfterSeconds)
		resp.Results[i].Error = &body
		s.metrics.AllocFailed.Add(1)
	}
	// One tenant per batch: the whole request rode in under one
	// X-Hetmem-Tenant header (or one wire tenant field). Burstable
	// batch items use the non-queueing class check — parking a
	// half-placed batch in the admission queue would hold its
	// placements hostage.
	tn := s.tenants.Get(TenantFromContext(ctx))
	tenantEcho := TenantFromContext(ctx)

	// Phase 1: place every item. Capacity is claimed under the per-node
	// locks as each placement lands, so items in the same batch see each
	// other's usage — a batch cannot oversubscribe a node.
	var placed []batchItem
	for i, item := range reqs {
		if err := validateAllocRequest(item); err != nil {
			fail(i, err)
			continue
		}
		if item.IdempotencyKey != "" {
			// Idempotency is a single-/alloc contract: replaying "the
			// batch minus the items that succeeded last time" has no
			// sound meaning, so batches refuse keyed items outright.
			fail(i, fmt.Errorf("%w: idempotency_key is not supported in batches", ErrBadRequest))
			continue
		}
		// Attribute-less items defer to the tiering advisor, exactly
		// like a single /alloc (see doAlloc).
		advice := ""
		if item.Attr == "" {
			if s.advisor == nil {
				fail(i, fmt.Errorf("%w: missing attr", ErrBadRequest))
				continue
			}
			item.Attr = s.adviceFor(item.Name)
			advice = item.Attr
		}
		id, ok := s.sys.Registry.ByName(item.Attr)
		if !ok {
			fail(i, fmt.Errorf("%w: unknown attribute %q", ErrBadRequest, item.Attr))
			continue
		}
		ini, err := s.resolveInitiator(item.Initiator)
		if err != nil {
			fail(i, err)
			continue
		}
		if err := s.admitClass(tn, item.Size); err != nil {
			fail(i, err)
			continue
		}
		sp := alloc.Spec{Avoid: s.avoidFor(tn, item.Size), Partial: item.Partial, Remote: item.Remote}
		if item.Policy == "bind" {
			sp.Policy = alloc.Bind
		}
		buf, dec, err := s.sys.Allocator.AllocSpec(item.Name, item.Size, id, ini.bm, sp)
		if err != nil {
			fail(i, err)
			continue
		}
		if err := chargeBuf(tn, buf); err != nil {
			s.sys.Machine.Free(buf)
			s.admitGate.broadcast()
			fail(i, err)
			continue
		}
		ttl := s.grantTTL(item.TTLSeconds)
		l := newLease()
		l.attr = uint16(id)
		l.ini = ini
		l.tenant = tn.Name
		l.buf = buf
		l.setTTL(ttl)
		l.renew(time.Now())
		l.id = s.leases.next.Add(1)
		placed = append(placed, batchItem{
			idx: i, l: l, size: item.Size, dec: dec,
			resp: AllocResponse{
				Lease:        l.id,
				Placement:    buf.NodeNames(),
				AttrUsed:     s.sys.Registry.Name(dec.Used),
				AttrFellBack: dec.AttrFellBack,
				Rank:         dec.RankPosition,
				Partial:      dec.Partial,
				Remote:       dec.Remote,
				TTLSeconds:   ttl.Seconds(),
				Tenant:       tenantEcho,
				Advice:       advice,
			},
		})
	}

	// Phase 2: one journal batch for every placement, then make the
	// leases visible. Journal-before-visible holds batch-wide; the
	// checkpoint lock spans both so a snapshot sees all or none.
	if len(placed) > 0 {
		s.ckmu.RLock()
		if err := s.journalBatch(placed); err != nil {
			s.ckmu.RUnlock()
			// The batch write failed (or its fsync did, compensated
			// inside journalBatch): nothing becomes visible; every
			// placement is unwound, charges included.
			for _, it := range placed {
				refundSegs(tn, it.l.buf.SegmentsSnapshot())
				s.sys.Machine.Free(it.l.buf)
				it.l.release()
				fail(it.idx, err)
			}
			s.admitGate.broadcast()
			placed = nil
		} else {
			for _, it := range placed {
				s.leases.restore(it.l)
			}
			s.ckmu.RUnlock()
		}
	}

	for _, it := range placed {
		resp.Results[it.idx].Alloc = &it.resp
		s.metrics.AllocTotal.Add(1)
		s.metrics.BytesPlaced.Add(it.size)
		if it.dec.RankPosition > 0 {
			s.metrics.FallbackTotal.Add(1)
		}
		if it.dec.AttrFellBack {
			s.metrics.AttrFallback.Add(1)
		}
		if it.dec.Partial {
			s.metrics.PartialTotal.Add(1)
		}
		if it.dec.Remote {
			s.metrics.RemoteTotal.Add(1)
		}
	}
	for _, it := range resp.Results {
		if it.Error != nil {
			resp.Failed++
		} else {
			resp.Succeeded++
		}
	}
	return resp, nil
}

// journalBatch appends one OpAlloc record per placed item as a single
// contiguous write plus (when durability is configured) one fsync. The
// caller holds s.ckmu (read side). On a fsync-only failure the records
// are in the WAL, so compensating frees keep replay from resurrecting
// leases nobody was granted.
func (s *Server) journalBatch(placed []batchItem) error {
	if s.store == nil {
		return nil
	}
	recs := make([]journal.Record, len(placed))
	for i, it := range placed {
		recs[i] = journal.Record{
			Op:        journal.OpAlloc,
			Lease:     it.l.id,
			Name:      it.l.buf.Name,
			Attr:      s.sys.Registry.Name(memattr.ID(it.l.attr)),
			Initiator: it.l.ini.list,
			Size:      it.l.buf.Size,
			Tenant:    it.l.tenant,
			TTLMillis: uint64(it.l.getTTL() / time.Millisecond),
			Segments:  segmentsOf(it.l.buf),
		}
	}
	appended, err := s.store.AppendBatch(recs, s.cfg.GroupCommit)
	if appended {
		// As in appendJournal: records whose fsync failed are still in
		// the WAL, so they count and grow the log like any other.
		s.journalHousekeeping(len(recs))
	}
	if err != nil {
		if appended {
			frees := make([]journal.Record, len(placed))
			for i, it := range placed {
				frees[i] = journal.Record{Op: journal.OpFree, Lease: it.l.id}
			}
			// Best effort, like the single-alloc path: if the frees do
			// not land either, the orphans carry a TTL.
			if freed, _ := s.store.AppendBatch(frees, s.cfg.GroupCommit); freed {
				s.journalHousekeeping(len(frees))
			}
		}
		return fmt.Errorf("server: journal batch append: %w", err)
	}
	return nil
}
