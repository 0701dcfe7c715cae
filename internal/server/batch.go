package server

// The batch allocation fast path: /v1/alloc/batch places many buffers
// and journals them as ONE WAL batch — one contiguous write, one fsync
// — instead of paying a journal round-trip per item. Items are
// independent: each succeeds or fails on its own, and the response
// reports per-item outcomes in request order. Only the journal write
// is all-or-nothing (a failed write rolls the whole batch back and
// every placed item is unwound). A single /v1/alloc is a batch of one:
// both run place for each request and one commit for the lot.

import (
	"context"
	"fmt"
)

var errKeyedBatchItem = fmt.Errorf("%w: idempotency_key is not supported in batches", ErrBadRequest)

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
	// X-Hetmem-Tenant header (or one wire tenant field).
	tn := s.tenants.Get(TenantFromContext(ctx))

	// Capacity is claimed under the per-node locks as each placement
	// lands, so items in the same batch see each other's usage — a batch
	// cannot oversubscribe a node.
	var placed []grant
	for i, item := range reqs {
		// Idempotency is a single-/alloc contract: replaying "the batch
		// minus the items that succeeded last time" has no sound
		// meaning, so batches refuse keyed items outright.
		g, err := grant{}, errKeyedBatchItem
		if item.IdempotencyKey == "" {
			g, err = s.place(ctx, tn, item, false)
		}
		if err != nil {
			fail(i, err)
			continue
		}
		g.idx = i
		placed = append(placed, g)
	}
	if len(placed) > 0 {
		if err := s.commit(tn, placed); err != nil {
			for _, g := range placed {
				fail(g.idx, err)
			}
			placed = nil
		}
	}
	for i := range placed {
		resp.Results[placed[i].idx].Alloc = &placed[i].resp
	}
	resp.Succeeded = len(placed)
	resp.Failed = len(reqs) - len(placed)
	return resp, nil
}
