package cluster

import (
	"context"
	"errors"
	"fmt"

	"hetmem/internal/journal"
	"hetmem/internal/server"
)

// Cross-daemon migration. When a member goes offline (or comes back
// as a fresh instance that no longer holds its leases), the router
// re-homes every lease it owned: alloc-on-target with a deterministic
// idempotency key, journal the move, then free-on-source. The
// ordering makes the handoff crash-safe at every step:
//
//   - Router crashes after the target alloc but before the journal
//     append: the restarted router still maps the lease to the dead
//     source and evacuates again. The retry carries the SAME
//     idempotency key — derived from the routed lease and the exact
//     source (slot, member lease) pair it replaces — so the target
//     daemon replays the first grant instead of allocating a second
//     buffer.
//   - Router crashes after the journal append: replay lands the lease
//     on the target; the source copy is orphaned, which the queued
//     free (or the member's TTL reaper) reclaims.
//   - Free-on-source fails because the source is still down: the free
//     queues on the member and drains when it returns; if it never
//     returns, there is nothing to leak.

// evacKey derives the deterministic idempotency key for re-homing one
// lease off one source placement. Including the source pair means a
// SECOND evacuation of the same routed lease (its new home died too)
// gets a fresh key, as it must — the previous grant is gone with the
// previous target.
func evacKey(rl *heldLease) string {
	return fmt.Sprintf("evac-%d-%d-%d", rl.id, rl.slot, rl.memberLease)
}

// evacuateMember re-homes every lease currently mapped to m onto the
// surviving members. Leases that cannot be moved yet (no survivor has
// room, or no survivor at all) stay mapped to the dead member —
// requests touching them fail with the retryable member_unavailable —
// and the next poll tick retries. tryMu keeps overlapping poll ticks
// from double-running a slow evacuation.
//
// freeSource controls whether the source copy gets a queued free. For
// an OFFLINE member the answer is yes: the same instance may come
// back still holding the lease, and its IDs stay valid. For a
// RESTARTED member the answer is NO — a reboot that wiped its journal
// reissues lease IDs from scratch, so a queued free of an old ID
// could land on a fresh, unrelated lease of the new instance. The
// anti-entropy scrubber reclaims whatever copies an intact-journal
// restart re-offered, as orphans, with the book re-checked first.
func (r *Router) evacuateMember(ctx context.Context, m *member, freeSource bool) {
	if !m.evacMu.TryLock() {
		return
	}
	defer m.evacMu.Unlock()

	r.mu.Lock()
	var stranded []heldLease // copies: the fields evacuateLease needs
	for id, rl := range r.leases {
		if rl.slot == m.slot {
			stranded = append(stranded, heldLease{id, *rl})
		}
	}
	r.mu.Unlock()
	if len(stranded) == 0 {
		return
	}
	r.evacuations.Add(1)
	for i := range stranded {
		if ctx.Err() != nil {
			return
		}
		if err := r.evacuateLease(ctx, &stranded[i], false, freeSource); err != nil {
			r.migrationsFailed.Add(1)
		} else {
			r.migrations.Add(1)
		}
	}
}

// evacuateLease moves one stranded lease to the best surviving
// member. snap is a copy of the lease taken when the evacuation
// started; the commit re-checks the live entry so a concurrent free
// (or an earlier evacuation) wins cleanly. allowSameSlot admits the
// source member as a target — the scrubber's lost-lease repair uses
// it, because there the member is alive and simply lost the lease
// (restart with a wiped journal), so re-placing on the same member is
// both legal and often the rendezvous-preferred answer.
func (r *Router) evacuateLease(ctx context.Context, snap *heldLease, allowSameSlot, freeSource bool) error {
	elig := r.eligible()
	candidates := elig[:0:0]
	for _, m := range elig {
		if allowSameSlot || m.slot != snap.slot {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) == 0 {
		return fmt.Errorf("%w: no survivor to evacuate lease %d to", server.ErrMemberUnavailable, snap.id)
	}
	names := make([]string, len(candidates))
	byName := make(map[string]*member, len(candidates))
	for i, m := range candidates {
		names[i] = m.name
		byName[m.name] = m
	}

	key := snap.key()
	if key == "" {
		key = snap.name
	}
	req := server.AllocRequest{
		Name:           snap.name,
		Size:           snap.size,
		Attr:           *snap.attr,
		Initiator:      *snap.initiator,
		IdempotencyKey: evacKey(snap),
		TTLSeconds:     float64(snap.ttlMillis) / 1000,
	}

	// Walk the rendezvous ranking: the natural next-best owner first,
	// then the rest, so a full member does not strand the lease.
	// The re-placement runs as the lease's owning tenant — the target
	// member must book the bytes against the same quotas and class the
	// original grant did, or an evacuation would silently launder one
	// tenant's usage into another's.
	ctx = server.ContextWithTenant(ctx, snap.tenant)
	var lastErr error
	for _, name := range rank(key, names) {
		target := byName[name]
		actx, cancel := context.WithTimeout(ctx, r.cfg.EvacTimeout)
		mresp, err := target.cl.Alloc(actx, req)
		cancel()
		if err != nil {
			lastErr = err
			if errors.Is(err, server.ErrCapacityExhausted) {
				continue // next candidate may have room
			}
			continue
		}
		return r.commitEvacuation(ctx, snap, target, mresp, freeSource)
	}
	return fmt.Errorf("cluster: evacuate lease %d: %w", snap.id, lastErr)
}

// commitEvacuation journals the move and swings the live mapping, if
// the lease still maps to the source placement the evacuation
// started from. If not — freed, or already re-homed — the target copy
// just created is released (safe: the idempotency key that guarded
// creation is derived from a source pair that no longer exists, so
// no concurrent evacuation can be sharing this grant).
func (r *Router) commitEvacuation(ctx context.Context, snap *heldLease, target *member, mresp server.AllocResponse, freeSource bool) error {
	r.mu.Lock()
	cur, ok := r.mapped(snap.id, snap.slot, snap.memberLease)
	if !ok {
		_, alreadyThere := r.mapped(snap.id, target.slot, mresp.Lease)
		r.mu.Unlock()
		if !alreadyThere {
			if err := target.cl.Free(context.WithoutCancel(ctx), mresp.Lease); err != nil && !errors.Is(err, server.ErrLeaseExpired) {
				target.queueFree(mresp.Lease)
			}
		}
		return nil
	}
	rec := journal.Record{
		Op:       journal.OpMigrate,
		Lease:    snap.id,
		Segments: []journal.Segment{{NodeOS: int(target.slot), Bytes: mresp.Lease}},
	}
	if err := r.appendLocked(rec); err != nil {
		r.mu.Unlock()
		if ferr := target.cl.Free(context.WithoutCancel(ctx), mresp.Lease); ferr != nil {
			target.queueFree(mresp.Lease)
		}
		return err
	}
	cur.slot = target.slot
	cur.memberLease = mresp.Lease
	cur.placement = target.places.share(mresp.Placement)
	r.mu.Unlock()

	// Free-on-source, last: if the source daemon is unreachable (the
	// usual case — it just died) the free queues and drains when it
	// returns; its TTL reaper is the backstop. Skipped when the source
	// is a restarted instance (lease IDs may be reissued — see
	// evacuateMember) or a lost-lease repair (the source never holds
	// the copy); the scrubber and the reaper own those leftovers.
	if freeSource {
		source := r.members[snap.slot]
		source.queueFree(snap.memberLease)
	}
	return nil
}

// drainPendingFrees releases the member-local leases the router freed
// or re-homed while the member was unreachable. lease_expired during
// the drain means the member (its reaper, or a restart that lost the
// lease) already took care of it.
func (r *Router) drainPendingFrees(ctx context.Context, m *member) {
	for _, memberLease := range m.takePendingFrees() {
		fctx, cancel := context.WithTimeout(ctx, r.cfg.EvacTimeout/2)
		err := m.cl.Free(fctx, memberLease)
		cancel()
		if err != nil && !errors.Is(err, server.ErrLeaseExpired) {
			m.queueFree(memberLease) // still unreachable; retry next tick
		}
	}
}
