package cluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"hetmem/internal/server"
)

// Anti-entropy scrubber. Partitions, crashes, and wiped restarts can
// leave the router's journaled lease book and a member's live lease
// table disagreeing in exactly three ways, and each has one safe
// repair:
//
//   - Orphan: the member holds a lease the router's book does not map.
//     Either the router crashed between a member grant and its journal
//     append, or the member copy is a free that could not land. The
//     member copy is unreachable by any client, so the repair is to
//     free it — but only after the same (slot, member lease) pair has
//     been sighted across TWO consecutive cycles on the SAME member
//     instance, and the book still has no entry for it at the moment
//     of the free. One-cycle sightings are routinely in-flight allocs
//     (members grant before the router commits), never freed.
//
//   - Lost: the book maps a lease to a (slot, member lease) pair the
//     member no longer holds — the member restarted with a wiped
//     journal, or its reaper fired during a partition. The repair is a
//     re-placement through the standard evacuation path (deterministic
//     idempotency key, journal-then-swing commit), with the source
//     member allowed as a target since it is alive. Repairs spend a
//     per-cycle byte budget so a mass-loss event converges over a few
//     cycles instead of starving live traffic.
//
//   - Drift: the per-member byte totals disagree even though the lease
//     sets match. Nothing can be repaired mechanically — the sizes
//     themselves diverged — so the scrubber raises an alarm counter
//     for operators and moves on.
//
// The safety argument for "lost" relies on ordering: the router book
// is snapshotted BEFORE the members are listed, so any alloc that
// commits after the snapshot is invisible to the diff, and any alloc
// committed before it was necessarily granted by the member earlier
// still — the member listing cannot miss it. Concurrent frees are
// caught by commitEvacuation's re-check under the lease lock.

// orphanKey identifies one member-held lease by its placement pair.
type orphanKey struct {
	slot        int
	memberLease uint64
}

// ScrubReport summarizes one anti-entropy cycle.
type ScrubReport struct {
	Cycle           uint64
	MembersScanned  int
	MembersSkipped  int
	OrphansFreed    int
	OrphanSuspects  int
	LostRepaired    int
	LostFailed      int
	DriftAlarms     int
	BytesRepaired   uint64
	BudgetExhausted bool
}

// Clean reports whether the cycle found the books fully converged:
// nothing repaired, nothing suspected, nothing alarmed.
func (s ScrubReport) Clean() bool {
	return s.OrphansFreed == 0 && s.OrphanSuspects == 0 &&
		s.LostRepaired == 0 && s.LostFailed == 0 && s.DriftAlarms == 0
}

func (r *Router) scrubLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.C:
			r.ScrubOnce(context.Background())
		}
	}
}

// memberScan is one member's lease table as listed during a cycle.
type memberScan struct {
	m          *member
	instanceID string
	resp       server.LeasesResponse
	byLease    map[uint64]server.LeaseInfo
}

// ScrubOnce runs one full anti-entropy cycle and returns its report.
// Exported so tests drive cycles without a ticker;
// cycles are serialized, a concurrent call waits its turn.
func (r *Router) ScrubOnce(ctx context.Context) (ScrubReport, error) {
	r.scrubMu.Lock()
	defer r.scrubMu.Unlock()
	rep := ScrubReport{Cycle: r.scrubCycles.Add(1)}

	// 1. Snapshot the router book first (see the ordering argument
	// above): the live placement pairs, and per-slot copies of every
	// lease for the lost diff.
	book := make(map[orphanKey]struct{})
	bySlot := make(map[int][]rlease)
	slotBytes := make(map[int]uint64)
	r.mu.Lock()
	for _, rl := range r.leases {
		book[orphanKey{rl.slot, rl.memberLease}] = struct{}{}
		bySlot[rl.slot] = append(bySlot[rl.slot], *rl)
		slotBytes[rl.slot] += rl.size
	}
	r.mu.Unlock()

	// 2. List every reachable member's lease table, hedged so one slow
	// link does not stall the cycle. Offline members are skipped — the
	// evacuation path owns them.
	scans := make([]*memberScan, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		state, instanceID, _ := m.snapshotState()
		if state == memberOffline {
			rep.MembersSkipped++
			continue
		}
		wg.Add(1)
		go func(i int, m *member, instanceID string) {
			defer wg.Done()
			resp, err := hedged(ctx, r.cfg.HedgeDelay, func(ctx context.Context) (server.LeasesResponse, error) {
				lctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
				defer cancel()
				return m.cl.Leases(lctx, true)
			})
			if err != nil {
				return // counted as skipped below
			}
			sc := &memberScan{m: m, instanceID: instanceID, resp: resp,
				byLease: make(map[uint64]server.LeaseInfo, len(resp.Leases))}
			for _, li := range resp.Leases {
				sc.byLease[li.Lease] = li
			}
			scans[i] = sc
		}(i, m, instanceID)
	}
	wg.Wait()

	suspects := make(map[orphanKey]string) // carried into the next cycle
	var confirm []orphanKey                // second sighting: free if still unmapped
	var lost []rlease

	for i, m := range r.members {
		if scans[i] == nil {
			if state, _, _ := m.snapshotState(); state != memberOffline {
				rep.MembersSkipped++
			}
			continue
		}
		sc := scans[i]
		rep.MembersScanned++

		// Orphans: member-held, book-unmapped.
		for leaseID := range sc.byLease {
			key := orphanKey{m.slot, leaseID}
			if _, mapped := book[key]; mapped {
				continue
			}
			if prevInstance, seen := r.orphanSuspects[key]; seen && prevInstance == sc.instanceID {
				confirm = append(confirm, key)
			} else {
				suspects[key] = sc.instanceID
			}
		}

		// Lost: book-mapped, member-missing.
		lostBefore := len(lost)
		for _, snap := range bySlot[m.slot] {
			if _, held := sc.byLease[snap.memberLease]; !held {
				lost = append(lost, snap)
			}
		}

		// Drift: byte totals disagree with the lease sets matching.
		if len(lost) == lostBefore && sc.resp.Bytes != slotBytes[m.slot] {
			if allMapped(sc.byLease, book, m.slot) {
				rep.DriftAlarms++
				r.scrubDrift.Add(1)
			}
		}
	}
	r.orphanSuspects = suspects
	rep.OrphanSuspects = len(suspects)

	// 3. Free confirmed orphans — after one final book re-check under
	// the lease lock, so an alloc that committed mid-cycle survives.
	if len(confirm) > 0 {
		live := make(map[orphanKey]struct{})
		r.mu.Lock()
		for _, rl := range r.leases {
			live[orphanKey{rl.slot, rl.memberLease}] = struct{}{}
		}
		r.mu.Unlock()
		for _, key := range confirm {
			if _, mapped := live[key]; mapped {
				continue
			}
			m := r.members[key.slot]
			fctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
			err := m.cl.Free(fctx, key.memberLease)
			cancel()
			if err != nil && !errors.Is(err, server.ErrLeaseExpired) {
				r.scrubFailures.Add(1)
				continue
			}
			rep.OrphansFreed++
			r.scrubOrphans.Add(1)
		}
	}

	// 4. Re-place lost leases under the cycle budget. The evacuation
	// path re-checks the live entry at commit, so a lease freed while
	// we worked is not resurrected.
	for i := range lost {
		if ctx.Err() != nil {
			break
		}
		snap := lost[i]
		if rep.BytesRepaired+snap.size > r.cfg.ScrubBudgetBytes {
			rep.BudgetExhausted = true
			rep.LostFailed++ // retried next cycle
			continue
		}
		if !r.stillMapped(snap) {
			continue // freed (or already repaired) since the snapshot
		}
		if err := r.evacuateLease(ctx, &snap, true, false); err != nil {
			rep.LostFailed++
			r.scrubFailures.Add(1)
			continue
		}
		rep.LostRepaired++
		rep.BytesRepaired += snap.size
		r.scrubLost.Add(1)
	}
	return rep, ctx.Err()
}

// stillMapped reports whether the routed lease still maps to the
// exact placement pair the scrub snapshot saw.
func (r *Router) stillMapped(snap rlease) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.leases[snap.id]
	return ok && cur.slot == snap.slot && cur.memberLease == snap.memberLease
}

// allMapped reports whether every member-held lease is in the book —
// the precondition for classifying a byte mismatch as size drift
// rather than a set difference.
func allMapped(byLease map[uint64]server.LeaseInfo, book map[orphanKey]struct{}, slot int) bool {
	for leaseID := range byLease {
		if _, ok := book[orphanKey{slot, leaseID}]; !ok {
			return false
		}
	}
	return true
}

// hedged runs call, and if it has not returned within delay, fires a
// second identical attempt; the first result wins and the loser's
// context is cancelled. delay <= 0 disables hedging. Only used for
// idempotent reads.
func hedged[T any](ctx context.Context, delay time.Duration, call func(context.Context) (T, error)) (T, error) {
	if delay <= 0 {
		return call(ctx)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 2)
	launch := func() {
		go func() {
			v, err := call(hctx)
			ch <- outcome{v, err}
		}()
	}
	launch()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	pending := 1
	fired := false
	var lastErr error
	for {
		select {
		case out := <-ch:
			if out.err == nil {
				return out.v, nil
			}
			lastErr = out.err
			pending--
			if pending == 0 {
				// Every launched attempt failed; don't wait out the
				// hedge timer for a call that already lost.
				var zero T
				return zero, lastErr
			}
		case <-timer.C:
			if !fired {
				fired = true
				pending++
				launch()
			}
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}
