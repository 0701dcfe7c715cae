package server

// Lease lifecycle and durable-state maintenance: the background
// goroutines NewWithConfig starts (and Close stops) plus their
// manually-invokable cores, which tests drive directly.
//
//   - The orphan reaper reclaims leases whose clients stopped
//     heartbeating: an expired lease is taken from the table, its
//     bytes freed, and the free journaled exactly like a client free —
//     so a restart never resurrects a reaped lease.
//   - The checkpointer snapshots the lease table and compacts the WAL,
//     on a timer and whenever the WAL outgrows CheckpointMaxWAL.
//   - The rebalancer re-admits a healed node: leases evacuated while
//     it was offline migrate back in byte-budgeted, paced batches.

import (
	"time"

	"hetmem/internal/journal"
	"hetmem/internal/memattr"
)

// startBackground launches the goroutines the config asks for.
func (s *Server) startBackground() {
	if s.cfg.ReapInterval > 0 {
		s.wg.Add(1)
		go s.reapLoop()
	}
	if s.store != nil && (s.cfg.CheckpointEvery > 0 || s.cfg.CheckpointMaxWAL > 0) {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	if s.advisor != nil {
		s.wg.Add(1)
		go s.advisorLoop()
	}
}

func (s *Server) reapLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.ReapNow()
		}
	}
}

// ReapNow scans the lease table once and reclaims every expired lease,
// returning how many it reaped. Exported so tests can force a scan
// without waiting out the ReapInterval.
func (s *Server) ReapNow() int {
	now := time.Now()
	reaped := 0
	all := s.leases.borrowAll()
	defer releaseAll(all)
	for _, l := range all {
		if !l.expiredAt(now) {
			continue
		}
		// The checkpoint lock spans the take, the free and its journal
		// append, as in Free: a snapshot taken between them would miss
		// the lease while its free landed in the fresh WAL. jmu spans
		// them too, and the put-back below.
		s.ckmu.RLock()
		l.jmu.Lock()
		if !s.leases.take(l) {
			l.jmu.Unlock()
			s.ckmu.RUnlock()
			continue // freed concurrently
		}
		// A renewal may have slipped in between the scan and the take;
		// put a refreshed lease back instead of reaping it under the
		// client's feet.
		if !l.expiredAt(time.Now()) {
			l.acquire() // the table's reference again
			s.leases.restore(l)
			l.jmu.Unlock()
			s.ckmu.RUnlock()
			continue
		}
		segs := l.buf.SegmentsSnapshot()
		s.sys.Machine.Free(l.buf) // a mapped lease's buffer is live
		// Journaled exactly like a client free. If the append fails,
		// the restart replays the alloc, regrants one TTL of grace, and
		// reaps again — self-healing, so no rollback.
		s.appendJournal(journal.Record{Op: journal.OpFree, Lease: l.id})
		l.jmu.Unlock()
		s.ckmu.RUnlock()
		if key := l.key(); key != "" {
			s.idem.forget(key)
		}
		// A reap is an eviction from the tenant's point of view: give
		// the bytes back, count it, and wake queued admissions.
		tn := s.tenants.Get(l.tenant)
		refundSegs(tn, segs)
		tn.Evictions.Add(1)
		reaped++
		s.metrics.LeasesReaped.Add(1)
	}
	if reaped > 0 {
		s.admitGate.broadcast()
	}
	return reaped
}

func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	every := s.cfg.CheckpointEvery
	if every <= 0 {
		// Size-triggered only: the ticker is just a liveness backstop.
		every = time.Minute
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		case <-s.ckptKick:
		}
		s.CheckpointNow()
	}
}

// CheckpointNow snapshots the lease table and compacts the WAL. It
// holds the checkpoint lock's write side, freezing every mutator for
// the capture+swap, so the snapshot and the compacted WAL describe the
// same instant. A no-op without a journal.
func (s *Server) CheckpointNow() error {
	if s.store == nil {
		return nil
	}
	s.ckmu.Lock()
	defer s.ckmu.Unlock()
	err := s.store.Checkpoint(s.liveRecords)
	if err != nil {
		s.metrics.CheckpointFailed.Add(1)
		return err
	}
	s.metrics.CheckpointTotal.Add(1)
	return nil
}

// liveRecords captures a checkpoint: one alloc record per live lease,
// and the next lease ID. The caller holds ckmu's write side.
func (s *Server) liveRecords() ([]journal.Record, uint64, error) {
	leases := s.leases.borrowAll()
	defer releaseAll(leases)
	live := make([]journal.Record, len(leases))
	for i, l := range leases {
		live[i] = s.allocRecord(l)
	}
	return live, s.leases.next.Load(), nil
}

// maybeRebalance starts one paced rebalance toward a node that just
// returned to healthy, unless one is already running for it.
func (s *Server) maybeRebalance(nodeOS int) {
	if s.cfg.RebalanceInterval <= 0 {
		return
	}
	s.rebalMu.Lock()
	if s.rebalancing[nodeOS] {
		s.rebalMu.Unlock()
		return
	}
	s.rebalancing[nodeOS] = true
	s.rebalMu.Unlock()
	s.wg.Add(1)
	go s.rebalance(nodeOS)
}

// rebalance migrates leases whose best-ranked target is the healed
// node (and which have no bytes on it) back onto it, at most
// RebalanceBudget bytes per batch with RebalanceInterval pauses in
// between — re-admission must not stampede a node that just recovered.
// It bails out if the node leaves the healthy state mid-walk.
func (s *Server) rebalance(nodeOS int) {
	defer s.wg.Done()
	defer func() {
		s.rebalMu.Lock()
		delete(s.rebalancing, nodeOS)
		s.rebalMu.Unlock()
	}()
	var batch uint64
	all := s.leases.borrowAll()
	defer releaseAll(all)
	for _, l := range all {
		select {
		case <-s.stop:
			return
		default:
		}
		if s.health.state(nodeOS) != Healthy {
			return // relapsed; stop sending load at it
		}
		if !s.wantsNode(l, nodeOS) {
			continue
		}
		s.ckmu.RLock()
		l.jmu.Lock()
		_, _, err := s.migrateLocked(l, memattr.ID(l.attr), l.ini, false, "")
		l.jmu.Unlock()
		s.ckmu.RUnlock()
		if err != nil {
			s.metrics.RebalanceFailed.Add(1)
			continue
		}
		s.metrics.RebalanceTotal.Add(1)
		s.metrics.RebalanceBytes.Add(l.buf.Size)
		batch += l.buf.Size
		if s.cfg.RebalanceBudget > 0 && batch >= s.cfg.RebalanceBudget {
			batch = 0
			select {
			case <-s.stop:
				return
			case <-time.After(s.cfg.RebalanceInterval):
			}
		}
	}
}

// wantsNode reports whether the lease's best-ranked placement is the
// given node while the lease holds no bytes there — the signature of a
// lease that was evacuated (or allocated elsewhere) while the node was
// down.
func (s *Server) wantsNode(l *lease, nodeOS int) bool {
	for _, seg := range l.buf.SegmentsSnapshot() {
		if seg.Node.OSIndex() == nodeOS {
			return false
		}
	}
	id := attrOf(l)
	ini, err := l.ini.cpus()
	if err != nil {
		return false
	}
	cands, _, _, err := s.sys.Allocator.Candidates(id, ini, true)
	if err != nil || len(cands) == 0 {
		return false
	}
	return cands[0].Target.OSIndex == nodeOS
}
