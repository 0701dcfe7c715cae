package server

// The online tiering advisor's server half: the sample→classify→migrate
// loop over the live lease table, and the /v1/advisor observation and
// control surface. The policy (classification, hysteresis, cooldown,
// decision log) lives in internal/advisor; this file owns the
// mechanism — borrowing leases, reading telemetry snapshots, checking
// placements against ranked candidates, and driving the journaled
// migrate path under the shared rebalance budget.

import (
	"context"
	"fmt"
	"time"

	"hetmem/internal/advisor"
	"hetmem/internal/journal"
	"hetmem/internal/memattr"
)

// Advisor returns the daemon's tiering-advisor tracker (nil when the
// advisor is disabled). Tests use it to reach the decision log.
func (s *Server) Advisor() *advisor.Tracker { return s.advisor }

// advisorLoop runs one sample cycle per AdvisorInterval until Close.
func (s *Server) advisorLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.AdvisorInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.AdviseOnce()
		}
	}
}

// AdviseOnce runs one advisor cycle — sample, classify, migrate — and
// returns how many leases it moved. Exported so tests and the bench
// harness can drive cycles deterministically between workload phases
// instead of waiting out the interval. A paused (or disabled) advisor
// does nothing.
func (s *Server) AdviseOnce() int {
	moved, _ := s.AdviseCycle()
	return moved
}

// AdviseCycle is AdviseOnce plus the summed simulated copy cost of the
// moves it made, so a workload harness can charge the migrations to
// its simulated clock.
func (s *Server) AdviseCycle() (int, float64) {
	if s.advisor == nil || s.advisor.Paused() {
		return 0, 0
	}
	s.adviseMu.Lock()
	defer s.adviseMu.Unlock()

	all := s.leases.borrowAll()
	defer releaseAll(all)
	samples := make([]advisor.Sample, 0, len(all))
	byID := make(map[uint64]*lease, len(all))
	for _, l := range all {
		if l.buf == nil || l.buf.Freed() {
			continue
		}
		byID[l.id] = l
		samples = append(samples, advisor.Sample{
			Lease:     l.id,
			Name:      l.buf.Name,
			Placement: l.buf.NodeNames(),
			Size:      l.buf.Size,
			Attr:      s.sys.Registry.Name(attrOf(l)),
			Telemetry: l.buf.TelemetrySnapshot(),
		})
	}
	recs := s.advisor.Classify(samples)
	s.metrics.AdvisorCycles.Add(1)

	budget := s.cfg.RebalanceBudget
	var spent uint64
	var costSum float64
	moved := 0
	for _, r := range recs {
		l := byID[r.Lease]
		if l == nil {
			continue
		}
		misplaced, feasible := s.misplacedFor(l, r.AttrName)
		if !misplaced {
			s.advisor.Aligned(r.Lease)
			continue
		}
		if !feasible {
			// The better tier has no room (yet): MigrateToBestSpec would
			// fall back down the ranking and "succeed" without moving a
			// byte. Skip the lease this cycle — its streak is frozen, and
			// a later free opens the door.
			continue
		}
		switch s.advisor.Consider(r) {
		case advisor.Hold, advisor.Cooldown:
			s.metrics.AdvisorHeldHysteresis.Add(1)
			continue
		case advisor.Move:
		}
		if budget > 0 && spent >= budget {
			s.advisor.RecordHeldBudget(r)
			s.metrics.AdvisorHeldBudget.Add(1)
			continue
		}
		from := l.buf.NodeNames()
		s.ckmu.RLock()
		l.jmu.Lock()
		var err error
		var cost float64
		if l.buf.Freed() {
			err = errNoSuchLease
		} else {
			// misplacedFor found the lease misplaced, so the name is known.
			attr, _ := s.sys.Registry.ByName(r.AttrName)
			cost, _, err = s.migrateLocked(l, attr, l.ini, true, journal.OriginAdvisor)
		}
		l.jmu.Unlock()
		s.ckmu.RUnlock()
		if err != nil {
			// The machine would not take the move (full target, offline
			// node, racing free). The streak survives, so the advisor
			// retries next cycle once the obstacle clears.
			continue
		}
		s.advisor.RecordMove(r, from, l.buf.NodeNames())
		if r.AttrName == "Capacity" {
			s.metrics.AdvisorDemoted.Add(1)
		} else {
			s.metrics.AdvisorPromoted.Add(1)
		}
		s.metrics.AdvisorBytesMoved.Add(l.buf.Size)
		spent += l.buf.Size
		costSum += cost
		moved++
	}
	if moved > 0 {
		s.admitGate.broadcast()
	}
	return moved, costSum
}

// misplacedFor reports whether any of the lease's bytes sit on a node
// whose attribute value is strictly worse than the best-ranked
// target's — the advisor's trigger condition — and whether a move to
// a best-value node is feasible right now (one of them has room for
// the whole lease). Comparing values, not node identity, keeps the
// advisor from shuffling a lease between equally good nodes (two
// symmetric DRAM sockets) just because the ranking's tie-break
// prefers one of them. Unknown attributes or unrankable candidates
// read as well-placed: no opinion, no move.
func (s *Server) misplacedFor(l *lease, attrName string) (misplaced, feasible bool) {
	id, ok := s.sys.Registry.ByName(attrName)
	if !ok {
		return false, false
	}
	ini, err := l.ini.cpus()
	if err != nil {
		return false, false
	}
	cands, _, _, err := s.sys.Allocator.Candidates(id, ini, true)
	if err != nil || len(cands) == 0 {
		return false, false
	}
	best := cands[0].Value
	valueOf := func(os int) (uint64, bool) {
		for _, c := range cands {
			if c.Target.OSIndex == os {
				return c.Value, true
			}
		}
		return 0, false
	}
	for _, seg := range l.buf.SegmentsSnapshot() {
		v, ok := valueOf(seg.Node.OSIndex())
		if !ok || v != best {
			misplaced = true
			break
		}
	}
	if !misplaced {
		return false, false
	}
	for _, c := range cands {
		if c.Value != best {
			break // ranked, so no later candidate has the best value
		}
		if n := s.sys.Machine.NodeByOS(c.Target.OSIndex); n != nil && n.Available() >= l.buf.Size {
			return true, true
		}
	}
	return true, false
}

// attrOf reads a lease's attribute under its journal-order lock: the
// advisor reclassifies attributes concurrently with other readers.
func attrOf(l *lease) memattr.ID {
	l.jmu.Lock()
	a := l.attr
	l.jmu.Unlock()
	return memattr.ID(a)
}

// adviceFor returns the advisor's would-be placement attribute for an
// attribute-less allocation: the live classification of the buffer
// name if one exists, else the conservative capacity tier.
func (s *Server) adviceFor(name string) string {
	if s.advisor == nil {
		return ""
	}
	if a := s.advisor.Advice(name); a != "" {
		return a
	}
	return "Capacity"
}

// errNoAdvisor answers the advisor routes on a daemon running without
// one.
var errNoAdvisor = fmt.Errorf("%w: advisor not running on this daemon", ErrAdvisorPaused)

// AdvisorSnapshot is the AdvisorController entry behind GET
// /v1/advisor: configuration, counters and the decision log.
func (s *Server) AdvisorSnapshot(ctx context.Context) (advisor.Snapshot, error) {
	if s.advisor == nil {
		return advisor.Snapshot{}, errNoAdvisor
	}
	return s.advisor.Snapshot(), nil
}

// SetAdvisorPaused is the AdvisorController entry behind POST
// /v1/advisor/pause and /resume; pausing a paused advisor is a
// conflict.
func (s *Server) SetAdvisorPaused(ctx context.Context, paused bool) error {
	switch {
	case s.advisor == nil:
		return errNoAdvisor
	case !paused:
		s.advisor.Resume()
	case !s.advisor.Pause():
		return fmt.Errorf("%w: already paused", ErrAdvisorPaused)
	}
	return nil
}

// LeaseDetail is the LeaseDetailer entry behind GET /v1/leases/{id}
// and the binary lease-detail op.
func (s *Server) LeaseDetail(ctx context.Context, id uint64) (LeaseDetailResponse, error) {
	l, ok := s.leases.get(id)
	if !ok {
		return LeaseDetailResponse{}, fmt.Errorf("%w: %d", errNoSuchLease, id)
	}
	resp := LeaseDetailResponse{
		Lease:      l.id,
		Name:       l.buf.Name,
		Size:       l.buf.Size,
		Attr:       s.sys.Registry.Name(attrOf(l)),
		Placement:  l.buf.NodeNames(),
		Tenant:     l.tenant,
		Initiator:  l.ini.list,
		TTLSeconds: l.getTTL().Seconds(),
		Telemetry:  l.buf.TelemetrySnapshot(),
	}
	if s.advisor != nil {
		resp.Class = s.advisor.Classification(l.id)
	}
	l.release()
	return resp, nil
}
