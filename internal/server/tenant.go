package server

// Tenant plumbing for the daemon: the X-Hetmem-Tenant request header,
// the context carrier both the handlers and the forwarding client use,
// and the class-aware admission path — best-effort sheds at the
// watermark, burstable waits in a bounded deadline-aware queue,
// guaranteed admits into reserved headroom — plus the per-kind quota
// charge/refund helpers that keep the tenant registry's books equal to
// the lease table.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hetmem/internal/memsim"
	"hetmem/internal/tenant"
	"hetmem/internal/topology"
)

// TenantHeader names the requesting tenant on every /v1 request. A
// missing header means the default tenant.
const TenantHeader = "X-Hetmem-Tenant"

type tenantCtxKey struct{}

// ContextWithTenant returns ctx carrying a tenant name. The server
// stamps inbound requests with it; the client (and therefore a
// forwarding router) stamps it back onto the outbound header.
func ContextWithTenant(ctx context.Context, name string) context.Context {
	if name == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, name)
}

// TenantFromContext returns the tenant name carried by ctx, or "".
func TenantFromContext(ctx context.Context) string {
	name, _ := ctx.Value(tenantCtxKey{}).(string)
	return name
}

// Tenants returns the daemon's tenant registry.
func (s *Server) Tenants() *tenant.Registry { return s.tenants }

// waitGate wakes every parked burstable admission when capacity is
// released: broadcast closes the current channel and installs a fresh
// one, so waiters re-check the watermark instead of sleeping through
// the free that would have admitted them.
type waitGate struct {
	mu sync.Mutex
	ch chan struct{}
}

func (g *waitGate) waitChan() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	return g.ch
}

func (g *waitGate) broadcast() {
	g.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mu.Unlock()
}

// watermarkFor is the shed threshold a class admits under: guaranteed
// tenants get GuaranteedHeadroom above the global watermark (capped at
// the full capacity), everyone else gets the watermark itself.
func (s *Server) watermarkFor(class tenant.Class) float64 {
	w := s.cfg.ShedWatermark
	if class == tenant.Guaranteed {
		w += s.cfg.GuaranteedHeadroom
		if w > 1 {
			w = 1
		}
	}
	return w
}

// overWatermark reports (as an ErrOverloaded error) whether admitting
// size bytes would cross the given watermark fraction of the online
// capacity. Landing exactly on the watermark still admits.
func (s *Server) overWatermark(size uint64, w float64) error {
	used, total := s.pressure()
	if total == 0 || float64(used)+float64(size) > w*float64(total) {
		return fmt.Errorf("%w: %d of %d online bytes in use, watermark %.2f",
			ErrOverloaded, used, total, w)
	}
	return nil
}

// admitTenant is the admission path for one allocation:
//
//   - guaranteed: watermark + headroom, never queued — headroom is the
//     reserve that keeps a guaranteed tenant admitting while everyone
//     else sheds;
//   - burstable: on overload, park in the bounded admission queue until
//     a free clears the watermark, the queue timeout (or the request
//     deadline) expires, or the queue is full — when queue allows it;
//     otherwise shed like best-effort;
//   - best-effort: shed immediately at the watermark.
func (s *Server) admitTenant(ctx context.Context, t *tenant.Tenant, size uint64, queue bool) error {
	if s.cfg.ShedWatermark <= 0 {
		return nil
	}
	w := s.watermarkFor(t.Class)
	err := s.overWatermark(size, w)
	if err == nil {
		return nil
	}
	if queue && t.Class == tenant.Burstable && s.cfg.QueueDepth > 0 {
		return s.queueAdmit(ctx, t, size, w)
	}
	s.metrics.ShedTotal.Add(1)
	t.Sheds.Add(1)
	return err
}

// queueAdmit parks a burstable allocation behind the bounded admission
// queue. The wait is deadline-aware: it ends at the configured
// QueueTimeout or the request context's deadline, whichever is sooner.
// A full queue sheds immediately — bounded means bounded.
func (s *Server) queueAdmit(ctx context.Context, t *tenant.Tenant, size uint64, w float64) error {
	if int(s.queueWaiting.Add(1)) > s.cfg.QueueDepth {
		s.queueWaiting.Add(-1)
		s.metrics.ShedTotal.Add(1)
		t.Sheds.Add(1)
		return fmt.Errorf("%w: admission queue full (%d waiting)", ErrOverloaded, s.cfg.QueueDepth)
	}
	defer s.queueWaiting.Add(-1)
	t.QueueWaits.Add(1)
	wait := s.cfg.QueueTimeout
	deadline := time.Now().Add(wait)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		// Grab the gate channel before re-checking, so a broadcast
		// between the check and the select is never lost.
		ch := s.admitGate.waitChan()
		if err := s.overWatermark(size, w); err == nil {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			t.QueueTimeouts.Add(1)
			return fmt.Errorf("%w: tenant %q waited %v for headroom", ErrQueueTimedOut, t.Name, wait)
		case <-ctx.Done():
			t.QueueTimeouts.Add(1)
			return fmt.Errorf("%w: tenant %q: %v", ErrQueueTimedOut, t.Name, ctx.Err())
		}
	}
}

// avoidFor composes the health-avoid predicate with fair-share
// steering: a quota-limited tenant's placements demote nodes whose
// memory kind cannot fit the request inside the remaining quota, so
// the ranked-fallback order spends other tenants' preferred tiers only
// as a last resort. Unlimited tenants (the common case) keep the plain
// bound predicate — no per-request closure.
func (s *Server) avoidFor(t *tenant.Tenant, size uint64) func(*topology.Object) bool {
	if !t.Limited() {
		return s.avoidFn
	}
	return func(o *topology.Object) bool {
		if s.avoidFn(o) {
			return true
		}
		rem, limited := t.Remaining(memsim.KindOf(o))
		return limited && rem < size
	}
}

// chargeBuf charges the buffer's placed bytes, kind by kind, against
// the tenant's quotas. On a quota miss every charge made so far is
// refunded and the *QuotaError (quota_exceeded on the wire) reports
// the offending kind and limit.
func chargeBuf(t *tenant.Tenant, buf *memsim.Buffer) error {
	var one [1]memsim.Segment
	segs := buf.AppendSegments(one[:0])
	for i, seg := range segs {
		if err := t.Charge(seg.Node.Kind(), seg.Bytes); err != nil {
			for _, done := range segs[:i] {
				t.Refund(done.Node.Kind(), done.Bytes)
			}
			return err
		}
	}
	return nil
}

// forceChargeBuf charges without quota checks — replay, migration, and
// evacuation accounting, where the bytes already moved.
func forceChargeBuf(t *tenant.Tenant, buf *memsim.Buffer) {
	var one [1]memsim.Segment
	for _, seg := range buf.AppendSegments(one[:0]) {
		t.ForceCharge(seg.Node.Kind(), seg.Bytes)
	}
}

// refundSegs returns previously charged bytes, from a segment snapshot
// captured before the buffer was freed or re-placed.
func refundSegs(t *tenant.Tenant, segs []memsim.Segment) {
	for _, seg := range segs {
		t.Refund(seg.Node.Kind(), seg.Bytes)
	}
}
