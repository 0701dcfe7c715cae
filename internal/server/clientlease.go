package server

// Client-side lease lifecycle: the heartbeater that renews TTL leases
// in the background so a live client never loses one to the orphan
// reaper.

import (
	"context"
	"errors"
	mrand "math/rand"
	"sync"
	"time"
)

// heartbeater renews a client's TTL leases in the background. The
// goroutine starts lazily with the first tracked lease and parks when
// stopAll runs; renewals are jittered around TTL/3 so a fleet of
// clients does not beat on the daemon in phase.
type heartbeater struct {
	c *Client

	mu      sync.Mutex
	leases  map[uint64]*hbLease
	started bool
	stop    chan struct{}
	wake    chan struct{}
	done    chan struct{}
}

type hbLease struct {
	ttl  time.Duration
	next time.Time
}

func newHeartbeater(c *Client) *heartbeater {
	return &heartbeater{
		c:      c,
		leases: make(map[uint64]*hbLease),
		stop:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
	}
}

// renewAt schedules the next heartbeat at roughly a third of the TTL
// from now (jittered ±20%), giving the client two more chances inside
// one TTL if a renewal is lost.
func renewAt(now time.Time, ttl time.Duration) time.Time {
	base := ttl / 3
	if base <= 0 {
		base = time.Millisecond
	}
	jitter := time.Duration(mrand.Int63n(int64(base)/2+1)) - base/4
	return now.Add(base + jitter)
}

// track starts renewing a lease with the given granted TTL.
func (h *heartbeater) track(lease uint64, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	h.mu.Lock()
	select {
	case <-h.stop:
		h.mu.Unlock()
		return // client closed; do not restart
	default:
	}
	h.leases[lease] = &hbLease{ttl: ttl, next: renewAt(time.Now(), ttl)}
	if !h.started {
		h.started = true
		h.done = make(chan struct{})
		go h.loop()
	}
	h.mu.Unlock()
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// untrack stops renewing a lease (freed, or the daemon no longer knows
// it).
func (h *heartbeater) untrack(lease uint64) {
	h.mu.Lock()
	delete(h.leases, lease)
	h.mu.Unlock()
}

// stopAll parks the heartbeat goroutine and forgets every lease.
func (h *heartbeater) stopAll() {
	h.mu.Lock()
	select {
	case <-h.stop:
		h.mu.Unlock()
		return
	default:
	}
	close(h.stop)
	done := h.done
	h.leases = make(map[uint64]*hbLease)
	h.mu.Unlock()
	if done != nil {
		<-done
	}
}

// nextDue returns the earliest scheduled renewal, or a far-future
// fallback when no lease is tracked.
func (h *heartbeater) nextDue() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	next := time.Now().Add(time.Hour)
	for _, l := range h.leases {
		if l.next.Before(next) {
			next = l.next
		}
	}
	return next
}

// due collects the leases whose renewal time has arrived.
func (h *heartbeater) due(now time.Time) []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []uint64
	for id, l := range h.leases {
		if !now.Before(l.next) {
			out = append(out, id)
		}
	}
	return out
}

func (h *heartbeater) loop() {
	defer close(h.done)
	for {
		wait := time.Until(h.nextDue())
		if wait < 0 {
			wait = 0
		}
		t := time.NewTimer(wait)
		select {
		case <-h.stop:
			t.Stop()
			return
		case <-h.wake:
			t.Stop()
			continue
		case <-t.C:
		}
		now := time.Now()
		for _, id := range h.due(now) {
			h.renewOne(id)
		}
	}
}

// renewOne heartbeats a single lease, rescheduling on success and
// dropping the lease when the daemon says it no longer exists.
func (h *heartbeater) renewOne(id uint64) {
	h.mu.Lock()
	l, ok := h.leases[id]
	if !ok {
		h.mu.Unlock()
		return
	}
	ttl := l.ttl
	h.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), ttl/2+time.Second)
	resp, err := h.c.Renew(ctx, id, 0)
	cancel()
	var apiErr *APIError
	switch {
	case err == nil:
		if resp.TTLSeconds > 0 {
			ttl = time.Duration(resp.TTLSeconds * float64(time.Second))
		}
		h.mu.Lock()
		if l, ok := h.leases[id]; ok {
			l.ttl = ttl
			l.next = renewAt(time.Now(), ttl)
		}
		h.mu.Unlock()
	case errors.As(err, &apiErr) && apiErr.StatusCode == 404:
		// The lease is gone (freed elsewhere, or already reaped);
		// renewing it forever would just spam the daemon.
		h.untrack(id)
	default:
		// Transport trouble or a retryable status that exhausted its
		// attempts: try again soon, well inside the TTL.
		h.mu.Lock()
		if l, ok := h.leases[id]; ok {
			l.next = time.Now().Add(ttl / 6)
		}
		h.mu.Unlock()
	}
}
