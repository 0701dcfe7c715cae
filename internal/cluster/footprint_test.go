package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"hetmem/internal/server"
)

// TestRouterLeaseFootprint pins what the router holds per routed lease:
// the rlease record at its size with a saturating TTL, one shared copy
// of each member placement, and the router's own live heap per lease
// over a standing population placed by batch through its HTTP surface.
// The router's share is the heap its book frees: the members keep
// their leases.
func TestRouterLeaseFootprint(t *testing.T) {
	if got := unsafe.Sizeof(rlease{}); got > 96 {
		t.Errorf("rlease is %d bytes, want <= 96", got)
	}
	if got := ttlMillisOf(60 * 24 * 3600); got != math.MaxUint32 {
		t.Errorf("a 60-day TTL narrows to %d ms, want it saturated at %d", got, uint32(math.MaxUint32))
	}
	sim := startTestSim(t, SimOptions{})
	ctx := context.Background()
	cl := server.NewClient(sim.Base, server.WithRetryPolicy(server.NoRetry), server.WithoutHeartbeat())
	defer cl.Close()
	r := sim.Router

	// Two single allocs the same member places alike share its copy.
	byPlacement := map[string]uint64{}
	for i := 0; ; i++ {
		a, err := cl.Alloc(ctx, server.AllocRequest{Name: fmt.Sprintf("single-%d", i), Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"})
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := byPlacement[a.Placement]; ok {
			r.mu.Lock()
			x, y := r.leases[prev], r.leases[a.Lease]
			r.mu.Unlock()
			if x.placement != y.placement || x.attr != y.attr || x.initiator != y.initiator {
				t.Errorf("leases %d and %d at %s keep their own placement, attribute or initiator strings", prev, a.Lease, a.Placement)
			}
			break
		}
		byPlacement[a.Placement] = a.Lease
	}

	made := 0
	populate := func(n int) {
		t.Helper()
		reqs := make([]server.AllocRequest, 0, server.MaxBatchAllocs)
		for end := made + n; made < end; {
			reqs = reqs[:0]
			for len(reqs) < cap(reqs) && made < end {
				reqs = append(reqs, server.AllocRequest{
					Name: fmt.Sprintf("routed-%d", made), Size: 1 << 20,
					Attr: "Bandwidth", Initiator: "0-19",
				})
				made++
			}
			resp, err := cl.AllocBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Failed > 0 {
				t.Fatalf("%d of %d allocations refused", resp.Failed, len(reqs))
			}
		}
	}
	const leases = 4000
	populate(leases)
	count := r.LeaseCount()
	with := liveHeap()
	r.mu.Lock()
	r.leases = make(map[uint64]*rlease)
	r.mu.Unlock()
	without := liveHeap()
	per := float64(with-without) / float64(count)
	t.Logf("router live heap: %.0f B per routed lease over %d leases", per, count)
	if per > 176 {
		t.Errorf("the router holds %.0f B of heap per routed lease, want <= 176", per)
	}
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
