package server

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hetmem/internal/core"
)

// TestLeaseSlotsMatchMap drives one shard of a lease table and a
// map[uint64]*lease model with the same seeded stream of put, get,
// take, borrowAll and count, and compares the two after every op. The
// stream is shaped to hit what open addressing gets wrong: dense ID
// runs, IDs far past the array's length, IDs that share a home slot,
// takes whose probe run wraps around the array's end, and enough
// growth and shrinkage to resize both ways, twice.
func TestLeaseSlotsMatchMap(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := sys.Machine.Nodes()
	buf, err := sys.Machine.Alloc("slots", 4096, nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	tbl := newLeaseTable(nodes)
	s := &tbl.shards[0] // every ID below is a multiple of leaseShards
	model := map[uint64]*lease{}
	var live []uint64 // the model's keys, for picking victims
	rng := rand.New(rand.NewSource(52))

	var cover struct{ dense, jump, shared, wrapTake, grow, shrink int }
	dense := uint64(1) // next ID of the dense run, in leaseShards units
	fresh := func(k uint64) bool { return k != 0 && model[k*leaseShards] == nil }
	// withHome returns a fresh ID whose probe starts at slot home.
	withHome := func(home int) uint64 {
		for k := rng.Uint64() >> 8; ; k++ {
			if id := k * leaseShards; fresh(k) && s.home(id) == home {
				return id
			}
		}
	}
	put := func() {
		var id uint64
		switch r := rng.Intn(10); {
		case r < 5:
			for !fresh(dense) {
				dense++
			}
			id = dense * leaseShards
			cover.dense++
		case r < 7:
			k := dense + 1<<20 + rng.Uint64()>>24
			for !fresh(k) {
				k++
			}
			id = k * leaseShards
			cover.jump++
		case r < 9 && len(live) > 0:
			id = withHome(s.home(live[rng.Intn(len(live))]))
			cover.shared++
		default:
			id = withHome(len(s.slots) - 1) // its run wraps to slot 0
		}
		size := len(s.slots)
		l := newLease()
		l.id, l.buf = id, buf
		tbl.restore(l)
		model[id] = l
		live = append(live, id)
		if len(s.slots) > size {
			cover.grow++
		}
	}
	take := func() {
		j := rng.Intn(len(live))
		if rng.Intn(2) == 0 {
			// Prefer the lease in the array's last slot when a lease
			// at slot 0 wrapped there: the take shifts it back across
			// the end.
			if first := s.slots[0]; first != nil && s.home(first.id) != 0 {
				last := s.slots[len(s.slots)-1]
				j = slices.Index(live, last.id)
				cover.wrapTake++
			}
		}
		id := live[j]
		l, ok := tbl.get(id)
		if !ok || l != model[id] {
			t.Fatalf("get(%d) before its take = %p, %v; want %p", id, l, ok, model[id])
		}
		size := len(s.slots)
		if !tbl.take(l) {
			t.Fatalf("take(%d) lost the race it has no rival in", id)
		}
		if tbl.take(l) {
			t.Fatalf("take(%d) twice succeeded twice", id)
		}
		l.release()
		delete(model, id)
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		if len(s.slots) < size {
			cover.shrink++
		}
	}
	get := func() {
		id := (dense + uint64(rng.Intn(64))) * leaseShards
		if len(live) > 0 && rng.Intn(2) == 0 {
			id = live[rng.Intn(len(live))]
		}
		l, ok := tbl.get(id)
		if ok != (model[id] != nil) || (ok && l != model[id]) {
			t.Fatalf("get(%d) = %p, %v; model holds %p", id, l, ok, model[id])
		}
		if ok {
			l.release()
		}
	}
	borrowAll := func() {
		all := tbl.borrowAll()
		defer releaseAll(all)
		want := slices.Clone(live)
		slices.Sort(want)
		if len(all) != len(want) {
			t.Fatalf("borrowAll returned %d leases, model holds %d", len(all), len(want))
		}
		for i, l := range all {
			if l.id != want[i] || l != model[l.id] {
				t.Fatalf("borrowAll[%d] = lease %d (%p), want %d (%p)", i, l.id, l, want[i], model[want[i]])
			}
		}
	}
	check := func(op string) {
		if n := tbl.count(); n != len(model) || s.n != len(model) {
			t.Fatalf("after %s: count %d, shard n %d, model %d", op, n, s.n, len(model))
		}
		if size := len(s.slots); size < minSlots || size&(size-1) != 0 || 4*s.n > 3*size {
			t.Fatalf("after %s: %d leases in %d slots", op, s.n, size)
		}
		for id, l := range model {
			if got := s.lookup(id); got != l {
				t.Fatalf("after %s: lookup(%d) = %p, want %p", op, id, got, l)
			}
		}
		held := 0
		for _, l := range s.slots {
			if l != nil {
				if model[l.id] != l {
					t.Fatalf("after %s: slot holds lease %d, which the model does not", op, l.id)
				}
				held++
			}
		}
		if held != len(model) {
			t.Fatalf("after %s: %d slots held, model %d", op, held, len(model))
		}
	}

	const peak = 600
	for cycle := 0; cycle < 2; cycle++ {
		for _, growing := range []bool{true, false} {
			for growing && len(model) < peak || !growing && len(model) > 0 {
				r := rng.Intn(100)
				switch {
				case r < 2:
					borrowAll()
					check("borrowAll")
				case r < 20:
					get()
					check("get")
				case r < 22:
					check("count")
				case (r < 70) == growing || len(model) == 0:
					put()
					check("put")
				default:
					take()
					check("take")
				}
			}
		}
		if len(s.slots) != minSlots {
			t.Fatalf("cycle %d: an empty shard kept %d slots, want %d", cycle, len(s.slots), minSlots)
		}
	}
	t.Logf("coverage: %+v", cover)
	if cover.dense == 0 || cover.jump == 0 || cover.shared == 0 || cover.wrapTake == 0 || cover.grow < 14 || cover.shrink < 14 {
		t.Fatalf("the stream missed a case: %+v", cover)
	}
	if s.bytes != 0 || slices.ContainsFunc(s.nodeBytes, func(b uint64) bool { return b != 0 }) {
		t.Fatalf("an empty shard's books read %d B, by node %v", s.bytes, s.nodeBytes)
	}
}

// TestLeaseSlotsDenseIDsProbeShort: a shard's IDs are one residue
// modulo leaseShards and mostly dense, which modulo-indexing would
// pack into runs that probing scans end to end. The hash spreads them:
// every lease of a long dense run sits near its home slot.
func TestLeaseSlotsDenseIDsProbeShort(t *testing.T) {
	tbl := newLeaseTable(nil)
	s := &tbl.shards[3]
	for k := uint64(0); k < 3000; k++ {
		s.insert(&lease{id: 3 + k*leaseShards})
	}
	mask := len(s.slots) - 1
	total, longest := 0, 0
	for i, l := range s.slots {
		if l != nil {
			d := (i - s.home(l.id)) & mask
			total += d
			longest = max(longest, d)
		}
	}
	mean := float64(total) / float64(s.n)
	t.Logf("%d leases in %d slots: mean probe %.2f, longest %d", s.n, len(s.slots), mean, longest)
	if mean > 2 || longest > 24 {
		t.Fatalf("dense IDs probe %.2f slots on average and %d at most, want <= 2 and <= 24", mean, longest)
	}
}

// TestFreedBurstLeavesNoHeap: a daemon that grants a burst of leases
// and frees them all holds, after two collections, what it held before
// the burst. Neither the lease table nor memsim keeps anything sized by
// the burst: the table's slot arrays shrink back as they empty, and
// memsim keeps no list of buffers for a freed one to linger in.
func TestFreedBurstLeavesNoHeap(t *testing.T) {
	srv := newTestDaemon(t)
	ctx := context.Background()
	const burst = 100_000
	reqs := make([]AllocRequest, MaxBatchAllocs)
	for i := range reqs {
		reqs[i] = AllocRequest{Name: "burst", Size: 4096, Attr: "Capacity", Initiator: "0-19"}
	}
	ids := make([]uint64, 0, burst)
	grant := func(n int) {
		t.Helper()
		for len(ids) < n {
			resp, err := srv.AllocBatch(ctx, reqs[:min(MaxBatchAllocs, n-len(ids))])
			if err != nil || resp.Failed > 0 {
				t.Fatalf("burst batch: %d refused, %v", resp.Failed, err)
			}
			for _, item := range resp.Results {
				ids = append(ids, item.Alloc.Lease)
			}
		}
	}
	freeAll := func() {
		t.Helper()
		for _, id := range ids {
			if _, err := srv.Free(ctx, FreeRequest{Lease: id}); err != nil {
				t.Fatal(err)
			}
		}
		ids = ids[:0]
	}
	grant(4 * MaxBatchAllocs) // warm the pools, the caches and the intern table
	freeAll()

	before := liveHeap()
	grant(burst)
	held := liveHeap()
	freeAll()
	after := liveHeap()
	runtime.KeepAlive(ids) // measured on both sides
	t.Logf("live heap: %d B before, %d B with %d leases, %d B after freeing them", before, held, burst, after)
	if n := srv.LeaseCount(); n != 0 {
		t.Fatalf("%d leases left after freeing the burst", n)
	}
	if after > before+64<<10 {
		t.Fatalf("a freed burst of %d leases left %d B of heap behind, want <= 64 KiB", burst, after-before)
	}
}
