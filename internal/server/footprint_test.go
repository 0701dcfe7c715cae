package server

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"hetmem/internal/core"
	"hetmem/internal/journal"
	"hetmem/internal/memsim"
)

// TestLeaseFootprint pins what a daemon holds per live lease: the
// lease record and its simulated buffer at their sizes, one heap
// object for a one-node placement, and the live heap per lease of a
// standing population set up the way the benchmark does it (batches of
// MaxBatchAllocs 1 MiB Bandwidth leases from "0-19", over a unix socket
// and the binary decoder).
func TestLeaseFootprint(t *testing.T) {
	if got := unsafe.Sizeof(lease{}); got > 128 {
		t.Errorf("lease is %d bytes, want <= 128", got)
	}
	if got := unsafe.Sizeof(memsim.Buffer{}); got > 96 {
		t.Errorf("memsim.Buffer is %d bytes, want <= 96", got)
	}

	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node := sys.Machine.Nodes()[0]
	place := func() {
		b, err := sys.Machine.Alloc("footprint", 4096, node)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Machine.Free(b); err != nil {
			t.Fatal(err)
		}
	}
	place()
	if allocs := testing.AllocsPerRun(1000, place); allocs != 1 {
		t.Errorf("a one-node Machine.Alloc makes %.0f allocations, want 1", allocs)
	}

	srv := New(sys)
	defer srv.Close()
	base, stop, err := ServeTransport(srv, "uds")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cl := NewClient(base, WithRetryPolicy(NoRetry), WithoutHeartbeat())
	defer cl.Close()
	ctx := context.Background()

	rng := rand.New(rand.NewSource(1))
	made := 0
	populate := func(n int) {
		t.Helper()
		reqs := make([]AllocRequest, 0, MaxBatchAllocs)
		for end := made + n; made < end; {
			reqs = reqs[:0]
			for len(reqs) < cap(reqs) && made < end {
				reqs = append(reqs, AllocRequest{
					Name: fmt.Sprintf("s%d-%x", made, rng.Uint32()), Size: 1 << 20,
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
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	const leases = 20000
	populate(1024) // dial, warm the pools and grow the maps past their first buckets
	before := liveHeap()
	populate(leases)
	after := liveHeap()
	per := float64(after-before) / leases
	t.Logf("live heap: %.0f B per lease over %d leases", per, leases)
	if per > 320 {
		t.Errorf("the daemon holds %.0f B of heap per live lease, want <= 320", per)
	}
	if n := srv.leases.count(); n != made {
		t.Fatalf("%d leases live, want %d", n, made)
	}
}

// TestInternInitiatorRacingInserts: callers that miss on the same new
// list all get the one entry that won, and only that insert counts
// against the cache bound.
func TestInternInitiatorRacingInserts(t *testing.T) {
	clearInterned := func() {
		iniCache.Range(func(k, _ any) bool { iniCache.Delete(k); return true })
		iniCacheSize.Store(0)
	}
	clearInterned()
	defer clearInterned()

	const workers, lists = 8, 256
	type got struct {
		list string
		bm   uintptr
	}
	results := make([][]got, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range lists {
				// A fresh string per call: the request's own copy.
				s := strings.Clone(fmt.Sprintf("%d-%d", i, i+w%2))
				list, bm, err := internInitiator(s)
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = append(results[w], got{list, uintptr(unsafe.Pointer(bm))})
			}
		}()
	}
	close(start)
	wg.Wait()

	entries := 0
	iniCache.Range(func(any, any) bool { entries++; return true })
	if n := iniCacheSize.Load(); n != int64(entries) {
		t.Errorf("intern cache counts %d entries, holds %d", n, entries)
	}
	if entries != 2*lists { // "i-i" from even workers, "i-(i+1)" from odd ones
		t.Errorf("intern cache holds %d entries, want %d", entries, 2*lists)
	}
	for w := 2; w < workers; w++ {
		for i, r := range results[w] {
			want := results[w%2][i]
			if r.bm != want.bm || unsafe.StringData(r.list) != unsafe.StringData(want.list) {
				t.Fatalf("worker %d list %q: got another bitmap or string than worker %d", w, r.list, w%2)
			}
		}
	}
}

// TestReplayRefusesUnknownAttribute: a lease stores its attribute as a
// registry ID, so replay refuses a record naming an attribute the
// platform does not register, with the record's index, as it refuses
// an unknown node.
func TestReplayRefusesUnknownAttribute(t *testing.T) {
	alloc := func(lease uint64, attr string) journal.Record {
		return journal.Record{
			Op: journal.OpAlloc, Lease: lease, Name: "r", Attr: attr, Initiator: "0-19", Size: 4096,
			Segments: []journal.Segment{{NodeOS: 0, Bytes: 4096}},
		}
	}
	for _, tc := range []struct {
		name string
		recs []journal.Record
		want string
	}{
		{"alloc", []journal.Record{alloc(1, "Bandwidth"), alloc(2, "Sparkle")},
			`journal record 1: lease 2 references unknown attribute "Sparkle"`},
		{"migrate", []journal.Record{alloc(1, "Bandwidth"), {
			Op: journal.OpMigrate, Lease: 1, Attr: "Sparkle", Origin: journal.OriginAdvisor,
			Segments: []journal.Segment{{NodeOS: 0, Bytes: 4096}},
		}}, `journal record 1: lease 1 references unknown attribute "Sparkle"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.NewSystem("xeon", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			srv := New(sys)
			defer srv.Close()
			err = srv.restoreFromJournal(tc.recs, 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("replay error %v, want it to say %s", err, tc.want)
			}
		})
	}
}
