package server

import (
	"context"
	"errors"
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
// lease record at exactly 80 bytes and its simulated buffer at exactly
// 64 (each fills its size class: one word more on either puts it in
// the next, 16 bytes up), one heap object for a one-node placement, and
// the live heap per lease of a standing population set up the way the
// benchmark does it (batches of MaxBatchAllocs 1 MiB Bandwidth leases
// from "0-19", over a unix socket and the binary decoder).
func TestLeaseFootprint(t *testing.T) {
	if got := unsafe.Sizeof(lease{}); got != 80 {
		t.Errorf("lease is %d bytes, want 80", got)
	}
	if got := unsafe.Sizeof(memsim.Buffer{}); got != 64 {
		t.Errorf("memsim.Buffer is %d bytes, want 64", got)
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

	const leases = 20000
	populate(1024) // dial, warm the pools and grow the maps past their first buckets
	before := liveHeap()
	populate(leases)
	after := liveHeap()
	per := float64(after-before) / leases
	t.Logf("live heap: %.0f B per lease over %d leases", per, leases)
	if per > 185 { // 175 measured, plus 10 B: less than the 16 B one more word costs
		t.Errorf("the daemon holds %.0f B of heap per live lease, want <= 185", per)
	}
	if n := srv.leases.count(); n != made {
		t.Fatalf("%d leases live, want %d", n, made)
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

// TestInternInitiatorRacingInserts: callers that miss on the same new
// list all get the one entry that won, and the daemon's table holds
// each list once.
func TestInternInitiatorRacingInserts(t *testing.T) {
	srv := newTestDaemon(t)
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
				e, err := srv.resolveInitiator(s)
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = append(results[w], got{e.list, uintptr(unsafe.Pointer(e.bm))})
			}
		}()
	}
	close(start)
	wg.Wait()

	if entries := len(srv.inis.m); entries != 2*lists { // "i-i" from even workers, "i-(i+1)" from odd ones
		t.Errorf("intern table holds %d entries, want %d", entries, 2*lists)
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

// internOneOffs resolves n distinct sparse cpuset lists on srv, each
// from a fresh string, the way a stream of one-off requests does.
func internOneOffs(t *testing.T, srv *Server, n int) {
	t.Helper()
	for i := range n {
		s := fmt.Sprintf("%d,%d,%d", i%40, i/40%40, i/1600%40)
		if _, err := srv.resolveInitiator(s); err != nil {
			t.Fatal(err)
		}
	}
}

// interns reports whether srv keeps list s interned: a second lookup
// from another copy of the string returns the first one's bitmap.
func interns(t *testing.T, srv *Server, s string) bool {
	t.Helper()
	a, err := srv.resolveInitiator(strings.Clone(s))
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.resolveInitiator(strings.Clone(s))
	if err != nil {
		t.Fatal(err)
	}
	return a.bm == b.bm
}

// TestInitiatorTableOutlivesOneOffs: a daemon that has resolved 20 000
// one-off lists still interns a new one, and its table stays bounded.
func TestInitiatorTableOutlivesOneOffs(t *testing.T) {
	srv := newTestDaemon(t)
	internOneOffs(t, srv, 20000)
	if n := len(srv.inis.m); n > iniCacheMax {
		t.Errorf("intern table holds %d entries, want <= %d", n, iniCacheMax)
	}
	if !interns(t, srv, "1-2,39") {
		t.Error("a new list is not interned after 20 000 one-off lists")
	}
}

// TestDaemonsShareNoInitiators: daemon A fills its intern table with
// one-off lists and is closed; daemon B, in the same process, still
// interns a new list, and none of A's lists stay live.
func TestDaemonsShareNoInitiators(t *testing.T) {
	b := newTestDaemon(t)
	if !interns(t, b, "0-19") {
		t.Fatal("daemon B does not intern a list")
	}
	before := liveHeap()
	func() {
		sys, err := core.NewSystem("xeon", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		a := New(sys)
		internOneOffs(t, a, 20000)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if !interns(t, b, "3,5-7") {
		t.Error("daemon B does not intern a new list after daemon A's one-off lists")
	}
	after := liveHeap()
	t.Logf("live heap %d B before daemon A, %d B after it closed", before, after)
	if after > before+before/20 {
		t.Errorf("live heap %d B after daemon A closed, want within 5%% of %d B", after, before)
	}
}

// TestHugeInitiatorRefused: a short list naming a CPU index far past
// any machine is a 400 bad_request on every transport, refused before
// anything is sized to it.
func TestHugeInitiatorRefused(t *testing.T) {
	srv := newTestDaemon(t)
	ctx := context.Background()
	for _, transport := range []string{"http", "uds"} {
		t.Run(transport, func(t *testing.T) {
			base, stop, err := ServeTransport(srv, transport)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			cl := NewClient(base, WithRetryPolicy(NoRetry), WithoutHeartbeat())
			defer cl.Close()
			allocFree(t, cl) // dial and warm the pools

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = cl.Alloc(ctx, AllocRequest{Name: "far", Size: 4096, Attr: "Capacity", Initiator: "100000000"})
			runtime.ReadMemStats(&after)
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 || apiErr.Code != CodeBadRequest ||
				!strings.Contains(apiErr.Message, "initiator") {
				t.Errorf("alloc for CPU 100000000: %v, want 400 bad_request (initiator)", err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
				t.Errorf("refusing the alloc allocated %d B, want < 64 KiB", n)
			}
		})
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
