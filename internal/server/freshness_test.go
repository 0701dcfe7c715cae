package server_test

// Read freshness under fire. The read endpoints answer from live
// state — /v1/leases from the lease table's shard books, /metrics from
// the node gauges, /v1/attrs from a view cached per machine generation
// — and the bound they owe a client is that a read STARTED after a
// write's response returned observes that write. Readers here hammer
// /v1/leases and /metrics while writers allocate (monotonically —
// nothing is freed, so the lease count is a watermark) and a fault
// injector degrades and restores a node to churn the machine
// generation. Each reader latches the writers' completed count before
// issuing its read and requires the response to be at or past that
// watermark. Run under -race this doubles as the data-race proof for
// the books and the attrs view swap.
//
// Every loop is iteration-bounded, not time-bounded: on a small (even
// single-core) runner under the race detector, a free-running reader
// loop starves the writers and the test drags on for minutes doing no
// additional verification.

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"hetmem/internal/core"
	"hetmem/internal/faults"
	"hetmem/internal/server"
)

func TestReadFreshness(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithConfig(sys, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inj := faults.NewInjector(faults.NewMachineTarget(sys.Machine))
	inj.Subscribe(srv.ApplyFault)

	const (
		writers    = 2
		allocsEach = 60
		readerIter = 80
		churnIter  = 60
	)
	ctx := context.Background()
	var completed atomic.Int64 // allocs whose responses have returned
	var wg sync.WaitGroup

	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.NoRetry))
			for j := 0; j < allocsEach; j++ {
				if _, err := cl.Alloc(ctx, server.AllocRequest{
					Name: "fresh", Size: 4096, Attr: "Capacity",
				}); err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				completed.Add(1)
			}
		}()
	}

	// Fault churn: degrading and restoring a node bumps the machine
	// generation, forcing attrs-view rebuilds to race the reads.
	churnNode := sys.Machine.Nodes()[0].OSIndex()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churnIter; i++ {
			inj.Apply(faults.Event{NodeOS: churnNode, Kind: faults.Degrade, BWFactor: 0.5, LatFactor: 2})
			inj.Apply(faults.Event{NodeOS: churnNode, Kind: faults.Restore})
		}
	}()

	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.NoRetry))
			for j := 0; j < readerIter; j++ {
				lo := completed.Load()
				resp, err := cl.Leases(ctx, false)
				if err != nil {
					continue
				}
				if int64(resp.Count) < lo {
					t.Errorf("/v1/leases count %d staler than completed watermark %d", resp.Count, lo)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < readerIter; j++ {
				lo := completed.Load()
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
				m, err := server.ParseMetrics(rec.Body.String())
				if err != nil {
					t.Errorf("parse /metrics: %v", err)
					return
				}
				if got := int64(m["hetmemd_leases_active"]); got < lo {
					t.Errorf("/metrics hetmemd_leases_active %d staler than completed watermark %d", got, lo)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.NoRetry))
		for j := 0; j < readerIter; j++ {
			if attrs, err := cl.Attrs(ctx); err == nil && len(attrs) == 0 {
				t.Error("/v1/attrs came back empty")
				return
			}
		}
	}()

	wg.Wait()

	// Quiesced: a final read must see every completed alloc exactly.
	cl := server.NewClient(ts.URL)
	resp, err := cl.Leases(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := writers * allocsEach; resp.Count != want {
		t.Fatalf("final lease count %d, want %d", resp.Count, want)
	}
}

// TestAttrsFollowMachineGeneration: the /v1/attrs view is cached for
// as long as the machine generation stands, so whoever changes an
// attribute value bumps the generation (memsim's contract) — and the
// read that follows must serve the new value.
func TestAttrsFollowMachineGeneration(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys)
	defer srv.Close()
	ctx := context.Background()
	capacityOf := func() (uint64, int) {
		t.Helper()
		attrs, err := srv.Attrs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range attrs {
			if a.Name == "Capacity" {
				return a.Values[0].Value, a.Values[0].TargetOS
			}
		}
		t.Fatal("no Capacity attribute")
		return 0, 0
	}
	was, os := capacityOf()
	id, _ := sys.Registry.ByName("Capacity")
	if err := sys.Registry.SetValue(id, sys.Machine.NodeByOS(os).Obj, nil, was+1); err != nil {
		t.Fatal(err)
	}
	sys.Machine.BumpGeneration()
	if got, _ := capacityOf(); got != was+1 {
		t.Fatalf("/v1/attrs serves Capacity %d after the generation moved, want %d", got, was+1)
	}
}
