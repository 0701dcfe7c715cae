package hetmem

// The benchmark harness: one testing.B target per table and figure of
// the paper's evaluation, plus ablations for the design choices called
// out in DESIGN.md. Results are exported with b.ReportMetric so that
// `go test -bench=. -benchmem` prints the same series the paper
// reports (TEPS, GB/s, bound percentages) next to the harness cost.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"

	"hetmem/internal/alloc"
	"hetmem/internal/bitmap"
	"hetmem/internal/core"
	"hetmem/internal/experiments"
	"hetmem/internal/graph500"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/platform"
	"hetmem/internal/policy"
	"hetmem/internal/server"
	"hetmem/internal/stream"
)

const gib = uint64(1) << 30

// BenchmarkTable2a_Graph500Xeon regenerates Table IIa: Graph500 TEPS
// on the Xeon, DRAM vs NVDIMM, edge lists 2.15-34.36 GB.
func BenchmarkTable2a_Graph500Xeon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Table2aData()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range data {
				b.ReportMetric(c.TEPSe8["DRAM"], "DRAM-TEPSe8@"+gbLabel(c.GraphGB))
				b.ReportMetric(c.TEPSe8["NVDIMM"], "NVDIMM-TEPSe8@"+gbLabel(c.GraphGB))
			}
		}
	}
}

// BenchmarkTable2b_Graph500KNL regenerates Table IIb.
func BenchmarkTable2b_Graph500KNL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Table2bData()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range data {
				b.ReportMetric(c.TEPSe8["HBM"], "HBM-TEPSe8@"+gbLabel(c.GraphGB))
				b.ReportMetric(c.TEPSe8["DRAM"], "DRAM-TEPSe8@"+gbLabel(c.GraphGB))
			}
		}
	}
}

// BenchmarkTable3a_StreamXeon regenerates Table IIIa.
func BenchmarkTable3a_StreamXeon(b *testing.B) {
	benchStream(b, experiments.Table3aData)
}

// BenchmarkTable3b_StreamKNL regenerates Table IIIb.
func BenchmarkTable3b_StreamKNL(b *testing.B) {
	benchStream(b, experiments.Table3bData)
}

func benchStream(b *testing.B, data func() ([]experiments.StreamCell, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cells, err := data()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range cells {
				if c.Failed {
					continue
				}
				b.ReportMetric(c.TriadGBs, c.Criterion+"-GBs@"+gbLabel(c.TotalGiB))
			}
		}
	}
}

// BenchmarkTable4_Profiles regenerates the Table IV summaries.
func BenchmarkTable4_Profiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4Data()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for name, s := range rows {
				b.ReportMetric(s.DRAMBoundPct, name+"-DRAMBound%")
				b.ReportMetric(s.PMemBoundPct, name+"-PMemBound%")
			}
		}
	}
}

// BenchmarkFig5_HMATDiscovery times the firmware discovery pipeline
// that produces the Figure 5 report (build table, decode, apply).
func BenchmarkFig5_HMATDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSystem("xeon-snc2", core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_HotObjects times the per-object analysis behind
// Figure 7.
func BenchmarkFig7_HotObjects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortability regenerates the Section VI-A matrix.
func BenchmarkPortability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PortabilityData(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscovery_BenchmarkPath times the full measurement campaign
// on the HMAT-less KNL (Table I's external-source path).
func BenchmarkDiscovery_BenchmarkPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSystem("knl-snc4-flat", core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblation_DirectionOptimizingBFS compares the real BFS with
// and without Beamer-style direction optimization (edges scanned and
// wall time of the actual algorithm, not the simulator).
func BenchmarkAblation_DirectionOptimizingBFS(b *testing.B) {
	edges := graph500.GenerateEdges(16, 16, 7)
	g := graph500.BuildCSR(edges, 1<<16)
	root := edges[0].U
	for _, do := range []struct {
		name string
		opt  bool
	}{{"topdown", false}, {"directionopt", true}} {
		b.Run(do.name, func(b *testing.B) {
			var scanned int64
			for i := 0; i < b.N; i++ {
				_, st := graph500.BFS(g, root, graph500.BFSOptions{DirectionOptimizing: do.opt})
				scanned = st.EdgesScanned
			}
			b.ReportMetric(float64(scanned), "edges-scanned")
		})
	}
}

// BenchmarkAblation_MemorySideCache measures the same streamed kernel
// on KNL Cache mode (MCDRAM as memory-side cache) with a fitting and a
// spilling working set — the paper's Cache-vs-Flat trade-off.
func BenchmarkAblation_MemorySideCache(b *testing.B) {
	for _, ws := range []struct {
		name string
		size uint64
	}{{"fits-cache", 8 * gib}, {"spills", 64 * gib}} {
		b.Run(ws.name, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				p, err := platform.Get("knl-quadrant-cache")
				if err != nil {
					b.Fatal(err)
				}
				m, err := p.NewMachine()
				if err != nil {
					b.Fatal(err)
				}
				buf, err := m.Alloc("a", ws.size, m.NodeByOS(0))
				if err != nil {
					b.Fatal(err)
				}
				e := memsim.NewEngine(m, bitmap.NewFromRange(0, 63))
				res := e.Phase("stream", []memsim.Access{{Buffer: buf, ReadBytes: ws.size * 2}})
				bw = float64(ws.size*2) / float64(gib) / res.Seconds
			}
			b.ReportMetric(bw, "GBs")
		})
	}
}

// BenchmarkAblation_NVDIMMWriteBuffer isolates the Optane buffering
// model: triad bandwidth below and above the device buffer.
func BenchmarkAblation_NVDIMMWriteBuffer(b *testing.B) {
	for _, ws := range []struct {
		name  string
		total uint64
	}{{"buffered-20GiB", 20 * gib}, {"sustained-60GiB", 60 * gib}} {
		b.Run(ws.name, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				p, err := platform.Get("xeon")
				if err != nil {
					b.Fatal(err)
				}
				m, err := p.NewMachine()
				if err != nil {
					b.Fatal(err)
				}
				ar, err := stream.AllocArrays(func(name string, size uint64) (*memsim.Buffer, error) {
					return m.Alloc(name, size, m.NodeByOS(2))
				}, ws.total/3/stream.ElemBytes)
				if err != nil {
					b.Fatal(err)
				}
				e := memsim.NewEngine(m, bitmap.NewFromRange(0, 19))
				bw = stream.Run(e, ar, 2).TriadBW
			}
			b.ReportMetric(bw, "triad-GBs")
		})
	}
}

// BenchmarkAblation_FCFSvsPriority measures the end-to-end kernel time
// that results from each planning policy under capacity pressure.
func BenchmarkAblation_FCFSvsPriority(b *testing.B) {
	reqs := []alloc.Request{
		{Name: "scratch", Size: 3 * gib, Attr: memattr.Bandwidth, Priority: 1},
		{Name: "critical", Size: 3 * gib, Attr: memattr.Bandwidth, Priority: 10},
	}
	for _, mode := range []string{"fcfs", "priority"} {
		b.Run(mode, func(b *testing.B) {
			var seconds float64
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystem("knl-snc4-flat", core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ini := sys.InitiatorForGroup(0)
				var pls []alloc.Placement
				if mode == "fcfs" {
					pls = sys.Allocator.PlanFCFS(reqs, ini)
				} else {
					pls = sys.Allocator.PlanPriority(reqs, ini)
				}
				e := sys.Engine(ini)
				// The critical buffer is streamed 100x more than the
				// scratch: its placement dominates.
				res := e.Phase("kernel", []memsim.Access{
					{Buffer: pls[1].Buffer, ReadBytes: 300 * gib},
					{Buffer: pls[0].Buffer, ReadBytes: 3 * gib},
				})
				seconds = res.Seconds
			}
			b.ReportMetric(seconds, "kernel-s")
		})
	}
}

// BenchmarkServerAlloc measures placement-daemon service throughput:
// parallel alloc/free round-trips (HTTP, JSON, lease table, sharded
// capacity accounting) against an in-process hetmemd. This is the
// series that tracks the service layer's perf trajectory.
func BenchmarkServerAlloc(b *testing.B) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(sys).Handler())
	defer ts.Close()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		// Benchmark the request path, not the retry machinery.
		cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.NoRetry))
		for pb.Next() {
			resp, err := cl.Alloc(ctx, server.AllocRequest{
				Name: "bench", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := cl.Free(ctx, resp.Lease); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	// Two HTTP requests per iteration.
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkLeasesSummary is the /v1/leases summary at the backend (no
// transport) over a standing population: the lease table keeps books
// per shard, so 5k and 50k must read the same. Before the books it was
// a walk of every lease — about 2.3 ms at 5k after any write.
func BenchmarkLeasesSummary(b *testing.B) {
	for _, tc := range []struct {
		name     string
		standing int
	}{{"5k", 5_000}, {"50k", 50_000}} {
		b.Run(tc.name, func(b *testing.B) {
			sys, err := core.NewSystem("xeon", core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			srv := server.New(sys)
			defer srv.Close()
			ctx := context.Background()
			for i := 0; i < tc.standing; i++ {
				if _, err := srv.Alloc(ctx, server.AllocRequest{Name: "standing", Size: 1 << 20, Attr: "Capacity"}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := srv.Leases(ctx, false)
				if err != nil || resp.Count != tc.standing {
					b.Fatalf("summary: %d leases, %v", resp.Count, err)
				}
			}
		})
	}
}

// benchClients is the concurrency the journal benchmarks model: at 32
// concurrent clients every fsync carries the records that arrived
// during the one before it. (A lone client pays one fsync per record.)
const benchClients = 32

// BenchmarkServerAllocJournalGroupCommit is the durable daemon: every
// acked record is on stable storage, concurrent appends share one
// fsync, and placements hit the ranked-candidate cache.
func BenchmarkServerAllocJournalGroupCommit(b *testing.B) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.NewWithConfig(sys, server.Config{
		JournalPath: b.TempDir() + "/bench.wal",
		GroupCommit: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	b.SetParallelism((benchClients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.NoRetry))
		for pb.Next() {
			resp, err := cl.Alloc(ctx, server.AllocRequest{
				Name: "bench", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := cl.Free(ctx, resp.Lease); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServerAllocBatch drives the same load through
// /v1/alloc/batch: 16 placements per round trip, one journal batch
// each.
func BenchmarkServerAllocBatch(b *testing.B) {
	const perBatch = 16
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.NewWithConfig(sys, server.Config{
		JournalPath: b.TempDir() + "/bench.wal",
		GroupCommit: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs := make([]server.AllocRequest, perBatch)
	for i := range reqs {
		reqs[i] = server.AllocRequest{
			Name: "bench", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19",
		}
	}
	b.SetParallelism((benchClients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.NoRetry))
		for pb.Next() {
			resp, err := cl.AllocBatch(ctx, reqs)
			if err != nil {
				b.Fatal(err)
			}
			for _, it := range resp.Results {
				if it.Error != nil {
					b.Fatalf("batch item failed: %s", it.Error.Message)
				}
				if err := cl.Free(ctx, it.Alloc.Lease); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.StopTimer()
	// perBatch allocations per iteration.
	b.ReportMetric(float64(perBatch*b.N)/b.Elapsed().Seconds(), "allocs/s")
}

// BenchmarkAblation_AllocatorOverhead measures the cost of one
// attribute-driven allocation decision (rank + place + free).
func BenchmarkAblation_AllocatorOverhead(b *testing.B) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ini := sys.InitiatorForPackage(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, err := sys.MemAlloc("b", 1<<20, memattr.Latency, ini)
		if err != nil {
			b.Fatal(err)
		}
		sys.Free(buf)
	}
}

func gbLabel(gb float64) string {
	switch {
	case gb < 3:
		return "S"
	case gb < 6:
		return "M"
	case gb < 12:
		return "L"
	case gb < 24:
		return "XL"
	case gb < 100:
		return "XXL"
	default:
		return "XXXL"
	}
}

// BenchmarkAblation_InterleaveAggregation measures the bandwidth
// aggregation of the OS interleave policy across DRAM+NVDIMM versus a
// single-node binding — and its latency penalty for irregular access.
func BenchmarkAblation_InterleaveAggregation(b *testing.B) {
	for _, mode := range []string{"dram-only", "interleave"} {
		b.Run(mode, func(b *testing.B) {
			var bw, lat float64
			for i := 0; i < b.N; i++ {
				p, err := platform.Get("xeon")
				if err != nil {
					b.Fatal(err)
				}
				m, err := p.NewMachine()
				if err != nil {
					b.Fatal(err)
				}
				ini := bitmap.NewFromRange(0, 19)
				var pol policy.Policy
				if mode == "dram-only" {
					pol = policy.Policy{Mode: policy.Bind, Nodes: []int{0}}
				} else {
					pol = policy.Policy{Mode: policy.Interleave, Nodes: []int{0, 2}}
				}
				buf, err := pol.Alloc(m, ini, "a", 40*gib)
				if err != nil {
					b.Fatal(err)
				}
				e := memsim.NewEngine(m, ini)
				res := e.Phase("stream", []memsim.Access{{Buffer: buf, ReadBytes: 80 * gib}})
				bw = res.AchievedBW
				e2 := memsim.NewEngine(m, ini)
				r2 := e2.Phase("rand", []memsim.Access{{Buffer: buf, RandomReads: 100_000_000, MLP: 8}})
				lat = r2.Seconds
			}
			b.ReportMetric(bw, "stream-GBs")
			b.ReportMetric(lat, "random-s")
		})
	}
}

// BenchmarkScaling_DistributedBFS regenerates the distributed
// Graph500 extension: TEPS across 1/2/4 KNL clusters.
func BenchmarkScaling_DistributedBFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ScalingData()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.TEPSe8, fmt.Sprintf("TEPSe8@%dranks", r.Ranks))
			}
		}
	}
}

// BenchmarkGUPS regenerates the GUPS extension table.
func BenchmarkGUPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.GUPSData()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range cells {
				b.ReportMetric(c.GUPS, c.Machine+"-"+c.Kind+"-GUPS")
			}
		}
	}
}
