package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hetmem/internal/wire"
)

// LoadOptions configures a load-generation run.
type LoadOptions struct {
	// Clients is the number of concurrent client goroutines.
	Clients int
	// RequestsPerClient is how many operations each client issues.
	RequestsPerClient int
	// MaxLive bounds how many leases each client keeps alive at once.
	MaxLive int
	// MaxSizeBytes bounds individual allocation sizes (sizes are drawn
	// uniformly in [1 MiB, MaxSizeBytes]).
	MaxSizeBytes uint64
	// Seed makes the traffic mix reproducible.
	Seed int64
	// Initiator is the cpuset list requests carry; empty lets the
	// daemon use the whole machine.
	Initiator string
	// Tolerate, when set, classifies errors the run accepts as part of
	// the experiment (e.g. 503s while a chaos plan has nodes down):
	// tolerated errors are counted but do not fail the run.
	Tolerate func(error) bool
	// Retry overrides the clients' retry policy (nil = DefaultRetry).
	Retry *RetryPolicy
	// Progress, when set, is called after each of a client's
	// RequestsPerClient operations finishes, with the number finished so
	// far across all clients — each count exactly once. A fault
	// experiment keys its fault to it (start at N) instead of a sleep.
	Progress func(done uint64)
}

// withDefaults fills unset options with sane load-test values.
func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.RequestsPerClient <= 0 {
		o.RequestsPerClient = 100
	}
	if o.MaxLive <= 0 {
		o.MaxLive = 8
	}
	if o.MaxSizeBytes == 0 {
		o.MaxSizeBytes = 64 << 20
	}
	return o
}

// LoadStats summarizes a load-generation run.
type LoadStats struct {
	Requests   uint64  // operations issued (allocs, frees, migrates, queries)
	Failed     uint64  // operations that returned an unexpected error
	Tolerated  uint64  // operations that failed in a way Tolerate accepts
	Allocs     uint64  // successful allocations
	Frees      uint64  // successful frees
	Migrates   uint64  // successful migrations
	Queries    uint64  // attrs/leases/metrics reads
	Seconds    float64 // wall time of the run
	Throughput float64 // requests per second
	// LeasesLeft is how many leases the run left alive on purpose, so
	// the caller can cross-check /metrics against /leases.
	LeasesLeft int
}

func (s LoadStats) String() string {
	return fmt.Sprintf("%d requests in %.2fs (%.0f req/s): %d allocs, %d frees, %d migrates, %d queries, %d failed, %d tolerated, %d leases left",
		s.Requests, s.Seconds, s.Throughput, s.Allocs, s.Frees, s.Migrates, s.Queries, s.Failed, s.Tolerated, s.LeasesLeft)
}

// attrMix is the attribute distribution of generated allocations: the
// three requests of the paper's portability demo.
var attrMix = []string{"Bandwidth", "Latency", "Capacity"}

// LoadTest drives mixed alloc/free/migrate/query traffic against the
// daemon at base from many concurrent clients and reports throughput.
// Roughly half the operations are allocations, a third frees, and the
// rest migrations and read-only queries. Each client frees all but its
// last few leases at the end, so the daemon is left with a small live
// table the caller can verify against /metrics. Canceling the context
// stops the run early (clients still drain their leases).
func LoadTest(ctx context.Context, base string, opts LoadOptions) (LoadStats, error) {
	opts = opts.withDefaults()
	var stats LoadStats
	var requests, failed, tolerated, allocs, frees, migrates, queries, done atomic.Uint64
	var leasesLeft atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, opts.Clients)
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var copts []ClientOption
			if opts.Retry != nil {
				copts = append(copts, WithRetryPolicy(*opts.Retry))
			}
			cl := NewClient(base, copts...)
			rng := rand.New(rand.NewSource(opts.Seed + int64(id)))
			var leases []uint64
			fail := func(err error) {
				if opts.Tolerate != nil && opts.Tolerate(err) {
					tolerated.Add(1)
					return
				}
				failed.Add(1)
				select {
				case errCh <- err:
				default:
				}
			}
			finished := func() {
				if opts.Progress != nil {
					opts.Progress(done.Add(1))
				}
			}
			for i := 0; i < opts.RequestsPerClient && ctx.Err() == nil; i++ {
				requests.Add(1)
				switch op := rng.Intn(12); {
				case op < 6 || len(leases) == 0: // alloc
					size := 1<<20 + uint64(rng.Int63n(int64(opts.MaxSizeBytes-1<<20+1)))
					resp, err := cl.Alloc(ctx, AllocRequest{
						Name:      fmt.Sprintf("load-%d-%d", id, i),
						Size:      size,
						Attr:      attrMix[rng.Intn(len(attrMix))],
						Initiator: opts.Initiator,
						Partial:   true,
						Remote:    true,
					})
					if err != nil {
						fail(err)
						finished()
						continue
					}
					allocs.Add(1)
					leases = append(leases, resp.Lease)
					// Stay under the live-lease cap.
					for len(leases) > opts.MaxLive {
						requests.Add(1)
						if err := cl.Free(ctx, leases[0]); err != nil {
							fail(err)
						} else {
							frees.Add(1)
						}
						leases = leases[1:]
					}
				case op < 9: // free
					j := rng.Intn(len(leases))
					if err := cl.Free(ctx, leases[j]); err != nil {
						fail(err)
					} else {
						frees.Add(1)
					}
					leases = append(leases[:j], leases[j+1:]...)
				case op < 10: // migrate
					j := rng.Intn(len(leases))
					_, err := cl.Migrate(ctx, MigrateRequest{
						Lease:     leases[j],
						Attr:      attrMix[rng.Intn(len(attrMix))],
						Initiator: opts.Initiator,
						Remote:    true,
					})
					if err != nil {
						fail(err)
					} else {
						migrates.Add(1)
					}
				default: // read-only queries
					var err error
					switch rng.Intn(3) {
					case 0:
						_, err = cl.Attrs(ctx)
					case 1:
						_, err = cl.Leases(ctx, false)
					default:
						_, err = cl.Metrics(ctx)
					}
					if err != nil {
						fail(err)
					} else {
						queries.Add(1)
					}
				}
				finished()
			}
			// Drain down to at most one survivor per client so the
			// verification workload is non-trivial but small. Draining
			// outlives ctx cancellation: use a fresh context so an early
			// stop still leaves clean books.
			drainCtx := context.Background()
			for len(leases) > 1 {
				requests.Add(1)
				if err := cl.Free(drainCtx, leases[0]); err != nil {
					fail(err)
				} else {
					frees.Add(1)
				}
				leases = leases[1:]
			}
			leasesLeft.Add(int64(len(leases)))
		}(c)
	}
	wg.Wait()

	stats.Requests = requests.Load()
	stats.Failed = failed.Load()
	stats.Tolerated = tolerated.Load()
	stats.Allocs = allocs.Load()
	stats.Frees = frees.Load()
	stats.Migrates = migrates.Load()
	stats.Queries = queries.Load()
	stats.Seconds = time.Since(start).Seconds()
	stats.Throughput = float64(stats.Requests) / stats.Seconds
	stats.LeasesLeft = int(leasesLeft.Load())

	var firstErr error
	select {
	case firstErr = <-errCh:
	default:
	}
	if stats.Failed > 0 {
		return stats, fmt.Errorf("server: load test had %d failed requests, first: %w", stats.Failed, firstErr)
	}
	return stats, nil
}

// VerifyConsistency cross-checks the daemon's books: the per-node
// bytes-in-use gauges of /metrics must sum to exactly the bytes of the
// live lease table reported by /leases, and the per-node breakdowns
// must match node for node. It returns a description of the state on
// success.
func VerifyConsistency(ctx context.Context, base string) (string, error) {
	cl := NewClient(base)
	leases, err := cl.Leases(ctx, false)
	if err != nil {
		return "", err
	}
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		return "", err
	}
	inUse := SumSeries(metrics, "hetmemd_node_bytes_in_use")
	var leaseBytes uint64
	for _, b := range leases.NodeBytes {
		leaseBytes += b
	}
	if math.Abs(inUse-float64(leaseBytes)) > 0.5 {
		return "", fmt.Errorf("server: /metrics reports %.0f bytes in use, lease table holds %d", inUse, leaseBytes)
	}
	for node, b := range leases.NodeBytes {
		key := fmt.Sprintf("hetmemd_node_bytes_in_use{node=%q}", node)
		if got, ok := metrics[key]; !ok || math.Abs(got-float64(b)) > 0.5 {
			return "", fmt.Errorf("server: node %s: /metrics=%v, leases=%d", node, got, b)
		}
	}
	active := SumSeries(metrics, "hetmemd_leases_active")
	if int(active) != leases.Count {
		return "", fmt.Errorf("server: /metrics reports %d active leases, /leases reports %d", int(active), leases.Count)
	}
	// Per-tenant books: each tenant's lease-table bytes must equal the
	// sum of its hetmemd_tenant_bytes{tenant=...,kind=...} series. The
	// tenant label is always emitted first, so the prefix is exact.
	var tenantBytes uint64
	for name, b := range leases.TenantBytes {
		tenantBytes += b
		got := SumSeriesPrefix(metrics, fmt.Sprintf("hetmemd_tenant_bytes{tenant=%q", name))
		if math.Abs(got-float64(b)) > 0.5 {
			return "", fmt.Errorf("server: tenant %s: /metrics=%v bytes, leases=%d", name, got, b)
		}
	}
	if len(leases.TenantBytes) > 0 && tenantBytes != leaseBytes {
		return "", fmt.Errorf("server: tenant bytes sum to %d, lease table holds %d", tenantBytes, leaseBytes)
	}
	return fmt.Sprintf("consistent: %d leases, %d bytes across %d nodes, %d tenants", leases.Count, leaseBytes, len(leases.NodeBytes), len(leases.TenantBytes)), nil
}

// ServeTransport binds srv to a fresh ephemeral listener speaking the
// named transport ("" or "http", "uds", "tcp-bin") and serves it in
// the background. The returned base is ready for NewClient; stop
// shuts the listener down (the daemon itself is left to the caller).
// `hetmemd loadtest` and the tests use it to run the same workload
// over every transport.
func ServeTransport(srv *Server, transport string) (base string, stop func(), err error) {
	switch transport {
	case "", "http":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
	case "uds":
		dir, err := os.MkdirTemp("", "hetmemd-uds-")
		if err != nil {
			return "", nil, err
		}
		path := filepath.Join(dir, "hetmemd.sock")
		ln, err := net.Listen("unix", path)
		if err != nil {
			os.RemoveAll(dir)
			return "", nil, err
		}
		ws := wire.NewServer(srv.WireHandler(), srv.Metrics().TransportStats(TransportUDS))
		go ws.Serve(ln)
		return "unix://" + path, func() { ws.Close(); os.RemoveAll(dir) }, nil
	case "tcp-bin":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		ws := wire.NewServer(srv.WireHandler(), srv.Metrics().TransportStats(TransportTCPBin))
		go ws.Serve(ln)
		return "tcp+bin://" + ln.Addr().String(), func() { ws.Close() }, nil
	}
	return "", nil, fmt.Errorf("unknown transport %q (want http, uds, or tcp-bin)", transport)
}
