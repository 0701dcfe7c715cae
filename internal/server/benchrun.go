package server

// The self-hosted allocation benchmark behind `hetmemd bench` and the
// BenchmarkServerAlloc* variants: boot an in-process daemon with a
// given Config, drive N concurrent clients through alloc/free round
// trips, and report throughput, latency percentiles, and the
// ranked-candidate cache hit rate. Comparing a run with
// SyncEveryAppend + DisableCandidateCache (the pre-fast-path daemon)
// against one with GroupCommit + the cache is the PR's acceptance
// measurement.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/wire"
)

// BenchOptions configures one RunAllocBench run.
type BenchOptions struct {
	// Platform names the simulated machine (default "xeon").
	Platform string
	// Clients is the number of concurrent client goroutines
	// (default 32).
	Clients int
	// Requests is the alloc/free round trips per client (default 200).
	Requests int
	// SizeBytes is the per-allocation size (default 1 MiB).
	SizeBytes uint64
	// Batch > 1 allocates through /v1/alloc/batch in groups of this
	// many items per round trip (each still freed individually).
	Batch int
	// Transport selects how the clients reach the daemon: "" or
	// "http" (HTTP/1.1), "uds" (binary protocol over a unix socket),
	// or "tcp-bin" (binary protocol over multiplexed TCP
	// connections).
	Transport string
	// Server is the daemon configuration under test.
	Server Config
}

func (o *BenchOptions) defaults() {
	if o.Platform == "" {
		o.Platform = "xeon"
	}
	if o.Clients <= 0 {
		o.Clients = 32
	}
	if o.Requests <= 0 {
		o.Requests = 200
	}
	if o.SizeBytes == 0 {
		o.SizeBytes = 1 << 20
	}
}

// BenchReport is the BENCH_alloc.json artifact: every configuration's
// result plus the headline fast/baseline speedup.
type BenchReport struct {
	Benchmark string        `json:"benchmark"`
	Platform  string        `json:"platform"`
	Clients   int           `json:"clients"`
	Results   []BenchResult `json:"results"`
	// Speedup is Results[1] ("fast") over Results[0] ("baseline") in
	// allocs/sec.
	Speedup float64 `json:"speedup,omitempty"`
	// Restart is the journal-recovery benchmark (sequential vs
	// parallel replay), when the bench ran it.
	Restart *RestartBenchResult `json:"restart,omitempty"`
}

// BenchResult is one configuration's measurement, JSON-ready for
// BENCH_alloc.json.
type BenchResult struct {
	Name string `json:"name"`
	// Transport is the client transport of the run ("http" when
	// empty; "uds" and "tcp-bin" are the binary wire protocol).
	Transport    string  `json:"transport,omitempty"`
	Clients      int     `json:"clients"`
	Allocs       int     `json:"allocs"`
	Seconds      float64 `json:"seconds"`
	AllocsPerSec float64 `json:"allocs_per_sec"`
	// P50Micros and P99Micros are percentiles of the client-observed
	// per-allocation latency. For batch runs each sample is the batch
	// round trip amortized over its items, so the column stays
	// comparable across batched and unbatched configurations; the raw
	// whole-batch round trip is reported separately below.
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	// BatchSize is the items per round trip of a batch run, and
	// P50BatchMicros/P99BatchMicros are percentiles of the whole-batch
	// round-trip latency — what one caller actually waits for. All
	// zero for single-alloc runs.
	BatchSize      int     `json:"batch_size,omitempty"`
	P50BatchMicros float64 `json:"p50_batch_micros,omitempty"`
	P99BatchMicros float64 `json:"p99_batch_micros,omitempty"`
	// CacheHitRate is hits/(hits+misses) of the ranked-candidate cache
	// over the run (0 when the cache is disabled).
	CacheHitRate float64 `json:"cache_hit_rate"`
}

func (r BenchResult) String() string {
	s := fmt.Sprintf("%-14s %d clients: %8.0f allocs/s  p50 %6.0fµs  p99 %7.0fµs  cache %3.0f%%",
		r.Name, r.Clients, r.AllocsPerSec, r.P50Micros, r.P99Micros, 100*r.CacheHitRate)
	if r.BatchSize > 0 {
		s += fmt.Sprintf("  (amortized over %d-item batches; whole batch p50 %.0fµs p99 %.0fµs)",
			r.BatchSize, r.P50BatchMicros, r.P99BatchMicros)
	}
	return s
}

// RunAllocBench boots a daemon with opts.Server, saturates it with
// opts.Clients concurrent allocators, and measures the hot path.
func RunAllocBench(ctx context.Context, name string, opts BenchOptions) (BenchResult, error) {
	opts.defaults()
	sys, err := core.NewSystem(opts.Platform, core.Options{})
	if err != nil {
		return BenchResult{}, err
	}
	srv, err := NewWithConfig(sys, opts.Server)
	if err != nil {
		return BenchResult{}, err
	}
	defer srv.Close()
	base, stopListen, err := ServeTransport(srv, opts.Transport)
	if err != nil {
		return BenchResult{}, err
	}
	defer stopListen()

	// The binary transports' deployment model is ONE Client carrying
	// every caller's requests over its few persistent multiplexed
	// connections — that is what the request IDs and the group-commit
	// write coalescing exist for — so the bench shares a single Client
	// across the goroutines.
	// HTTP keeps a client per goroutine (its deployment model is pooled
	// connections), matching the earlier bench rows.
	var shared *Client
	if opts.Transport == "uds" || opts.Transport == "tcp-bin" {
		shared = NewClient(base, WithRetryPolicy(NoRetry), WithoutHeartbeat())
		defer shared.Close()
	}

	hits0, misses0 := sys.Allocator.CacheStats()
	lat := make([][]time.Duration, opts.Clients)
	blat := make([][]time.Duration, opts.Clients)
	errs := make([]error, opts.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Benchmark the request path, not the retry machinery or the
			// background heartbeater.
			cl := shared
			if cl == nil {
				cl = NewClient(base, WithRetryPolicy(NoRetry), WithoutHeartbeat())
			}
			req := AllocRequest{
				Name: "bench", Size: opts.SizeBytes, Attr: "Bandwidth", Initiator: "0-19",
			}
			if opts.Batch > 1 {
				errs[c] = benchClientBatch(ctx, cl, req, opts, &lat[c], &blat[c])
			} else {
				errs[c] = benchClient(ctx, cl, req, opts, &lat[c])
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return BenchResult{}, err
		}
	}
	hits1, misses1 := sys.Allocator.CacheStats()

	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	allocs := opts.Clients * opts.Requests
	res := BenchResult{
		Name:         name,
		Transport:    opts.Transport,
		Clients:      opts.Clients,
		Allocs:       allocs,
		Seconds:      elapsed.Seconds(),
		AllocsPerSec: float64(allocs) / elapsed.Seconds(),
		P50Micros:    percentileMicros(all, 0.50),
		P99Micros:    percentileMicros(all, 0.99),
	}
	if lookups := (hits1 - hits0) + (misses1 - misses0); lookups > 0 {
		res.CacheHitRate = float64(hits1-hits0) / float64(lookups)
	}
	if opts.Batch > 1 {
		var batches []time.Duration
		for _, l := range blat {
			batches = append(batches, l...)
		}
		sort.Slice(batches, func(i, j int) bool { return batches[i] < batches[j] })
		res.BatchSize = opts.Batch
		res.P50BatchMicros = percentileMicros(batches, 0.50)
		res.P99BatchMicros = percentileMicros(batches, 0.99)
	}
	return res, nil
}

// ServeTransport binds srv to a fresh ephemeral listener speaking the
// named transport ("" or "http", "uds", "tcp-bin") and serves it in
// the background. The returned base is ready for NewClient; stop
// shuts the listener down (the daemon itself is left to the caller).
// The bench and loadtest harnesses use it to run the same workload
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

// benchClient runs one client's alloc/free round trips, recording each
// alloc's latency.
func benchClient(ctx context.Context, cl *Client, req AllocRequest, opts BenchOptions, lat *[]time.Duration) error {
	for i := 0; i < opts.Requests; i++ {
		t0 := time.Now()
		resp, err := cl.Alloc(ctx, req)
		if err != nil {
			return fmt.Errorf("bench client: alloc %d: %w", i, err)
		}
		*lat = append(*lat, time.Since(t0))
		if err := cl.Free(ctx, resp.Lease); err != nil {
			return fmt.Errorf("bench client: free %d: %w", i, err)
		}
	}
	return nil
}

// benchClientBatch is benchClient through /v1/alloc/batch: opts.Batch
// items per round trip. Each round trip lands twice: whole in blat,
// and amortized over its items in lat — dividing the batch round trip
// by its size is what makes the per-item columns comparable to the
// unbatched runs instead of silently reporting N allocations' worth
// of work as one "allocation latency".
func benchClientBatch(ctx context.Context, cl *Client, req AllocRequest, opts BenchOptions, lat, blat *[]time.Duration) error {
	reqs := make([]AllocRequest, opts.Batch)
	for i := range reqs {
		reqs[i] = req
	}
	for done := 0; done < opts.Requests; done += opts.Batch {
		n := opts.Batch
		if left := opts.Requests - done; left < n {
			n = left
		}
		t0 := time.Now()
		resp, err := cl.AllocBatch(ctx, reqs[:n])
		if err != nil {
			return fmt.Errorf("bench client: batch at %d: %w", done, err)
		}
		d := time.Since(t0)
		*blat = append(*blat, d)
		*lat = append(*lat, d/time.Duration(n))
		for _, it := range resp.Results {
			if it.Error != nil {
				return fmt.Errorf("bench client: batch item: %s: %s", it.Error.Code, it.Error.Message)
			}
			if err := cl.Free(ctx, it.Alloc.Lease); err != nil {
				return fmt.Errorf("bench client: batch free: %w", err)
			}
		}
	}
	return nil
}

// MedianResult picks the median-throughput trial from repeated runs of
// one configuration. fsync latency on shared or virtualized disks
// swings 2-3x between runs; the median trial is what the report should
// carry, not whichever run the disk happened to smile on.
func MedianResult(trials []BenchResult) BenchResult {
	if len(trials) == 0 {
		return BenchResult{}
	}
	sorted := make([]BenchResult, len(trials))
	copy(sorted, trials)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].AllocsPerSec < sorted[j].AllocsPerSec
	})
	return sorted[len(sorted)/2]
}

// percentileMicros reads the p'th percentile (0..1) of a sorted latency
// slice, in microseconds.
func percentileMicros(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Microsecond)
}
