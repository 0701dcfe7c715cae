package main

// The closed-loop load: C client goroutines, each issuing its next
// request only when the previous one has returned — an HPC caller
// blocks on mem_alloc. Latency is timed in the client goroutine around
// the server.Client call.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hetmem/internal/server"
)

type client struct {
	idx    int
	cl     *server.Client
	gen    *generator
	tr     *tracer
	window []uint64 // leases held, oldest first on the fixed cycle
	seq    uint64
	reqs   [batchItems]server.AllocRequest

	lat       [nOpKinds][]int64 // ns, while recording
	attempted uint64
	failed    uint64
	firstErr  error
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// run issues ops until the deadline and returns how many completed.
func (c *client) run(ctx context.Context, until time.Time, record bool) uint64 {
	var done uint64
	for time.Now().Before(until) {
		o := c.gen.next(len(c.window))
		c.seq++
		id := uint64(c.idx+1)<<40 | c.seq
		c.attempted++
		d, err := c.do(ctx, o, id)
		if err != nil {
			c.fail(fmt.Errorf("client %d %s: %w", c.idx, o.kind, err))
			continue
		}
		done++
		if record {
			c.lat[o.kind] = append(c.lat[o.kind], int64(d))
		}
	}
	return done
}

func (c *client) do(ctx context.Context, o op, id uint64) (time.Duration, error) {
	switch o.kind {
	case opAlloc:
		a := o.allocs[0]
		req := server.AllocRequest{Name: bufferName(id, 0, o.salt), Size: a.size, Attr: a.attr, Initiator: a.initiator, Remote: a.remote}
		start := time.Now()
		resp, err := c.cl.Alloc(ctx, req)
		d := time.Since(start)
		if c.tr.on() {
			c.tr.add(span{layer: layerClient, id: id, member: -1, start: int64(start.Sub(c.tr.epoch))})
		}
		if err != nil {
			return d, err
		}
		c.window = append(c.window, resp.Lease)
		return d, nil

	case opBatch:
		reqs := c.reqs[:len(o.allocs)]
		for i, a := range o.allocs {
			reqs[i] = server.AllocRequest{Name: bufferName(id, i, o.salt), Size: a.size, Attr: a.attr, Initiator: a.initiator, Remote: a.remote}
		}
		start := time.Now()
		resp, err := c.cl.AllocBatch(ctx, reqs)
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		for _, item := range resp.Results {
			if item.Alloc != nil {
				c.window = append(c.window, item.Alloc.Lease)
			} else if err == nil {
				err = fmt.Errorf("batch item refused: %s", item.Error.Message)
			}
		}
		return d, err
	}

	var lease uint64 // 0 for the requests that name none
	if o.kind.onLease() {
		if o.slot >= len(c.window) {
			return 0, errors.New("generator picked a lease the client does not hold")
		}
		lease = c.window[o.slot]
	}
	var err error
	start := time.Now()
	switch o.kind {
	case opFree:
		err = c.cl.Free(ctx, lease)
	case opRenew:
		_, err = c.cl.Renew(ctx, lease, 0)
	case opMigrate:
		_, err = c.cl.Migrate(ctx, server.MigrateRequest{Lease: lease, Attr: o.allocs[0].attr})
	case opRead:
		_, err = c.cl.LeaseDetail(ctx, lease)
	case opScan:
		_, err = c.cl.Leases(ctx, false)
	case opMetrics:
		_, err = c.cl.MetricsRaw(ctx)
	case opAttrs:
		_, err = c.cl.Attrs(ctx)
	}
	d := time.Since(start)
	if o.kind == opFree {
		// Drop the lease either way: a free that failed is reported once,
		// and a lease it left behind fails the gate after the repetition.
		c.unhold(o.slot)
	}
	return d, err
}

// unhold removes a window slot. The fixed cycle frees its oldest lease
// and keeps the rest in order; the mix picks slots at random, so order
// does not matter there.
func (c *client) unhold(slot int) {
	if c.gen.wl.mix == nil {
		copy(c.window[slot:], c.window[slot+1:])
	} else {
		c.window[slot] = c.window[len(c.window)-1]
	}
	c.window = c.window[:len(c.window)-1]
}

// drain frees everything the client still holds.
func (c *client) drain(ctx context.Context) {
	for _, lease := range c.window {
		c.attempted++
		if err := c.cl.Free(ctx, lease); err != nil {
			c.fail(fmt.Errorf("client %d drain: %w", c.idx, err))
		}
	}
	c.window = c.window[:0]
}

// counters is a snapshot of every count the per-layer table is built
// from. runtime is filled only when asked for: ReadMemStats stops the
// world, so the end-to-end runs never call it around a measurement.
type counters struct {
	cacheHits, cacheMisses      uint64
	allocs, fallbacks           uint64
	memberRequests              uint64
	checkpoints, journalRecords uint64
	wireRx, wireTx, wireReqs    uint64
	fs                          fsCounts
	mallocs, gcPauseNs, cpuNs   uint64
}

func (st *stack) counters(withRuntime bool) counters {
	var c counters
	for _, srv := range st.servers {
		h, m := srv.System().Allocator.CacheStats()
		c.cacheHits += h
		c.cacheMisses += m
		ms := srv.Metrics()
		c.allocs += ms.AllocTotal.Load()
		c.fallbacks += ms.FallbackTotal.Load()
		c.checkpoints += ms.CheckpointTotal.Load()
		c.journalRecords += ms.JournalRecords.Load()
		if st.router != nil {
			c.memberRequests += ms.TransportStats(server.TransportHTTP).Requests.Load()
		}
	}
	if st.front != nil {
		c.wireRx, c.wireTx, c.wireReqs = st.front.BytesRx.Load(), st.front.BytesTx.Load(), st.front.Requests.Load()
	}
	c.fs = st.fs.counts()
	if withRuntime {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.mallocs, c.gcPauseNs = ms.Mallocs, ms.PauseTotalNs
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			c.cpuNs = uint64(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return c
}

// repetition is what one measured repetition produced.
type repetition struct {
	elapsed time.Duration
	ops     uint64
	lat     [nOpKinds][]int64 // sorted
	before  counters
	after   counters
	// heapBefore and heapAfter are the live heap around the measured
	// phase, taken only with the runtime counters.
	heapBefore, heapAfter float64
}

// runner drives one booted stack with C closed-loop clients.
type runner struct {
	st      *stack
	clients []*client
	cls     []*server.Client
	want    books // the standing population's books
}

func newRunner(st *stack, seed int64, nClients int, tr *tracer) *runner {
	r := &runner{st: st, cls: st.dial(nClients)}
	for i, cl := range r.cls {
		r.clients = append(r.clients, &client{idx: i, cl: cl, gen: newGenerator(st.wl, seed, i), tr: tr})
	}
	return r
}

func (r *runner) each(f func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// repeat runs one repetition: an untimed warm-up, the measured phase,
// then the clients free their windows and the correctness gate checks
// the books are back to the standing population.
func (r *runner) repeat(ctx context.Context, warm, measure time.Duration, traced, withRuntime bool) (repetition, error) {
	var rep repetition
	until := time.Now().Add(warm)
	r.each(func(c *client) { c.run(ctx, until, false) })

	tr := r.clients[0].tr
	if traced {
		tr.enabled.Store(true)
	}
	if withRuntime {
		rep.heapBefore = liveHeapMB()
	}
	rep.before = r.st.counters(withRuntime)
	start := time.Now()
	until = start.Add(measure)
	var ops atomic.Uint64
	r.each(func(c *client) { ops.Add(c.run(ctx, until, true)) })
	rep.elapsed, rep.ops = time.Since(start), ops.Load()
	rep.after = r.st.counters(withRuntime)
	if withRuntime {
		rep.heapAfter = liveHeapMB()
	}
	if traced {
		tr.enabled.Store(false)
	}

	for k := range rep.lat {
		for _, c := range r.clients {
			rep.lat[k] = append(rep.lat[k], c.lat[k]...)
			c.lat[k] = nil
		}
		slices.Sort(rep.lat[k])
	}
	r.each(func(c *client) { c.drain(ctx) })
	if err := r.st.verify(ctx, r.cls[0], r.want); err != nil {
		return rep, fmt.Errorf("gate after repetition: %w", err)
	}
	return rep, nil
}

// liveHeapMB is the bytes of live heap objects (HeapAlloc after a
// forced collection), in MiB. HeapInuse would add the free room in
// partly used spans, which depends on what the process held before: a
// set-up after a 100 MiB repetition read 21 MiB where the first read 11.
// The whole process is measured: the daemon and the benchmark's clients
// share it.
func liveHeapMB() float64 {
	// Twice: what a torn-down service left in a sync.Pool or behind a
	// finalizer survives the first collection (one repetition in ten
	// read 6.2 MiB where the others read 4.0).
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (r *runner) totals() (attempted, failed uint64, firstErr error) {
	for _, c := range r.clients {
		attempted += c.attempted
		failed += c.failed
		if firstErr == nil {
			firstErr = c.firstErr
		}
	}
	return
}

// populate creates the standing population through the clients, in
// batches, and records the books the gates compare against.
func (r *runner) populate(ctx context.Context, seed int64) error {
	wl := r.st.wl
	rng := rand.New(rand.NewSource(seed - 1))
	reqs := make([]server.AllocRequest, 0, server.MaxBatchAllocs)
	for made := 0; made < wl.standing; {
		reqs = reqs[:0]
		for len(reqs) < server.MaxBatchAllocs && made < wl.standing {
			a := allocSpec{size: 1 << 20, attr: "Bandwidth", initiator: wl.initiator}
			if wl.mix != nil {
				a = mixedAlloc(rng)
			}
			reqs = append(reqs, server.AllocRequest{
				Name: fmt.Sprintf("s%d-%x", made, rng.Uint32()), Size: a.size, Attr: a.attr, Initiator: a.initiator, Remote: a.remote,
			})
			made++
		}
		resp, err := r.cls[(made/server.MaxBatchAllocs)%len(r.cls)].AllocBatch(ctx, reqs)
		if err != nil {
			return fmt.Errorf("standing population: %w", err)
		}
		if resp.Failed > 0 {
			return fmt.Errorf("standing population: %d of %d allocations refused", resp.Failed, len(reqs))
		}
	}
	var err error
	r.want, err = r.st.books(ctx, r.cls[0])
	if err != nil {
		return err
	}
	if r.want.front.Count != wl.standing {
		return fmt.Errorf("standing population: %d leases, want %d", r.want.front.Count, wl.standing)
	}
	return nil
}

// percentile is the nearest-rank q-quantile of sorted, in microseconds.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
