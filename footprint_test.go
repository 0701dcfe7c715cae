package hetmem

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hetmem/internal/bitmap"
	"hetmem/internal/cluster"
	"hetmem/internal/core"
	"hetmem/internal/memattr"
	"hetmem/internal/platform"
	"hetmem/internal/server"
	"hetmem/internal/wire"
)

var updateFootprint = flag.Bool("update-footprint", false, "rewrite FOOTPRINT.md with the measured footprint")

// footprintCell is one measured cell of the standing-footprint table:
// the live heap one unit of an object holds, and the most it may hold.
type footprintCell struct {
	object string
	units  int // how many units the cell was measured over
	per    float64
	pin    float64
}

// footprintPins holds each cell's bound in bytes per unit: the value
// measured when the cell was last pinned plus a headroom. The daemon
// lease and routed member rows carry an absolute 10 B (their run-to-run
// spread is about 8 B), so one word more in a lease or its buffer,
// which moves the record up a 16-byte size class, fails them; the
// other rows carry 15 %. A cell that grows past its pin fails the
// test; one that shrinks should have its pin lowered with it.
var footprintPins = map[string]float64{
	"daemon lease, no journal":               187, // 176-178 measured
	"daemon lease, journal":                  187, // 176-177
	"routed lease by batch, router":          171,
	"routed lease by batch, member":          188, // 172-180
	"routed lease by single alloc, router":   170,
	"routed lease by single alloc, member":   520, // 507-514
	"wire connection, client end":            12100,
	"wire connection, server end":            13300,
	"HTTP keep-alive connection, client end": 6320,
	"HTTP keep-alive connection, server end": 11000,
	"tenant":                                 625,
	"initiator intern slot":                  162,
	"candidate-cache slot":                   229,
	"idle daemon, fictitious":                78500,
	"idle daemon, homogeneous":               63500,
	"idle daemon, knl-quadrant-cache":        94400,
	"idle daemon, knl-snc4-flat":             109000,
	"idle daemon, knl-snc4-hybrid50":         120900,
	"idle daemon, power9-gpu":                68800,
	"idle daemon, rhea":                      105400,
	"idle daemon, xeon":                      74800,
	"idle daemon, xeon-2lm":                  72500,
	"idle daemon, xeon-quad":                 136100,
	"idle daemon, xeon-snc2":                 84400,
}

// TestFootprint measures what the service holds per standing object:
// each cell is the live heap per unit after two collections, taken
// over enough units to swamp the noise, and held to its pin. With
// -update-footprint it rewrites FOOTPRINT.md from the measurement.
func TestFootprint(t *testing.T) {
	var cells []footprintCell
	add := func(object string, units int, per float64) {
		cells = append(cells, footprintCell{object: object, units: units, per: per, pin: footprintPins[object]})
	}

	const leases = 8000
	add("daemon lease, no journal", leases, daemonLeaseFootprint(t, "", leases))
	add("daemon lease, journal", leases, daemonLeaseFootprint(t, filepath.Join(t.TempDir(), "wal"), leases))

	const routed = 4000
	router, member := routedFootprint(t, routed, true)
	add("routed lease by batch, router", routed, router)
	add("routed lease by batch, member", routed, member)
	router, member = routedFootprint(t, routed, false)
	add("routed lease by single alloc, router", routed, router)
	add("routed lease by single alloc, member", routed, member)

	const conns = 128
	client, srvEnd := connFootprint(t, "uds", conns)
	add("wire connection, client end", conns, client)
	add("wire connection, server end", conns, srvEnd)
	client, srvEnd = connFootprint(t, "http", conns)
	add("HTTP keep-alive connection, client end", conns, client)
	add("HTTP keep-alive connection, server end", conns, srvEnd)

	const slots = 1000
	add("tenant", slots, tenantFootprint(t, slots))
	add("initiator intern slot", slots, internSlotFootprint(t, slots))
	const localities = 800
	add("candidate-cache slot", localities, candidateSlotFootprint(t, localities))

	for _, plat := range platform.Names() {
		add("idle daemon, "+plat, 1, idleDaemonFootprint(t, plat))
	}

	for _, c := range cells {
		t.Logf("%-40s %9.0f B per unit over %d", c.object, c.per, c.units)
		if c.pin == 0 {
			t.Errorf("%s has no pin", c.object)
		} else if c.per > c.pin {
			t.Errorf("%s holds %.0f B per unit, want <= %.0f", c.object, c.per, c.pin)
		}
	}
	if *updateFootprint {
		writeFootprint(t, cells)
	}
}

// writeFootprint renders the table to FOOTPRINT.md beside this file.
func writeFootprint(t *testing.T, cells []footprintCell) {
	var b strings.Builder
	fmt.Fprintf(&b, "# Standing footprint\n\n")
	fmt.Fprintf(&b, "Live heap per unit of each object the service keeps standing, after\n")
	fmt.Fprintf(&b, "two collections, measured by `TestFootprint` (footprint_test.go) on\n")
	fmt.Fprintf(&b, "%s/%s with %s. Regenerate with\n", runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Fprintf(&b, "`go test -run 'TestFootprint$' -update-footprint .`; the test fails\n")
	fmt.Fprintf(&b, "when a cell grows past its pin. How each cell is taken is in the\n")
	fmt.Fprintf(&b, "test's helpers.\n\n")
	fmt.Fprintf(&b, "| object | units | B per unit | pin |\n|---|---:|---:|---:|\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "| %s | %d | %.0f | %.0f |\n", c.object, c.units, c.per, c.pin)
	}
	if err := os.WriteFile("FOOTPRINT.md", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// footprintHeap is the heap still reachable after two collections.
func footprintHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func newFootprintSystem(t *testing.T, plat string) *core.System {
	t.Helper()
	sys, err := core.NewSystem(plat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// batchOf returns n 1 MiB Bandwidth requests from "0-19", named from
// prefix and first, the way the benchmark sets up its standing leases.
func batchOf(prefix string, first, n int) []server.AllocRequest {
	reqs := make([]server.AllocRequest, n)
	for i := range reqs {
		reqs[i] = server.AllocRequest{Name: fmt.Sprintf("%s-%d", prefix, first+i), Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"}
	}
	return reqs
}

// placeBatches places n leases through allocBatch in batches of
// server.MaxBatchAllocs.
func placeBatches(t *testing.T, prefix string, n int, allocBatch func([]server.AllocRequest) (server.BatchAllocResponse, error)) {
	t.Helper()
	for done := 0; done < n; {
		k := min(server.MaxBatchAllocs, n-done)
		resp, err := allocBatch(batchOf(prefix, done, k))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Failed > 0 {
			t.Fatalf("%d of %d allocations refused", resp.Failed, k)
		}
		done += k
	}
}

// daemonLeaseFootprint is TestLeaseFootprint's cell: a daemon on xeon
// behind its unix socket, leases placed by batch through the binary
// transport, with a journal at wal unless it is empty.
func daemonLeaseFootprint(t *testing.T, wal string, n int) float64 {
	srv, err := server.NewWithConfig(newFootprintSystem(t, "xeon"), server.Config{JournalPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base, stop, err := server.ServeTransport(srv, "uds")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cl := server.NewClient(base, server.WithRetryPolicy(server.NoRetry), server.WithoutHeartbeat())
	defer cl.Close()
	ctx := context.Background()
	allocBatch := func(reqs []server.AllocRequest) (server.BatchAllocResponse, error) { return cl.AllocBatch(ctx, reqs) }
	placeBatches(t, "warm", 1024, allocBatch) // dial, warm the pools, grow the maps past their first buckets
	before := footprintHeap()
	placeBatches(t, "standing", n, allocBatch)
	return (footprintHeap() - before) / float64(n)
}

// routedFootprint splits a routed lease between a router and its one
// member (xeon, over HTTP). The router's share is the heap a closed
// router frees, over and above what an identical router with no
// standing leases frees; the member's is the rest of the heap the
// leases added. Single allocs are keyed on the member by the router's
// member client, so the member also keeps an idempotency entry.
func routedFootprint(t *testing.T, n int, batch bool) (router, member float64) {
	_, idle := routedHeap(t, 0, batch)
	total, freed := routedHeap(t, n, batch)
	router = (freed - idle) / float64(n)
	return router, total/float64(n) - router
}

// routedHeap places n routed leases after a warm-up and returns the
// heap they added and the heap closing the router then freed.
func routedHeap(t *testing.T, n int, batch bool) (added, freed float64) {
	srv := server.New(newFootprintSystem(t, "xeon"))
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	rt, err := cluster.New(cluster.Config{Members: []cluster.MemberSpec{{Name: "m0", URL: hs.URL}}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	place := func(prefix string, n int) {
		if batch {
			placeBatches(t, prefix, n, func(reqs []server.AllocRequest) (server.BatchAllocResponse, error) { return rt.AllocBatch(ctx, reqs) })
			return
		}
		for _, req := range batchOf(prefix, 0, n) {
			if _, err := rt.Alloc(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	place("warm", 256)
	before := footprintHeap()
	place("standing", n)
	mid := footprintHeap()
	rt.Close()
	rt = nil
	return mid - before, mid - footprintHeap()
}

// connFootprint splits an idle connection of transport ("uds" for the
// binary protocol, "http") between its ends. The server end is the
// heap of n raw connections that each made one request, less the raw
// client socket; the client end is the heap of n Clients that each
// made one request, less the server end.
func connFootprint(t *testing.T, transport string, n int) (client, serverEnd float64) {
	srv := server.New(newFootprintSystem(t, "xeon"))
	defer srv.Close()
	base, stop, err := server.ServeTransport(srv, transport)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	network, addr := "unix", strings.TrimPrefix(base, "unix://")
	if transport == "http" {
		network, addr = "tcp", strings.TrimPrefix(base, "http://")
	}
	ctx := context.Background()

	rawSocket := rawPairHeap(t, network, n) / 2

	// Nothing is closed until every phase is measured: a server end
	// winding down would free heap inside a later phase.
	var raw []net.Conn
	var clients []*server.Client
	defer func() {
		for _, c := range raw {
			c.Close()
		}
		for _, cl := range clients {
			cl.Close()
		}
	}()
	before := footprintHeap()
	for range n {
		c, err := net.Dial(network, addr)
		if err != nil {
			t.Fatal(err)
		}
		rawRequest(t, c, transport)
		raw = append(raw, c)
	}
	serverEnd = (footprintHeap()-before)/float64(n) - rawSocket

	before = footprintHeap()
	for range n {
		cl := server.NewClient(base, server.WithRetryPolicy(server.NoRetry), server.WithoutHeartbeat())
		if _, err := cl.Health(ctx); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	both := (footprintHeap() - before) / float64(n)
	return both - serverEnd, serverEnd
}

// rawPairHeap is the heap of n bare connected socket pairs.
func rawPairHeap(t *testing.T, network string, n int) float64 {
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(t.TempDir(), "pair.sock")
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, n)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	var conns []net.Conn
	before := footprintHeap()
	for range n {
		c, err := net.Dial(network, ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c, <-accepted)
	}
	per := (footprintHeap() - before) / float64(n)
	for _, c := range conns {
		c.Close()
	}
	return per
}

// rawRequest sends one health request on c in the transport's framing
// and reads the whole answer, leaving the connection idle.
func rawRequest(t *testing.T, c net.Conn, transport string) {
	t.Helper()
	if transport == "http" {
		if _, err := io.WriteString(c, "GET /v1/health HTTP/1.1\r\nHost: footprint\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return
	}
	frame, err := wire.AppendRequest(nil, wire.OpHealth, 1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, c, int64(binary.LittleEndian.Uint32(hdr[:4]))); err != nil {
		t.Fatal(err)
	}
}

// tenantFootprint is what a daemon keeps for a tenant that has held
// one lease: its registry entry and its row in the lease books.
func tenantFootprint(t *testing.T, n int) float64 {
	srv := server.New(newFootprintSystem(t, "xeon"))
	defer srv.Close()
	churn := func(prefix string, n int) {
		for i := range n {
			ctx := server.ContextWithTenant(context.Background(), fmt.Sprintf("%s-%d", prefix, i))
			a, err := srv.Alloc(ctx, server.AllocRequest{Name: "t", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Free(ctx, server.FreeRequest{Lease: a.Lease}); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn("warm", 64)
	before := footprintHeap()
	churn("tenant", n)
	return (footprintHeap() - before) / float64(n)
}

// oneOffList is the i-th of a stream of distinct sparse xeon cpuset
// lists (i < 64 000).
func oneOffList(i int) string {
	return fmt.Sprintf("%d,%d,%d", i%40, 40+i/40%40, i/1600)
}

// internSlotFootprint is what a daemon keeps for a cpuset list it has
// seen once: its intern table entry. The allocator's candidate cache
// keeps nothing for it, for the list's locality is one of a handful
// the cache already holds.
func internSlotFootprint(t *testing.T, n int) float64 {
	srv := server.New(newFootprintSystem(t, "xeon"))
	defer srv.Close()
	ctx := context.Background()
	churn := func(first, n int) {
		for i := first; i < first+n; i++ {
			a, err := srv.Alloc(ctx, server.AllocRequest{Name: "i", Size: 1 << 20, Attr: "Bandwidth", Initiator: oneOffList(i)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Free(ctx, server.FreeRequest{Lease: a.Lease}); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(0, 16)
	before := footprintHeap()
	churn(16, n)
	return (footprintHeap() - before) / float64(n)
}

// localityProbe is the i-th of xeon's distinct pairs of attribute and
// locality (i < 880): Bandwidth, then Latency, from the first w0 PUs
// of package 0 and the first w1 of package 1, for every (w0, w1) in
// 0..20 but (0, 0). Each overlaps the two packages differently, so no
// two pairs share a cache slot.
func localityProbe(i int) (memattr.ID, *bitmap.Bitmap) {
	attr := memattr.Bandwidth
	if i >= 440 {
		attr, i = memattr.Latency, i-440
	}
	i++ // (0, 0) is the empty set
	ini := bitmap.New()
	for pu := range i % 21 {
		ini.Set(pu)
	}
	for pu := range i / 21 {
		ini.Set(20 + pu)
	}
	return attr, ini
}

// candidateSlotFootprint is one ranking in the allocator's candidate
// cache: a slot per distinct locality.
func candidateSlotFootprint(t *testing.T, n int) float64 {
	sys := newFootprintSystem(t, "xeon")
	rank := func(first, n int) {
		for i := first; i < first+n; i++ {
			attr, ini := localityProbe(i)
			if _, _, _, err := sys.Allocator.Candidates(attr, ini, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	rank(0, 16)
	before := footprintHeap()
	rank(16, n)
	per := (footprintHeap() - before) / float64(n)
	if hits, misses := sys.Allocator.CacheStats(); hits != 0 || misses != uint64(16+n) {
		t.Fatalf("%d localities ranked with %d hits and %d misses: they are not distinct", 16+n, hits, misses)
	}
	return per
}

// idleDaemonFootprint is a daemon on plat as `hetmemd serve` starts
// one, discovery included, before its first request.
func idleDaemonFootprint(t *testing.T, plat string) float64 {
	before := footprintHeap()
	srv, err := server.NewWithConfig(newFootprintSystem(t, plat), server.Config{AdvisorInterval: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	per := footprintHeap() - before
	srv.Close()
	return per
}
