package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/wire"
)

// TestWireRouteTable holds the route table to what it promises: one row
// per op, each call counted once under its row's endpoint whatever the
// transport, and every row's pattern answered with a v1 envelope.
func TestWireRouteTable(t *testing.T) {
	t.Run("one_row_per_op", func(t *testing.T) {
		if routes[0] != (route{}) {
			t.Errorf("op 0 has a row: %+v", routes[0])
		}
		seen := make(map[string]wire.Op)
		for op := wire.OpTopology; op < numOps; op++ {
			rt := routes[op]
			if rt.method == "" || !strings.HasPrefix(rt.path, "/v1/") {
				t.Errorf("op %d has no row: %+v", op, rt)
				continue
			}
			line := rt.method + " " + rt.path
			if prev, dup := seen[line]; dup {
				t.Errorf("%s names op %d and op %d", line, prev, op)
			}
			seen[line] = op
			// The HTTP-only ops must stay off the binary protocol.
			if op.Valid() != (op <= wire.OpMetrics) {
				t.Errorf("op %d (%s): wire.Op.Valid() = %v", op, line, op.Valid())
			}
		}
	})

	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(sys, Config{AdvisorInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	t.Run("one_count_per_call", func(t *testing.T) {
		ctx := context.Background()
		for _, transport := range []string{"http", "uds"} {
			base, stop, err := ServeTransport(srv, transport)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			cl := NewClient(base, WithRetryPolicy(NoRetry), WithoutHeartbeat())
			defer cl.Close()
			var lease uint64
			// Each call names the endpoint it must count under, apart from
			// the table.
			for _, c := range []struct {
				op   wire.Op
				ep   string
				call func() error
			}{
				{wire.OpTopology, "topology", func() error { _, err := cl.Topology(ctx); return err }},
				{wire.OpAttrs, "attrs", func() error { _, err := cl.Attrs(ctx); return err }},
				{wire.OpAlloc, "alloc", func() error {
					resp, err := cl.Alloc(ctx, AllocRequest{Name: "route", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"})
					lease = resp.Lease
					return err
				}},
				{wire.OpAllocBatch, "alloc_batch", func() error {
					_, err := cl.AllocBatch(ctx, []AllocRequest{{Name: "route-batch", Size: 1 << 20, Attr: "Capacity"}})
					return err
				}},
				{wire.OpRenew, "renew", func() error { _, err := cl.Renew(ctx, lease, 0); return err }},
				{wire.OpMigrate, "migrate", func() error {
					_, err := cl.Migrate(ctx, MigrateRequest{Lease: lease, Attr: "Capacity", Initiator: "0-19"})
					return err
				}},
				{wire.OpLeases, "leases", func() error { _, err := cl.Leases(ctx, false); return err }},
				{wire.OpLeaseList, "leases", func() error { _, err := cl.Leases(ctx, true); return err }},
				{wire.OpLeaseDetail, "lease_detail", func() error { _, err := cl.LeaseDetail(ctx, lease); return err }},
				{wire.OpHealth, "health", func() error { _, err := cl.Health(ctx); return err }},
				{wire.OpMetrics, "metrics", func() error { _, err := cl.MetricsRaw(ctx); return err }},
				{wire.OpFree, "free", func() error { return cl.Free(ctx, lease) }},
				{opAdvisor, "advisor", func() error { _, err := cl.Advisor(ctx); return err }},
				{opAdvisorPause, "advisor", func() error { return cl.AdvisorPause(ctx) }},
				{opAdvisorResume, "advisor", func() error { return cl.AdvisorResume(ctx) }},
			} {
				rt := routes[c.op]
				if endpointNames[rt.ep] != c.ep {
					t.Errorf("%s %s counts under %q, want %q", rt.method, rt.path, endpointNames[rt.ep], c.ep)
				}
				before := requestCounts(srv.Metrics())
				err := c.call()
				// An HTTP-only op fails on a binary base before anything
				// is sent, so nothing is counted.
				want := uint64(1)
				if transport != "http" && !c.op.Valid() {
					if err == nil || !strings.Contains(err.Error(), "binary transport") {
						t.Errorf("%s %s over %s: want the binary-transport error, got %v", rt.method, rt.path, transport, err)
					}
					want = 0
				} else if err != nil {
					t.Errorf("%s %s over %s: %v", rt.method, rt.path, transport, err)
				}
				// The HTTP handler counts after its Write, so the
				// response can arrive first.
				var after [numEndpoints]uint64
				for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
					after = requestCounts(srv.Metrics())
					if after[rt.ep]-before[rt.ep] >= want || time.Now().After(deadline) {
						break
					}
				}
				for ep := range after {
					exp := uint64(0)
					if endpoint(ep) == rt.ep {
						exp = want
					}
					if got := after[ep] - before[ep]; got != exp {
						t.Errorf("%s %s over %s: endpoint %q counted %d, want %d", rt.method, rt.path, transport, endpointNames[ep], got, exp)
					}
				}
			}
		}
	})

	// A backend without the optional extensions answers their routes
	// with an error envelope too.
	t.Run("v1_envelope_on_every_pattern", func(t *testing.T) {
		for name, h := range map[string]http.Handler{
			"server":    srv.Handler(),
			"core only": NewAPI(struct{ Backend }{srv}, APIOptions{}).Handler(),
		} {
			for op := wire.OpTopology; op < numOps; op++ {
				rt := routes[op]
				target := string(rt.appendTarget(nil, 4242))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(rt.method, target, nil))
				if rec.Code == http.StatusOK {
					continue
				}
				var eb ErrorBody
				if err := decodeStrict(rec.Body.Bytes(), &eb); err != nil || eb.Code == "" {
					t.Errorf("%s: %s %s answered %d %q, want a v1 envelope", name, rt.method, target, rec.Code, rec.Body.String())
				}
			}
		}
	})
}

// requestCounts snapshots every endpoint's request counter.
func requestCounts(m *Metrics) (n [numEndpoints]uint64) {
	for i := range n {
		n[i] = m.requests[i].Load()
	}
	return n
}
