package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hetmem/internal/core"
	"hetmem/internal/server"
)

// leasesOf reads /leases?list=1 straight off a server's handler (no
// network), so a crashed-but-in-memory daemon can still be audited.
func leasesOf(t *testing.T, srv *server.Server) server.LeasesResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/leases?list=1", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v1/leases: %d %s", rec.Code, rec.Body.String())
	}
	var out server.LeasesResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCrashRecoveryMidStream kills the daemon's HTTP frontend while 32
// clients are mid-request, then restarts a fresh daemon from the
// journal and requires its lease table and per-node byte accounting to
// match the crashed instance's in-memory state exactly — the journal
// is written before a lease becomes visible, so nothing a client could
// have observed is ever lost.
func TestCrashRecoveryMidStream(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal")
	srv, err := server.NewWithConfig(sys, server.Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	ctx := context.Background()
	var wg sync.WaitGroup
	stop, built := make(chan struct{}), make(chan struct{})
	var done atomic.Uint64
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := server.NewClient(ts.URL, server.WithRetryPolicy(server.NoRetry))
			var leases []uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Mixed traffic; errors after the kill are expected and
				// irrelevant — consistency is what's under test.
				switch i % 4 {
				case 0, 1:
					resp, err := cl.Alloc(ctx, server.AllocRequest{
						Name: fmt.Sprintf("c%d-%d", id, i), Size: 8 << 20,
						Attr: attrFor(id + i), Partial: true, Remote: true,
					})
					if err == nil {
						leases = append(leases, resp.Lease)
					}
				case 2:
					if len(leases) > 0 {
						if cl.Free(ctx, leases[0]) == nil {
							leases = leases[1:]
						}
					}
				default:
					if len(leases) > 0 {
						cl.Migrate(ctx, server.MigrateRequest{
							Lease: leases[0], Attr: attrFor(i), Remote: true,
						})
					}
				}
				if done.Add(1) == 256 {
					close(built)
				}
			}
		}(c)
	}

	// Let traffic build — 256 requests finished — then yank the
	// frontend mid-stream. ts.Close waits for in-flight handlers, so the
	// journal has no torn records — exactly what a SIGKILL between
	// requests looks like.
	<-built
	close(stop)
	ts.Close()
	wg.Wait()

	pre := leasesOf(t, srv)
	if pre.Count == 0 {
		t.Fatal("crash test ended with an empty lease table; nothing to recover")
	}
	// No srv.Close(): the daemon is "killed" with the journal unfsynced
	// and unclosed.

	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.NewWithConfig(sys2, server.Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	post := leasesOf(t, srv2)
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("restart diverged from pre-crash state:\npre  %+v\npost %+v", pre, post)
	}
	// The machine's per-node accounting matches too, node for node.
	for _, n := range sys.Machine.Nodes() {
		n2 := sys2.Machine.NodeByOS(n.OSIndex())
		if n.Allocated() != n2.Allocated() {
			t.Errorf("node %s#%d: pre-crash %d bytes, restored %d",
				n.Kind(), n.OSIndex(), n.Allocated(), n2.Allocated())
		}
	}
}

// TestRestartAfterGracefulShutdown is the clean half: Close flushes
// the journal and a restart reproduces the state, including the
// idempotency table — a pre-shutdown alloc retried after the restart
// replays its original lease.
func TestRestartAfterGracefulShutdown(t *testing.T) {
	ctx := context.Background()
	sys, err := core.NewSystem("knl-snc4-flat", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal")
	srv, err := server.NewWithConfig(sys, server.Config{JournalPath: path, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	cl := server.NewClient(ts.URL)

	req := server.AllocRequest{
		Name: "sticky", Size: 1 << 30, Attr: "Bandwidth", Initiator: "0-15",
		IdempotencyKey: "boot-42",
	}
	first, err := cl.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := core.NewSystem("knl-snc4-flat", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.NewWithConfig(sys2, server.Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	cl2 := server.NewClient(ts2.URL)

	// The lease survived; a retry of the pre-shutdown request replays
	// it instead of allocating a second buffer.
	again, err := cl2.Alloc(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Lease != first.Lease || again.Placement != first.Placement {
		t.Fatalf("replayed alloc = %+v, want lease %d on %s", again, first.Lease, first.Placement)
	}
	m, err := cl2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["hetmemd_alloc_total"] != 0 {
		t.Fatalf("replay allocated for real: alloc_total = %v", m["hetmemd_alloc_total"])
	}
	// And freeing the restored lease balances the books to zero.
	if err := cl2.Free(ctx, first.Lease); err != nil {
		t.Fatal(err)
	}
	m, err = cl2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := server.SumSeries(m, "hetmemd_node_bytes_in_use"); got != 0 {
		t.Fatalf("bytes in use after full drain: %v", got)
	}
}
