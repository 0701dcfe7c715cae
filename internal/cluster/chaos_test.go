package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hetmem/internal/server"
)

// The cluster survival property: killing one member under full load
// loses nothing silently. Every lease either re-homes onto a survivor
// (evacuation) or the request touching it fails with a retryable v1
// error the client can act on. The test runs the standard loadtest
// mix against the router, hard-kills a member mid-run, then proves
// the books: the router's lease table, its /metrics, and the
// surviving members' own lease tables all agree, with nothing left on
// the corpse.

func TestChaosMemberKillNoLostLeases(t *testing.T) {
	sim := startTestSim(t, SimOptions{
		Platforms: []string{"xeon", "knl-snc4-flat", "fictitious", "xeon-snc2"},
		Router: Config{
			PollInterval: 50 * time.Millisecond,
			OfflineAfter: 2,
		},
	})
	ctx := context.Background()

	// Tolerate what a member death legitimately surfaces: the
	// retryable member_unavailable while the router re-homes keys, and
	// shedding/capacity under pressure. Anything else fails the run.
	tolerate := func(err error) bool {
		return errors.Is(err, server.ErrCodeMemberUnavailable) ||
			errors.Is(err, server.ErrShedding) ||
			errors.Is(err, server.ErrCapacityExhausted)
	}

	// Kill a member once the run is in full swing: a quarter of the load
	// finished, three quarters still to run into the dead member.
	loadDone, swing := make(chan struct{}), make(chan struct{})
	var stats server.LoadStats
	var loadErr error
	go func() {
		defer close(loadDone)
		stats, loadErr = server.LoadTest(ctx, sim.Base, server.LoadOptions{
			Clients:           24,
			RequestsPerClient: 100,
			MaxLive:           4,
			MaxSizeBytes:      4 << 20,
			Seed:              7,
			Tolerate:          tolerate,
			Retry:             &server.RetryPolicy{MaxAttempts: 6, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
			Progress: func(done uint64) {
				if done == 24*100/4 {
					close(swing)
				}
			},
		})
	}()
	const victim = 1
	select {
	case <-swing:
	case <-loadDone:
		t.Fatalf("load ended before the kill point: %v (stats %s)", loadErr, stats)
	}
	sim.Kill(victim)
	t.Logf("killed member m%d mid-load", victim)

	<-loadDone
	if loadErr != nil {
		t.Fatalf("loadtest against the router failed: %v (stats %s)", loadErr, stats)
	}
	t.Logf("load: %s", stats)

	// Let evacuation settle: every routed lease must leave the corpse.
	victimName := sim.Members[victim].Name
	deadline := time.Now().Add(15 * time.Second)
	var leases server.LeasesResponse
	for {
		sim.Router.PollOnce(ctx)
		var err error
		leases, err = sim.Router.Leases(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		if leases.NodeBytes[victimName] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still homed on killed member %s after 15s",
				leases.NodeBytes[victimName], victimName)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, l := range leases.Leases {
		if strings.HasPrefix(l.Placement, victimName+"/") || l.Placement == victimName {
			t.Fatalf("lease %d (%s) still placed on the corpse: %s", l.Lease, l.Name, l.Placement)
		}
	}

	// Zero lost leases: every lease the load generator believes alive
	// is in the router's table.
	if leases.Count != stats.LeasesLeft {
		t.Fatalf("router tracks %d leases, load generator left %d alive — %d lost or phantom",
			leases.Count, stats.LeasesLeft, stats.LeasesLeft-leases.Count)
	}

	// The books: router metrics vs router lease table (the daemon's
	// own consistency check, unchanged), and router-claimed bytes per
	// member vs what each survivor actually holds. Survivors may lag
	// by queued frees, so drain first via poll ticks.
	if _, err := server.VerifyConsistency(ctx, sim.Base); err != nil {
		t.Fatalf("router books inconsistent after member kill: %v", err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		sim.Router.PollOnce(ctx)
		mismatch := ""
		for i, m := range sim.Members {
			if i == victim {
				continue
			}
			mcl := server.NewClient(m.URL, server.WithoutHeartbeat())
			ml, err := mcl.Leases(ctx, false)
			mcl.Close()
			if err != nil {
				t.Fatalf("member %s leases: %v", m.Name, err)
			}
			if ml.Bytes != leases.NodeBytes[m.Name] {
				mismatch = fmt.Sprintf("member %s holds %d bytes, router claims %d",
					m.Name, ml.Bytes, leases.NodeBytes[m.Name])
				break
			}
		}
		if mismatch == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(mismatch)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// And the failure must have been visible: a mid-run kill cannot be
	// entirely free under this much traffic.
	m, err := sim.Router.Leases(ctx, false)
	if err != nil || m.Count != stats.LeasesLeft {
		t.Fatalf("final recount diverged: %d vs %d (%v)", m.Count, stats.LeasesLeft, err)
	}
}
