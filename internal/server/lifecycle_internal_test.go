package server

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"hetmem/internal/core"
)

// TestChaosReapRacingCheckpoint: the reaper holds the checkpoint lock
// from the moment it takes an expired lease out of the table until its
// free is journaled. A checkpoint that ran in between would snapshot a
// table without the lease, compact its alloc record away, and leave the
// free in the fresh WAL: a journal the restarted daemon refuses with
// "free of unknown lease". The test holds the checkpoint lock, lets the
// reaper run into it, checkpoints, and reopens the files as a crash
// leaves them.
func TestChaosReapRacingCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(sys, Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := srv.Alloc(context.Background(), AllocRequest{
		Name: "orphan", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19", TTLSeconds: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, ok := srv.leases.get(resp.Lease)
	if !ok {
		t.Fatal("granted lease is not in the table")
	}
	l.deadlineNS.Store(1) // its client stopped heartbeating long ago
	l.release()

	srv.ckmu.Lock()
	reaped := make(chan int, 1)
	go func() { reaped <- srv.ReapNow() }()
	// A reaper that takes the lease before the lock empties the table at
	// once; a correct one waits on the lock with the lease still listed.
	for deadline := time.Now().Add(100 * time.Millisecond); srv.LeaseCount() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	err = srv.store.Checkpoint(srv.liveRecords)
	srv.ckmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if n := <-reaped; n != 1 {
		t.Fatalf("reaped %d leases, want 1", n)
	}

	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewWithConfig(sys2, Config{JournalPath: path})
	if err != nil {
		t.Fatalf("restart after a reap raced a checkpoint: %v", err)
	}
	defer srv2.Close()
	if n := srv2.LeaseCount(); n != 0 {
		t.Fatalf("restart resurrected %d reaped leases", n)
	}
}
