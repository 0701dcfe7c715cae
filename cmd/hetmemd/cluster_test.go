package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hetmem/internal/server"
)

// Router flag validation lives in flags_test.go alongside the serve
// flags.

// TestRouterSubcommandEndToEnd boots two real daemons, fronts them
// with the router subcommand, does real work through the
// router over the wire, and shuts it down with SIGTERM.
func TestRouterSubcommandEndToEnd(t *testing.T) {
	m0 := boot(t, "xeon")
	m1 := boot(t, "fictitious")

	// Pick a concrete free port for the router.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var mu sync.Mutex
	var out strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return out.Write(p)
	})
	udsPath := filepath.Join(os.TempDir(), "hetmemd-router-test.sock")
	defer os.Remove(udsPath)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"router", "-addr", addr, "-uds", udsPath,
			"-member", "m0=" + m0, "-member", "m1=" + m1,
			"-journal", filepath.Join(t.TempDir(), "router.wal"), "-poll-interval", "50ms"}, w)
	}()

	base := "http://" + addr
	cl := server.NewClient(base, server.WithoutHeartbeat())
	defer cl.Close()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cl.Health(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router did not come up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := cl.Alloc(ctx, server.AllocRequest{Name: "fed", Size: 1 << 20, Attr: "Bandwidth"})
	if err != nil {
		t.Fatalf("alloc through router subcommand: %v", err)
	}
	if !strings.HasPrefix(resp.Placement, "m0/") && !strings.HasPrefix(resp.Placement, "m1/") {
		t.Fatalf("placement %q not member-prefixed", resp.Placement)
	}
	if err := cl.Free(ctx, resp.Lease); err != nil {
		t.Fatal(err)
	}

	// The same federation path over the binary wire protocol: a
	// unix-socket client allocates through the router's -uds listener
	// and must see a member-prefixed placement too.
	wcl := server.NewClient("unix://"+udsPath, server.WithoutHeartbeat())
	defer wcl.Close()
	wresp, err := wcl.Alloc(ctx, server.AllocRequest{Name: "fedwire", Size: 1 << 20, Attr: "Bandwidth"})
	if err != nil {
		t.Fatalf("alloc through router uds listener: %v", err)
	}
	if !strings.HasPrefix(wresp.Placement, "m0/") && !strings.HasPrefix(wresp.Placement, "m1/") {
		t.Fatalf("wire placement %q not member-prefixed", wresp.Placement)
	}
	if err := wcl.Free(ctx, wresp.Lease); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("router returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("router did not shut down after SIGTERM")
	}
	mu.Lock()
	logText := out.String()
	mu.Unlock()
	if !strings.Contains(logText, "router journal flushed") {
		t.Fatalf("no journal flush confirmation: %q", logText)
	}
}
