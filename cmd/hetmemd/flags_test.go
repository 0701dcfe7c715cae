package main

// Startup validation of the lease-lifecycle and checkpoint flags: bad
// combinations must be rejected before platform discovery, with the
// flag names in the error.

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"hetmem/internal/cluster"
	"hetmem/internal/server"
)

func TestServeFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"ttl-without-reaper", []string{"serve", "-lease-ttl", "30s"}, "-reap-interval"},
		{"reaper-slower-than-ttl", []string{"serve", "-lease-ttl", "10s", "-reap-interval", "30s"}, "must not exceed"},
		{"checkpoint-without-journal", []string{"serve", "-checkpoint-every", "1m"}, "-journal"},
		{"checkpoint-bytes-without-journal", []string{"serve", "-checkpoint-bytes", "1048576"}, "-journal"},
		{"negative-ttl", []string{"serve", "-lease-ttl", "-5s", "-reap-interval", "1s"}, "negative"},
		{"tenants-file-missing", []string{"serve", "-tenants", "/nonexistent/tenants.json"}, "-tenants"},
		{"negative-queue-depth", []string{"serve", "-queue-depth", "-1"}, "-queue-depth"},
		{"queue-timeout-without-queue", []string{"serve", "-queue-timeout", "1s"}, "-queue-depth"},
		{"negative-queue-timeout", []string{"serve", "-queue-depth", "4", "-queue-timeout", "-1s"}, "negative"},
		{"headroom-out-of-range", []string{"serve", "-shed", "0.8", "-guaranteed-headroom", "1.5"}, "-guaranteed-headroom"},
		{"headroom-without-watermark", []string{"serve", "-shed", "0", "-guaranteed-headroom", "0.2"}, "-shed"},
		{"journal-sync-without-journal", []string{"serve", "-journal-sync"}, "-journal-sync needs -journal"},
		// Batches form on the in-flight fsync; there is no wait to set.
		{"group-commit-linger-is-gone", []string{"serve", "-group-commit-linger", "1ms"}, "not defined"},
		// -journal-sync is the one durability switch, and it is group
		// commit with the batch cap fixed at journal.DefaultGroupBatch.
		{"group-commit-is-gone", []string{"serve", "-group-commit"}, "not defined"},
		{"group-commit-batch-is-gone", []string{"serve", "-group-commit-batch", "16"}, "not defined"},
		// The ranked-candidate cache and parallel replay are always on.
		{"no-candidate-cache-is-gone", []string{"serve", "-no-candidate-cache"}, "not defined"},
		{"replay-workers-is-gone", []string{"serve", "-replay-workers", "1"}, "not defined"},
		// The hot responses have one encoder.
		{"legacy-encoding-is-gone", []string{"serve", "-legacy-encoding"}, "not defined"},
		// Performance is measured by ./benchmark and the stress
		// scenarios are package tests; the harness subcommands are gone.
		{"bench-is-gone", []string{"bench"}, `unknown subcommand "bench" (want serve, router, loadtest, or platforms)`},
		{"chaostest-is-gone", []string{"chaostest"}, `unknown subcommand "chaostest" (want serve, router, loadtest, or platforms)`},
		{"reapstress-is-gone", []string{"reapstress"}, `unknown subcommand "reapstress" (want serve, router, loadtest, or platforms)`},
		{"tenantstress-is-gone", []string{"tenantstress"}, `unknown subcommand "tenantstress" (want serve, router, loadtest, or platforms)`},
	} {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Sane combinations pass the front-run validation (checked directly
	// so the test does not boot a daemon).
	for _, cfg := range []server.Config{
		{},
		{DefaultLeaseTTL: 30 * time.Second, ReapInterval: 5 * time.Second},
		{JournalPath: "wal", CheckpointEvery: time.Minute, CheckpointMaxWAL: 1 << 20},
		{JournalPath: "wal", GroupCommit: true, CheckpointMaxWAL: 8 << 10},
		{ShedWatermark: 0.7, GuaranteedHeadroom: 0.25, QueueDepth: 32, QueueTimeout: time.Second},
		{ShedWatermark: 0.9, QueueDepth: 8},
	} {
		if err := validateServeConfig(cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

func TestRouterFlagValidation(t *testing.T) {
	member := []string{"-member", "m0=http://127.0.0.1:1"}
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"no-members", []string{"router"}, "-member"},
		{"malformed-member", []string{"router", "-member", "no-equals-sign"}, "name=url"},
		{"zero-probe-timeout", append([]string{"router", "-probe-timeout", "0s"}, member...), "-probe-timeout"},
		{"negative-evac-timeout", append([]string{"router", "-evac-timeout", "-1s"}, member...), "-evac-timeout"},
		{"zero-forward-timeout", append([]string{"router", "-forward-timeout", "0s"}, member...), "-forward-timeout"},
		{"negative-scrub-interval", append([]string{"router", "-scrub-interval", "-1s"}, member...), "-scrub-interval"},
		{"scrub-faster-than-probe", append([]string{"router", "-scrub-interval", "1s", "-probe-timeout", "5s"}, member...), "-scrub-interval"},
		{"zero-poll-interval", append([]string{"router", "-poll-interval", "0s"}, member...), "-poll-interval"},
		{"zero-offline-after", append([]string{"router", "-offline-after", "0"}, member...), "-offline-after"},
		{"journal-sync-without-journal", append([]string{"router", "-journal-sync"}, member...), "-journal-sync needs -journal"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Sane router configs pass the front-run validation.
	for _, cfg := range []cluster.Config{
		{PollInterval: time.Second, OfflineAfter: 2, ProbeTimeout: 2 * time.Second, EvacTimeout: 10 * time.Second, ForwardTimeout: 10 * time.Second},
		{PollInterval: time.Second, OfflineAfter: 2, ProbeTimeout: time.Second, EvacTimeout: time.Second, ForwardTimeout: time.Second, ScrubInterval: 30 * time.Second, ScrubBudgetBytes: 1 << 20},
		{JournalPath: "router.wal", GroupCommit: true, PollInterval: time.Second, OfflineAfter: 2, ProbeTimeout: time.Second, EvacTimeout: time.Second, ForwardTimeout: time.Second},
	} {
		if err := validateRouterConfig(cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

// TestFlagCount pins how many flags the subcommands register, counted
// from their -h listings, so that a flag comes or goes on purpose.
func TestFlagCount(t *testing.T) {
	const want = 52 // serve 24, router 16, loadtest 12
	var usage bytes.Buffer
	for _, sub := range []string{"serve", "router", "loadtest"} {
		if err := run([]string{sub, "-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: %v", sub, err)
		}
	}
	n := 0
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			n++
		}
	}
	if n != want {
		t.Errorf("the subcommands register %d flags, want %d", n, want)
	}
}
