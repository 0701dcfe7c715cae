package main

// Startup validation of the lease-lifecycle and checkpoint flags: bad
// combinations must be rejected before platform discovery, with the
// flag names in the error.

import (
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
		// Batches form on the in-flight fsync; there is no wait to set.
		{"group-commit-linger-is-gone", []string{"serve", "-group-commit-linger", "1ms"}, "not defined"},
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
		{JournalPath: "wal", SyncEveryAppend: true, CheckpointMaxWAL: 8 << 10},
		{JournalPath: "wal", GroupCommit: true, GroupCommitBatch: 16},
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
	} {
		if err := validateRouterConfig(cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}
