# Convenience targets; everything is plain `go` underneath.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race benchmark benchmark-compare repro cover fuzz chaos clustertest netchaos reapstress tenantstress clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# THE benchmark (benchmark/README.md): four workloads through real
# sockets, every metric by name; the exit code gates correctness and
# the failed share. `make benchmark-compare A=old.json B=new.json`
# judges one result file against another, bound by bound.
benchmark:
	$(GO) run ./benchmark -out BENCHMARK_result.json

benchmark-compare:
	$(GO) run ./benchmark compare $(A) $(B)

repro:
	$(GO) run ./cmd/repro

cover:
	$(GO) test -cover ./...

fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/hmat/
	$(GO) test -fuzz=FuzzParseList -fuzztime=$(FUZZTIME) ./internal/bitmap/
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzScanMatchesJSON -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzRequestEncodersMatchJSON -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzHTTPResponse -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -fuzz=FuzzSnapshotRecovery -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -fuzz=FuzzWireFrame -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzWireRequestDecode -fuzztime=$(FUZZTIME) ./internal/wire/

# Fault injection under load: seeded node faults against a journaled
# daemon, then the books and a journal restart audited.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/server

# Cluster acceptance: the federation tests (rendezvous properties,
# router end-to-end, journal restart, member-kill chaos) under -race.
clustertest:
	$(GO) test -race ./internal/cluster

# Partition tolerance under -race: the chaos-proxy and scrubber tests,
# then the full suite (TestNetChaosConverges) — seeded network faults
# on every router->member link, a wiped-journal member restart
# mid-load, and anti-entropy scrub convergence.
netchaos:
	$(GO) test -race ./internal/netfaults
	$(GO) test -race -run 'TestScrub|TestFlapping|TestAsymmetric|TestNetChaosConverges' ./internal/cluster

# Orphan reaper: abandoned TTL leases reclaimed within 2xTTL, no
# heartbeating lease lost.
reapstress:
	$(GO) test -race -run 'TestReapStressHarness' ./internal/server

# Multi-tenant QoS acceptance under -race: the admission boundary
# tests, then the isolation scenario (TestTenantIsolation) — a greedy
# best-effort tenant saturating a 4-member cluster against a
# guaranteed tenant's p99 and zero-lost-leases invariants.
tenantstress:
	$(GO) test -race -run 'TestShedWatermark|TestQuota|TestBurstable|TestQueueTimeout|TestDefaultTenant|TestClientFailsFast' ./internal/server
	$(GO) test -race -run 'TestTenantIsolation' ./internal/cluster

clean:
	$(GO) clean ./...
