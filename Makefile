# Convenience targets; everything is plain `go` underneath.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race bench benchmark benchmark-compare bench-alloc bench-cluster advisorbench repro cover fuzz chaos clustertest netchaos reapstress tenantstress clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# THE benchmark (benchmark/README.md): four workloads through real
# sockets, every metric by name; the exit code gates correctness and
# the failed share. `make benchmark-compare A=old.json B=new.json`
# judges one result file against another, bound by bound.
benchmark:
	$(GO) run ./benchmark -out BENCHMARK_result.json

benchmark-compare:
	$(GO) run ./benchmark compare $(A) $(B)

# The /alloc fast-path acceptance run: baseline (fsync per record, no
# candidate cache) vs fast (group commit + cache) at 32 clients,
# recorded in BENCH_alloc.json.
bench-alloc:
	$(GO) run ./cmd/hetmemd bench -clients 32 -out BENCH_alloc.json

# Router vs single-daemon throughput/latency, recorded in
# BENCH_cluster.json.
bench-cluster:
	$(GO) run ./cmd/hetmemd bench -cluster -cluster-out BENCH_cluster.json

# Tiering-advisor acceptance: the convergence/pause/budget/restart
# tests under -race, then the phased-workload A/B — the advisor run
# must beat the static run by >=1.15x simulated time after paying its
# migration costs, recorded in BENCH_advisor.json.
advisorbench:
	$(GO) test -race -run 'TestAdvisor|TestLeaseDetail' ./internal/server
	$(GO) run ./cmd/hetmemd bench -advisor -advisor-out BENCH_advisor.json

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

chaos:
	$(GO) run ./cmd/hetmemd chaostest -clients 16 -requests 50 -steps 40

# Cluster acceptance: the federation tests (rendezvous properties,
# router end-to-end, journal restart, member-kill chaos) under -race,
# then the full 1000-client loadtest through the router with one
# member killed mid-run.
clustertest:
	$(GO) test -race ./internal/cluster
	$(GO) run ./cmd/hetmemd loadtest -cluster -kill 1 -kill-after 2s

# Partition tolerance: the chaos-proxy and scrubber tests under -race,
# then the full suite — seeded network faults on every router->member
# link, a wiped-journal member restart mid-load, and anti-entropy
# scrub convergence, with the per-cycle report in SCRUB_report.json.
netchaos:
	$(GO) test -race ./internal/netfaults
	$(GO) test -race -run 'TestScrub|TestFlapping|TestAsymmetric' ./internal/cluster
	$(GO) run ./cmd/hetmemd chaostest -cluster -net-seed 7 -restart 1 -scrub-report SCRUB_report.json

reapstress:
	$(GO) run ./cmd/hetmemd reapstress -ttl 1s -crashers 32 -holders 16

# Multi-tenant QoS acceptance: the admission boundary tests under
# -race, then the isolation scenario — a greedy best-effort tenant
# saturating a 4-member cluster against a guaranteed tenant's p99 and
# zero-lost-leases invariants, with the run recorded in
# TENANT_report.json.
tenantstress:
	$(GO) test -race -run 'TestShedWatermark|TestQuota|TestBurstable|TestQueueTimeout|TestDefaultTenant|TestClientFailsFast' ./internal/server
	$(GO) run ./cmd/hetmemd tenantstress -report TENANT_report.json

clean:
	$(GO) clean ./...
