package server

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hetmem/internal/wire"
)

// Transport indexes the per-transport counter slots: the HTTP surface
// and the two binary listeners.
const (
	TransportHTTP = iota
	TransportUDS
	TransportTCPBin
	numTransports
)

// transportNames label the hetmemd_transport_* series; the fixed order
// (and the all-zero rows for unmounted transports) keeps the /metrics
// text deterministic, so cluster rollups sum the same series on every
// member.
var transportNames = [numTransports]string{"http", "uds", "tcp-bin"}

// Endpoint indexes the daemon's request counters.
type Endpoint int

// The instrumented endpoints.
const (
	EpTopology Endpoint = iota
	EpAttrs
	EpAlloc
	EpFree
	EpRenew
	EpMigrate
	EpLeases
	EpMetrics
	EpHealth
	EpAllocBatch
	EpLeaseDetail
	EpAdvisor
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"topology", "attrs", "alloc", "free", "renew", "migrate", "leases", "metrics", "health", "alloc_batch",
	"lease_detail", "advisor",
}

func (e Endpoint) String() string { return endpointNames[e] }

// latencyBuckets are the histogram upper bounds in seconds, roughly
// quadrupling from 4µs to 67ms plus a catch-all.
const numBuckets = 8

var latencyBuckets = [numBuckets]float64{4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 67e-3}

// Metrics is the daemon's lock-free instrumentation: per-endpoint
// request/error counters and latency histograms, plus allocator
// outcome counters. Everything is atomic; rendering takes a snapshot.
type Metrics struct {
	requests [numEndpoints]atomic.Uint64
	errors   [numEndpoints]atomic.Uint64
	// latency histogram: per endpoint, one counter per bucket plus a
	// +Inf overflow, and nanosecond totals for the _sum series.
	latency   [numEndpoints][numBuckets + 1]atomic.Uint64
	latencyNS [numEndpoints]atomic.Uint64

	AllocTotal    atomic.Uint64
	AllocFailed   atomic.Uint64
	FallbackTotal atomic.Uint64 // placements not on the best-ranked target
	AttrFallback  atomic.Uint64 // placements using a substitute attribute
	PartialTotal  atomic.Uint64
	RemoteTotal   atomic.Uint64
	FreeTotal     atomic.Uint64
	MigrateTotal  atomic.Uint64
	BytesPlaced   atomic.Uint64 // cumulative bytes ever placed

	// Robustness counters.
	ShedTotal          atomic.Uint64 // allocations refused by admission control
	AutoMigrateTotal   atomic.Uint64 // leases evacuated off offline nodes
	AutoMigrateFailed  atomic.Uint64 // evacuations that found no healthy target
	HealthTransitions  atomic.Uint64 // node health state changes
	IdemReplays        atomic.Uint64 // /alloc responses served from the idempotency table
	JournalRecords     atomic.Uint64 // records appended or replayed
	JournalTailDropped atomic.Uint64 // startups that truncated a corrupt tail

	// Lease-lifecycle and durable-state counters.
	RenewTotal        atomic.Uint64 // /renew heartbeats served
	LeasesReaped      atomic.Uint64 // expired leases reclaimed by the reaper
	CheckpointTotal   atomic.Uint64 // completed checkpoint/compactions
	CheckpointFailed  atomic.Uint64 // checkpoints aborted by an I/O error
	SnapshotFallbacks atomic.Uint64 // recoveries that used the previous snapshot
	RebalanceTotal    atomic.Uint64 // leases migrated back onto healed nodes
	RebalanceFailed   atomic.Uint64 // rebalance migrations that failed
	RebalanceBytes    atomic.Uint64 // bytes moved by the rebalancer

	// Tiering-advisor counters. Promoted/Demoted are restored from
	// advisor-tagged journal migrate records on restart; the held
	// counters are session-local (a hold journals nothing).
	AdvisorPromoted       atomic.Uint64 // advisor moves toward a performance tier
	AdvisorDemoted        atomic.Uint64 // advisor moves toward the capacity tier
	AdvisorHeldBudget     atomic.Uint64 // moves deferred by the cycle migration budget
	AdvisorHeldHysteresis atomic.Uint64 // moves deferred by hysteresis/cooldown
	AdvisorCycles         atomic.Uint64 // completed sample cycles
	AdvisorBytesMoved     atomic.Uint64 // bytes moved by the advisor

	// Fast-path counters (PR 4). The cache gauges mirror
	// alloc.Allocator.CacheStats, copied in by handleMetrics so the
	// rendered text reflects the allocator's ground truth.
	PlacementCacheHits   atomic.Uint64 // ranked-candidate cache hits
	PlacementCacheMisses atomic.Uint64 // ranked-candidate cache misses (re-ranks)
	// journal group-commit batch-size histogram: counters per bucket
	// (upper bounds journalBatchBuckets) plus +Inf, and a record total
	// for the _sum series.
	journalBatch    [numBatchBuckets + 1]atomic.Uint64
	journalBatchSum atomic.Uint64

	// transports is the per-transport observability block: requests,
	// frame/request bytes, live connections, and decode errors, one
	// slot per transport label. The binary listeners write their slots
	// directly (each wire.Server is built with a pointer into this
	// array); the HTTP slot is fed by instrument and the ConnState
	// hook.
	transports [numTransports]wire.Stats
}

// TransportStats returns the counter slot for one transport index
// (TransportHTTP, TransportUDS, TransportTCPBin); the daemon hands
// these to its wire listeners at mount time.
func (m *Metrics) TransportStats(t int) *wire.Stats { return &m.transports[t] }

// journalBatchBuckets are the group-commit batch-size histogram upper
// bounds (records per fsync), doubling up to the default batch cap.
const numBatchBuckets = 8

var journalBatchBuckets = [numBatchBuckets]uint64{1, 2, 4, 8, 16, 32, 64, 128}

// ObserveJournalBatch records one group-commit flush of n records.
func (m *Metrics) ObserveJournalBatch(n int) {
	if n <= 0 {
		return
	}
	i := 0
	for ; i < len(journalBatchBuckets); i++ {
		if uint64(n) <= journalBatchBuckets[i] {
			break
		}
	}
	m.journalBatch[i].Add(1)
	m.journalBatchSum.Add(uint64(n))
}

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics { return &Metrics{} }

// Observe records one request to the endpoint with its duration and
// whether it failed.
func (m *Metrics) Observe(e Endpoint, d time.Duration, failed bool) {
	m.requests[e].Add(1)
	if failed {
		m.errors[e].Add(1)
	}
	sec := d.Seconds()
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if sec <= latencyBuckets[i] {
			break
		}
	}
	m.latency[e][i].Add(1)
	m.latencyNS[e].Add(uint64(d.Nanoseconds()))
}

// Requests returns the request count for one endpoint.
func (m *Metrics) Requests(e Endpoint) uint64 { return m.requests[e].Load() }

// NodeUsage is the per-node gauge snapshot rendered into /metrics.
type NodeUsage struct {
	Node     string // e.g. "DRAM#0"
	Capacity uint64
	InUse    uint64
	Health   int // HealthState as an integer gauge (0 healthy, 1 degraded, 2 offline)
}

// Render writes the metrics to w in the flat Prometheus-style text
// format (one "name{labels} value" per line). Node gauges and the live
// lease count are passed in by the server so the text always reflects
// the allocator's ground truth.
func (m *Metrics) Render(w io.Writer, nodes []NodeUsage, leases int) {
	counter := func(name string, v uint64) {
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	counter("hetmemd_alloc_total", m.AllocTotal.Load())
	counter("hetmemd_alloc_failed_total", m.AllocFailed.Load())
	counter("hetmemd_alloc_fallback_total", m.FallbackTotal.Load())
	counter("hetmemd_alloc_attr_fallback_total", m.AttrFallback.Load())
	counter("hetmemd_alloc_partial_total", m.PartialTotal.Load())
	counter("hetmemd_alloc_remote_total", m.RemoteTotal.Load())
	counter("hetmemd_free_total", m.FreeTotal.Load())
	counter("hetmemd_migrate_total", m.MigrateTotal.Load())
	counter("hetmemd_bytes_placed_total", m.BytesPlaced.Load())
	counter("hetmemd_shed_total", m.ShedTotal.Load())
	counter("hetmemd_auto_migrate_total", m.AutoMigrateTotal.Load())
	counter("hetmemd_auto_migrate_failed_total", m.AutoMigrateFailed.Load())
	counter("hetmemd_health_transitions_total", m.HealthTransitions.Load())
	counter("hetmemd_idempotent_replays_total", m.IdemReplays.Load())
	counter("hetmemd_journal_records_total", m.JournalRecords.Load())
	counter("hetmemd_journal_tail_dropped_total", m.JournalTailDropped.Load())
	counter("hetmemd_renew_total", m.RenewTotal.Load())
	counter("hetmemd_leases_reaped_total", m.LeasesReaped.Load())
	counter("hetmemd_checkpoint_total", m.CheckpointTotal.Load())
	counter("hetmemd_checkpoint_failed_total", m.CheckpointFailed.Load())
	counter("hetmemd_snapshot_fallback_total", m.SnapshotFallbacks.Load())
	counter("hetmemd_rebalance_total", m.RebalanceTotal.Load())
	counter("hetmemd_rebalance_failed_total", m.RebalanceFailed.Load())
	counter("hetmemd_rebalance_bytes_total", m.RebalanceBytes.Load())
	counter("hetmemd_placement_cache_hits_total", m.PlacementCacheHits.Load())
	counter("hetmemd_placement_cache_misses_total", m.PlacementCacheMisses.Load())
	counter("hetmemd_advisor_promoted_total", m.AdvisorPromoted.Load())
	counter("hetmemd_advisor_demoted_total", m.AdvisorDemoted.Load())
	counter("hetmemd_advisor_held_budget_total", m.AdvisorHeldBudget.Load())
	counter("hetmemd_advisor_held_hysteresis_total", m.AdvisorHeldHysteresis.Load())
	counter("hetmemd_advisor_cycles_total", m.AdvisorCycles.Load())
	counter("hetmemd_advisor_bytes_moved_total", m.AdvisorBytesMoved.Load())
	fmt.Fprintf(w, "hetmemd_leases_active %d\n", leases)

	var batchCum, batchCount uint64
	for i, ub := range journalBatchBuckets {
		batchCum += m.journalBatch[i].Load()
		fmt.Fprintf(w, "hetmemd_journal_batch_size_bucket{le=\"%d\"} %d\n", ub, batchCum)
	}
	batchCum += m.journalBatch[numBatchBuckets].Load()
	batchCount = batchCum
	fmt.Fprintf(w, "hetmemd_journal_batch_size_bucket{le=\"+Inf\"} %d\n", batchCum)
	fmt.Fprintf(w, "hetmemd_journal_batch_size_sum %d\n", m.journalBatchSum.Load())
	fmt.Fprintf(w, "hetmemd_journal_batch_size_count %d\n", batchCount)

	for t := 0; t < numTransports; t++ {
		name := transportNames[t]
		st := &m.transports[t]
		fmt.Fprintf(w, "hetmemd_transport_requests_total{transport=%q} %d\n", name, st.Requests.Load())
		fmt.Fprintf(w, "hetmemd_transport_bytes_rx_total{transport=%q} %d\n", name, st.BytesRx.Load())
		fmt.Fprintf(w, "hetmemd_transport_bytes_tx_total{transport=%q} %d\n", name, st.BytesTx.Load())
		fmt.Fprintf(w, "hetmemd_transport_active_conns{transport=%q} %d\n", name, st.ActiveConns.Load())
		fmt.Fprintf(w, "hetmemd_transport_decode_errors_total{transport=%q} %d\n", name, st.DecodeErrors.Load())
	}

	for _, n := range nodes {
		fmt.Fprintf(w, "hetmemd_node_capacity_bytes{node=%q} %d\n", n.Node, n.Capacity)
		fmt.Fprintf(w, "hetmemd_node_bytes_in_use{node=%q} %d\n", n.Node, n.InUse)
		fmt.Fprintf(w, "hetmemd_node_health{node=%q} %d\n", n.Node, n.Health)
	}

	for e := Endpoint(0); e < numEndpoints; e++ {
		name := endpointNames[e]
		fmt.Fprintf(w, "hetmemd_requests_total{endpoint=%q} %d\n", name, m.requests[e].Load())
		fmt.Fprintf(w, "hetmemd_request_errors_total{endpoint=%q} %d\n", name, m.errors[e].Load())
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += m.latency[e][i].Load()
			fmt.Fprintf(w, "hetmemd_request_seconds_bucket{endpoint=%q,le=%q} %d\n", name, formatBound(ub), cum)
		}
		cum += m.latency[e][numBuckets].Load()
		fmt.Fprintf(w, "hetmemd_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "hetmemd_request_seconds_sum{endpoint=%q} %g\n", name, float64(m.latencyNS[e].Load())/1e9)
		fmt.Fprintf(w, "hetmemd_request_seconds_count{endpoint=%q} %d\n", name, m.requests[e].Load())
	}
}

func formatBound(ub float64) string {
	return strconv.FormatFloat(ub, 'g', -1, 64)
}

// ParseMetrics parses the Render text format back into a map keyed by
// the full series name including labels, e.g.
// `hetmemd_node_bytes_in_use{node="DRAM#0"}`. Clients and tests use it
// to assert on counters.
func ParseMetrics(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("server: bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("server: bad metrics value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// SumSeries adds up every series whose name (before any label block)
// equals name, e.g. SumSeries(m, "hetmemd_node_bytes_in_use") is the
// machine-wide bytes in use.
func SumSeries(m map[string]float64, name string) float64 {
	var sum float64
	for k, v := range m {
		base := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base = k[:i]
		}
		if base == name {
			sum += v
		}
	}
	return sum
}

// SumSeriesPrefix adds up every series whose full key (name and label
// block included) starts with prefix. The tenant series emit the tenant
// label first, so e.g.
// SumSeriesPrefix(m, `hetmemd_tenant_bytes{tenant="gold"`) is one
// tenant's bytes across every kind.
func SumSeriesPrefix(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}
