package server

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hetmem/internal/promtext"
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

// endpoint indexes the daemon's request counters; each route names
// the one it counts under.
type endpoint int

// The instrumented endpoints.
const (
	epTopology endpoint = iota
	epAttrs
	epAlloc
	epFree
	epRenew
	epMigrate
	epLeases
	epMetrics
	epHealth
	epAllocBatch
	epLeaseDetail
	epAdvisor
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"topology", "attrs", "alloc", "free", "renew", "migrate", "leases", "metrics", "health", "alloc_batch",
	"lease_detail", "advisor",
}

// latencyBuckets are the histogram upper bounds in seconds, roughly
// quadrupling from 4µs to 67ms plus a catch-all.
const numBuckets = 8

var latencyBuckets = [numBuckets]float64{4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 67e-3}

// latencyBounds and journalBatchBounds are the buckets' le labels,
// formatted once.
var (
	latencyBounds      [numBuckets]string
	journalBatchBounds [numBatchBuckets]string
)

func init() {
	for i, ub := range latencyBuckets {
		latencyBounds[i] = strconv.FormatFloat(ub, 'g', -1, 64)
	}
	for i, ub := range journalBatchBuckets {
		journalBatchBounds[i] = strconv.FormatUint(ub, 10)
	}
}

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

	AllocTotal atomic.Uint64
	// AllocFailed counts every alloc and every batch item the Server
	// answered with an error, once each: an unknown attribute, a shed,
	// a placement or quota miss, a failed journal append. A router
	// counts its own answers the same way, whether it refused the
	// request itself or passed on a member's refusal. A /v1/alloc body
	// its decoder refuses never reaches the backend and counts only as
	// an endpoint error.
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
	// array); the API's handler feeds the HTTP slot's request and byte
	// counters, and the daemon's http.Server's ConnState hook its
	// live-connection gauge.
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

// observe records one request to the endpoint with its duration and
// whether it failed.
func (m *Metrics) observe(e endpoint, d time.Duration, failed bool) {
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
	t := promtext.NewWriter(w)
	t.Series("hetmemd_alloc_total").Uint(m.AllocTotal.Load())
	t.Series("hetmemd_alloc_failed_total").Uint(m.AllocFailed.Load())
	t.Series("hetmemd_alloc_fallback_total").Uint(m.FallbackTotal.Load())
	t.Series("hetmemd_alloc_attr_fallback_total").Uint(m.AttrFallback.Load())
	t.Series("hetmemd_alloc_partial_total").Uint(m.PartialTotal.Load())
	t.Series("hetmemd_alloc_remote_total").Uint(m.RemoteTotal.Load())
	t.Series("hetmemd_free_total").Uint(m.FreeTotal.Load())
	t.Series("hetmemd_migrate_total").Uint(m.MigrateTotal.Load())
	t.Series("hetmemd_bytes_placed_total").Uint(m.BytesPlaced.Load())
	t.Series("hetmemd_shed_total").Uint(m.ShedTotal.Load())
	t.Series("hetmemd_auto_migrate_total").Uint(m.AutoMigrateTotal.Load())
	t.Series("hetmemd_auto_migrate_failed_total").Uint(m.AutoMigrateFailed.Load())
	t.Series("hetmemd_health_transitions_total").Uint(m.HealthTransitions.Load())
	t.Series("hetmemd_idempotent_replays_total").Uint(m.IdemReplays.Load())
	t.Series("hetmemd_journal_records_total").Uint(m.JournalRecords.Load())
	t.Series("hetmemd_journal_tail_dropped_total").Uint(m.JournalTailDropped.Load())
	t.Series("hetmemd_renew_total").Uint(m.RenewTotal.Load())
	t.Series("hetmemd_leases_reaped_total").Uint(m.LeasesReaped.Load())
	t.Series("hetmemd_checkpoint_total").Uint(m.CheckpointTotal.Load())
	t.Series("hetmemd_checkpoint_failed_total").Uint(m.CheckpointFailed.Load())
	t.Series("hetmemd_snapshot_fallback_total").Uint(m.SnapshotFallbacks.Load())
	t.Series("hetmemd_rebalance_total").Uint(m.RebalanceTotal.Load())
	t.Series("hetmemd_rebalance_failed_total").Uint(m.RebalanceFailed.Load())
	t.Series("hetmemd_rebalance_bytes_total").Uint(m.RebalanceBytes.Load())
	t.Series("hetmemd_placement_cache_hits_total").Uint(m.PlacementCacheHits.Load())
	t.Series("hetmemd_placement_cache_misses_total").Uint(m.PlacementCacheMisses.Load())
	t.Series("hetmemd_advisor_promoted_total").Uint(m.AdvisorPromoted.Load())
	t.Series("hetmemd_advisor_demoted_total").Uint(m.AdvisorDemoted.Load())
	t.Series("hetmemd_advisor_held_budget_total").Uint(m.AdvisorHeldBudget.Load())
	t.Series("hetmemd_advisor_held_hysteresis_total").Uint(m.AdvisorHeldHysteresis.Load())
	t.Series("hetmemd_advisor_cycles_total").Uint(m.AdvisorCycles.Load())
	t.Series("hetmemd_advisor_bytes_moved_total").Uint(m.AdvisorBytesMoved.Load())
	t.Series("hetmemd_leases_active").Int(int64(leases))

	var batchCum uint64
	for i := range journalBatchBuckets {
		batchCum += m.journalBatch[i].Load()
		t.Series("hetmemd_journal_batch_size_bucket").Label("le", journalBatchBounds[i]).Uint(batchCum)
	}
	batchCum += m.journalBatch[numBatchBuckets].Load()
	t.Series("hetmemd_journal_batch_size_bucket").Label("le", "+Inf").Uint(batchCum)
	t.Series("hetmemd_journal_batch_size_sum").Uint(m.journalBatchSum.Load())
	t.Series("hetmemd_journal_batch_size_count").Uint(batchCum)

	for i, name := range transportNames {
		st := &m.transports[i]
		t.Series("hetmemd_transport_requests_total").Label("transport", name).Uint(st.Requests.Load())
		t.Series("hetmemd_transport_bytes_rx_total").Label("transport", name).Uint(st.BytesRx.Load())
		t.Series("hetmemd_transport_bytes_tx_total").Label("transport", name).Uint(st.BytesTx.Load())
		t.Series("hetmemd_transport_active_conns").Label("transport", name).Int(st.ActiveConns.Load())
		t.Series("hetmemd_transport_decode_errors_total").Label("transport", name).Uint(st.DecodeErrors.Load())
	}

	for _, n := range nodes {
		t.Series("hetmemd_node_capacity_bytes").Label("node", n.Node).Uint(n.Capacity)
		t.Series("hetmemd_node_bytes_in_use").Label("node", n.Node).Uint(n.InUse)
		t.Series("hetmemd_node_health").Label("node", n.Node).Int(int64(n.Health))
	}

	for e, name := range endpointNames {
		requests := m.requests[e].Load()
		t.Series("hetmemd_requests_total").Label("endpoint", name).Uint(requests)
		t.Series("hetmemd_request_errors_total").Label("endpoint", name).Uint(m.errors[e].Load())
		cum := uint64(0)
		for i := range latencyBuckets {
			cum += m.latency[e][i].Load()
			t.Series("hetmemd_request_seconds_bucket").Label("endpoint", name).Label("le", latencyBounds[i]).Uint(cum)
		}
		cum += m.latency[e][numBuckets].Load()
		t.Series("hetmemd_request_seconds_bucket").Label("endpoint", name).Label("le", "+Inf").Uint(cum)
		t.Series("hetmemd_request_seconds_sum").Label("endpoint", name).Float(float64(m.latencyNS[e].Load()) / 1e9)
		t.Series("hetmemd_request_seconds_count").Label("endpoint", name).Uint(requests)
	}
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
