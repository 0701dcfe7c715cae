package main

// The metric tables. BENCHMARK.json at the repository root repeats
// them for the driver; the package test keeps the two in step.

import (
	"math"
	"sort"
	"strconv"
)

// metricSpec names one metric the way BENCHMARK.json does. A bound is
// the share of the baseline's median by which the metric may get worse
// before `compare` calls it a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// noiseBound is the regression bound of every end-to-end metric. It is
// set by the machine, not by taste: on the shared two-core box this was
// sized on, the same commit's medians moved by up to 14 % between two
// ten-run sets taken an hour apart, and the quartile spread of ten runs
// reached 13 % in a noisy hour (2-5 % in a quiet one).
const noiseBound = 0.25

// endToEnd is what a client of the service sees. Every workload
// produces every one of them, and none can read 0. The tail is the
// p95: on the journaled workload a request that misses its group-commit
// batch waits out a second linger and fsync, which puts a knee in the
// latency distribution between p98.5 and p99.5, so the p99 flips
// between 2.6 and 5 ms from run to run and no bound can hold it.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", noiseBound},
	{"ops_per_s", "1/s", "higher", noiseBound},
	{"alloc_p50_us", "us", "lower", noiseBound},
	{"alloc_p95_us", "us", "lower", noiseBound},
	{"free_p50_us", "us", "lower", noiseBound},
	{"free_p95_us", "us", "lower", noiseBound},
	// Not a time: it follows the code and the population, not the machine.
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// clientExtra are client-observed too, but not fit for the driver's
// end-to-end list, which wants one metric set for all workloads, none
// ever 0 and each steady within its bound: the p99s sit on the knee
// described above, only the journaled workload has anything to restart
// from, and only the mixed workload issues reads, scans and batches.
// The result file and `compare` treat them as end-to-end metrics of
// the workload that produces them; for the driver they ride in the
// per-layer list (from the untraced repetition of the traced run and
// the restart phase after it), reading 0 on a workload that has none.
//
// The p99s have no bound: `compare` prints them and judges them not.
var clientExtra = []metricSpec{
	{"alloc_p99_us", "us", "lower", 0},
	{"free_p99_us", "us", "lower", 0},
	{"restart_s", "s", "lower", noiseBound},
	{"read_p50_us", "us", "lower", noiseBound},
	{"read_p99_us", "us", "lower", 0},
	{"scan_p50_us", "us", "lower", noiseBound},
	{"batch_p50_us", "us", "lower", noiseBound},
}

// perLayer is measured from outside the product: span self times from
// the traced repetition, probes of each layer's public functions, and
// counts read from public counters. A layer a workload does not cross
// reads 0 there.
var perLayer = []metricSpec{
	// traced repetition, single-item allocations, p50
	{Name: "trace.client_span_us", Unit: "us", Better: "lower"},
	{Name: "wire.self_us", Unit: "us", Better: "lower"},
	{Name: "server.http.self_us", Unit: "us", Better: "lower"},
	{Name: "server.handler.span_us", Unit: "us", Better: "lower"},
	{Name: "server.codec.self_us", Unit: "us", Better: "lower"},
	{Name: "server.backend.self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.router.self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.member.span_us", Unit: "us", Better: "lower"},
	{Name: "journal.fs.sync_us", Unit: "us", Better: "lower"},
	{Name: "journal.fs.write_us", Unit: "us", Better: "lower"},
	{Name: "journal.wait_us", Unit: "us", Better: "lower"},
	{Name: "unaccounted_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	// counts over the untraced repetition of the traced run
	{Name: "wire.bytes_rx_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_tx_per_op", Unit: "B", Better: "lower"},
	{Name: "server.fallback_share", Unit: "ratio", Better: "lower"},
	{Name: "alloc.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "journal.fsyncs_per_op", Unit: "count", Better: "lower"},
	{Name: "journal.records_per_fsync", Unit: "count", Better: "higher"},
	{Name: "journal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "journal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "cluster.forwards_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_growth_b_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.cpu_s_per_kop", Unit: "s", Better: "lower"},
	// probes
	{Name: "wire.codec.request_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec.response_ns", Unit: "ns", Better: "lower"},
	{Name: "server.decode_alloc_ns", Unit: "ns", Better: "lower"},
	{Name: "server.backend.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "server.leases_rebuild_us", Unit: "us", Better: "lower"},
	{Name: "tenant.charge_refund_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.candidates_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.candidates_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.place_free_ns", Unit: "ns", Better: "lower"},
	{Name: "memattr.rank_targets_ns", Unit: "ns", Better: "lower"},
	{Name: "journal.append_durable_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_nosync_ns", Unit: "ns", Better: "lower"},
	{Name: "journal.open_store_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.replay_seq_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.replay_par_ms", Unit: "ms", Better: "lower"},
	{Name: "advisor.classify_us", Unit: "us", Better: "lower"},
}

func specNamed(name string) metricSpec {
	for _, m := range clientSpecs() {
		if m.Name == name {
			return m
		}
	}
	panic("benchmark: no client-observed metric " + name)
}

// clientSpecs lists every client-observed metric of the result file.
func clientSpecs() []metricSpec {
	return append(append([]metricSpec(nil), endToEnd...), clientExtra...)
}

// contractPerLayer is the per-layer list as the driver sees it.
func contractPerLayer() []metricSpec {
	out := append([]metricSpec(nil), perLayer...)
	for _, m := range clientExtra {
		out = append(out, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return out
}

// measured is one end-to-end metric of one workload: a value per
// repetition and their median.
type measured struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Values  []float64 `json:"values"`
	Samples int       `json:"samples"` // timings (or completed ops) behind all the values
}

func summarize(spec metricSpec, values []float64, samples int) measured {
	m := measured{Unit: spec.Unit, Better: spec.Better, Bound: spec.Bound, Values: values, Samples: samples, Median: median(values)}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) > 0 {
		m.Min, m.Max = s[0], s[len(s)-1]
	}
	return m
}

// chunkMedians splits v, in order, into n nearly equal parts and
// returns each part's median (fewer parts when v is shorter than n).
func chunkMedians(v []float64, n int) []float64 {
	n = min(n, len(v))
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, median(v[i*len(v)/n:(i+1)*len(v)/n]))
	}
	return out
}

// boundText prints a bound; a metric without one is information only.
func boundText(b float64) string {
	if b == 0 {
		return "-"
	}
	return strconv.FormatFloat(b, 'f', 2, 64)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
