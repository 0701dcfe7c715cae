// Command benchmark is hetmemd's benchmark: four workloads driven
// through real sockets against a daemon booted in-process, reporting
// what a client sees (end to end) and, from a traced run and direct
// probes, what each layer costs. See README.md in this directory.
//
//	go run ./benchmark -seed 1                      # all workloads, both runs
//	go run ./benchmark -workload uds_hot -trace 0   # one workload, end-to-end only
//	go run ./benchmark compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// scale fixes the shape of a run: how many repetitions the measured
// seconds are split over, and how much fixed work surrounds them.
type scale struct {
	reps          int // untraced repetitions; every end-to-end metric is their median
	populationDiv int // divides every standing population
	coldStarts    int // cold starts from the crash image in the restart phase
	// moreSetupsFor is how long a run goes on timing set-ups after the
	// repetitions' own.
	moreSetupsFor time.Duration
	imageOps      int // journaled requests behind the crash image
	probeIters    int // iterations of the nanosecond-scale probes
	warm          time.Duration
}

// fullScale is what the driver and a developer run. The crash image
// and the repetition count are sized so that one run of any workload
// stays under half a minute on two cores.
var fullScale = scale{reps: 3, populationDiv: 1, coldStarts: 11, moreSetupsFor: 3 * time.Second, imageOps: 60000, probeIters: 100000, warm: time.Second}

type options struct {
	workload string // "" runs all
	seed     int64
	seconds  float64 // measured seconds per run, split over the repetitions
	trace    int     // 0: end-to-end only, 1: traced run and probes only, -1: both
	dir      string
	traceOut string
	out      string
	sc       scale
}

// workloadResult is one workload's part of the result file.
type workloadResult struct {
	Name        string              `json:"name"`
	Why         string              `json:"why"`
	Clients     int                 `json:"clients"`
	Reps        int                 `json:"repetitions"`
	RepSeconds  float64             `json:"repetition_seconds"`
	Correct     bool                `json:"correct"`
	Attempted   uint64              `json:"attempted"`
	Failed      uint64              `json:"failed"`
	FailedShare float64             `json:"failed_share"`
	EndToEnd    map[string]measured `json:"end_to_end,omitempty"`
	PerLayer    map[string]float64  `json:"per_layer,omitempty"`
	// AllocP999Us is printed for the reader and judged by nobody.
	AllocP999Us float64 `json:"alloc_p999_us,omitempty"`
}

type result struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// maxFailedShare is the share of requests that may fail or be refused
// before a run counts as incorrect.
const maxFailedShare = 0.001

func clientCount() int { return min(runtime.NumCPU(), 4) }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request generator")
	flag.Float64Var(&o.seconds, "seconds", 18, "measured seconds per run, split evenly over the repetitions")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: traced run and probes only; -1: both")
	flag.StringVar(&o.dir, "journal-dir", ".bench_run", "directory for journals and sockets (real filesystem)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans here, one JSON object per line")
	flag.StringVar(&o.out, "out", "", "write the full result here as JSON, for `compare`")
	flag.Parse()
	o.sc = fullScale
	if flag.NArg() > 0 || o.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] | benchmark compare A.json B.json")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, w := range res.Workloads {
		if !w.Correct {
			os.Exit(1)
		}
	}
}

// run executes the selected workloads and prints their reports; the
// last line of each report is the driver's one-line JSON result.
func run(o options, out io.Writer) (result, error) {
	var res result
	wls := workloads
	if o.workload != "" {
		wl, err := workloadByName(o.workload)
		if err != nil {
			return res, err
		}
		wls = []workload{*wl}
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return res, err
	}
	res.Env = readEnvironment(o.dir, clientCount(), o.seed)
	for i := range wls {
		wl := &wls[i]
		dir := filepath.Join(o.dir, wl.name)
		if wl.journal {
			p50, err := fsyncProbe(o.dir, 200)
			if err != nil {
				return res, fmt.Errorf("fsync probe: %w", err)
			}
			res.Env.FsyncP50Us = p50
		}
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		wr, err := runWorkload(ctx, wl, o, dir)
		cancel()
		os.RemoveAll(dir)
		if err != nil {
			return res, fmt.Errorf("%s: %w", wl.name, err)
		}
		res.Workloads = append(res.Workloads, wr)
		report(out, res.Env, wr, o)
	}
	if o.out != "" {
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return res, err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return res, err
		}
	}
	return res, nil
}

func runWorkload(ctx context.Context, wl *workload, o options, dir string) (workloadResult, error) {
	wr := workloadResult{
		Name: wl.name, Why: wl.why, Clients: clientCount(), Reps: o.sc.reps,
		RepSeconds: o.seconds / float64(o.sc.reps), Correct: true,
	}
	scaled := *wl
	scaled.standing = max(wl.standing/o.sc.populationDiv, 1)
	if o.trace != 1 {
		if err := endToEndRun(ctx, &scaled, o, dir, &wr); err != nil {
			return wr, err
		}
	}
	if o.trace != 0 {
		if err := tracedRun(ctx, &scaled, o, dir, &wr); err != nil {
			return wr, err
		}
	}
	if wl.journal {
		if err := restartPhase(ctx, &scaled, o, dir, &wr); err != nil {
			return wr, fmt.Errorf("restart phase: %w", err)
		}
	}
	wr.FailedShare = float64(wr.Failed) / float64(max(wr.Attempted, 1))
	if wr.FailedShare > maxFailedShare {
		wr.Correct = false
	}
	if _, err := wr.contract(o.trace); err != nil {
		return wr, err
	}
	return wr, nil
}

// setUp boots the service, dials it and creates the standing
// population.
func setUp(ctx context.Context, wl *workload, o options, dir string, tr *tracer) (*runner, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := boot(wl, dir, tr)
	if err != nil {
		return nil, err
	}
	r := newRunner(st, o.seed, clientCount(), tr)
	if err := r.populate(ctx, o.seed); err != nil {
		r.tearDown()
		return nil, err
	}
	return r, nil
}

// tearDown stops the clients and the service; a second call is a no-op.
func (r *runner) tearDown() {
	closeClients(r.cls)
	r.cls = nil
	r.st.close()
}

func (wr *workloadResult) addTotals(r *runner) error {
	attempted, failed, firstErr := r.totals()
	wr.Attempted += attempted
	wr.Failed += failed
	if firstErr != nil && float64(wr.Failed)/float64(max(wr.Attempted, 1)) > maxFailedShare {
		return fmt.Errorf("%d of %d requests failed, first: %w", wr.Failed, wr.Attempted, firstErr)
	}
	return nil
}

// timedSetUp sets the service up as a run's user would wait for it:
// boot, listen, dial and the standing population.
func timedSetUp(ctx context.Context, wl *workload, o options, dir string) (*runner, float64, error) {
	start := time.Now()
	r, err := setUp(ctx, wl, o, filepath.Join(dir, "main"), nil)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return r, time.Since(start).Seconds(), nil
}

// endToEndRun measures the client-observed metrics with tracing off
// and nothing wrapped. Every repetition sets the service up afresh
// (timed: setup_s), so each starts from the same state whatever the
// ones before it left behind in the process, then warms up, measures,
// and is checked. More timed set-ups follow.
func endToEndRun(ctx context.Context, wl *workload, o options, dir string, wr *workloadResult) error {
	per := time.Duration(float64(time.Second) * o.seconds / float64(o.sc.reps))
	values := make(map[string][]float64)
	samples := make(map[string]int)
	var setups []float64
	for i := 0; i < o.sc.reps; i++ {
		r, took, err := timedSetUp(ctx, wl, o, dir)
		if err != nil {
			return err
		}
		setups = append(setups, took)
		// Taken here and not after the load: what the service holds
		// after it depends on how many requests the machine got through,
		// so a faster run would read as a bigger heap.
		values["live_heap_mb"] = append(values["live_heap_mb"], liveHeapMB())

		rep, err := r.repeat(ctx, o.sc.warm, per, false, false)
		if err == nil {
			err = wr.addTotals(r)
		}
		if err != nil {
			r.tearDown()
			return err
		}
		for name, v := range rep.clientMetrics() {
			values[name] = append(values[name], v.value)
			samples[name] += v.samples
		}
		r.tearDown()
	}
	// A set-up takes a tenth of a second or so; three timings of it are
	// too few for a steady median.
	for until := time.Now().Add(o.sc.moreSetupsFor); time.Now().Before(until); {
		r, took, err := timedSetUp(ctx, wl, o, dir)
		if err != nil {
			return err
		}
		r.tearDown()
		setups = append(setups, took)
	}
	wr.EndToEnd = make(map[string]measured)
	for _, spec := range clientSpecs() {
		if v, ok := values[spec.Name]; ok {
			n := samples[spec.Name]
			if n == 0 {
				n = len(v)
			}
			wr.EndToEnd[spec.Name] = summarize(spec, v, n)
		}
	}
	wr.EndToEnd["setup_s"] = summarizeTimings(specNamed("setup_s"), setups, o.sc.reps)
	wr.AllocP999Us = median(values["alloc_p999_us"])
	return nil
}

// summarizeTimings is for a metric with more timings than there are
// repetitions: it is the median of them all, and each part of them, in
// order, stands for a repetition in the min..max beside it.
func summarizeTimings(spec metricSpec, all []float64, reps int) measured {
	m := summarize(spec, chunkMedians(all, reps), len(all))
	m.Median = median(all)
	return m
}

// clientValue is one client-observed number of one repetition and how
// many timings it rests on.
type clientValue struct {
	value   float64
	samples int
}

// clientMetrics turns a repetition's latencies into the end-to-end
// metrics. A request type the workload never issued yields no metric.
func (rep *repetition) clientMetrics() map[string]clientValue {
	m := map[string]clientValue{
		"ops_per_s": {float64(rep.ops) / rep.elapsed.Seconds(), int(rep.ops)},
	}
	add := func(name string, kind opKind, q float64) {
		if n := len(rep.lat[kind]); n > 0 {
			m[name] = clientValue{percentile(rep.lat[kind], q), n}
		}
	}
	add("alloc_p50_us", opAlloc, 0.50)
	add("alloc_p95_us", opAlloc, 0.95)
	add("alloc_p99_us", opAlloc, 0.99)
	add("alloc_p999_us", opAlloc, 0.999)
	add("free_p50_us", opFree, 0.50)
	add("free_p95_us", opFree, 0.95)
	add("free_p99_us", opFree, 0.99)
	add("read_p50_us", opRead, 0.50)
	add("read_p99_us", opRead, 0.99)
	add("scan_p50_us", opScan, 0.50)
	add("batch_p50_us", opBatch, 0.50)
	return m
}

// tracedRun produces the per-layer table: one repetition with the
// tracer off and one with it on, each on a fresh stack whose
// injectable boundaries are wrapped, then the probes.
func tracedRun(ctx context.Context, wl *workload, o options, dir string, wr *workloadResult) error {
	tr := newTracer()
	per := time.Duration(float64(time.Second) * o.seconds / float64(o.sc.reps))
	var reps [2]repetition
	var st *stack
	for i, traced := range []bool{false, true} {
		r, err := setUp(ctx, wl, o, filepath.Join(dir, "traced"), tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		reps[i], err = r.repeat(ctx, o.sc.warm, per, traced, !traced)
		if err == nil {
			err = wr.addTotals(r)
		}
		r.tearDown()
		if err != nil {
			return err
		}
		st = r.st
	}
	probes, err := runProbes(dir, o.seed, clientCount(), o.sc.probeIters)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	wr.PerLayer = layerMetrics(st, &reps[0], &reps[1], tr.analyze(), probes)
	if o.traceOut != "" {
		if err := tr.writeTo(o.traceOut); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	return nil
}

// layerMetrics assembles the per-layer table. Counts come from the
// untraced repetition, span times from the traced one.
func layerMetrics(st *stack, plain, traced *repetition, lt layerTimes, probes map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer)+len(clientExtra))
	for _, spec := range contractPerLayer() {
		m[spec.Name] = 0
	}
	for k, v := range probes {
		m[k] = v
	}
	cluster := st.router != nil

	m["trace.client_span_us"] = lt.clientSpan
	if st.wl.transport == "uds" {
		m["wire.self_us"] = lt.transportSelf
	} else {
		m["server.http.self_us"] = lt.transportSelf
	}
	m["server.handler.span_us"] = lt.handlerSpan
	m["server.codec.self_us"] = lt.codecSelf
	if cluster {
		m["cluster.router.self_us"] = lt.backendSelf
	} else {
		m["server.backend.self_us"] = lt.backendSelf
	}
	m["cluster.member.span_us"] = lt.memberSpan
	m["journal.fs.sync_us"] = lt.fsSync
	m["journal.fs.write_us"] = lt.fsWrite
	if st.wl.journal {
		// Derived: what is left of the backend span once the disk calls
		// and the backend's own no-journal cost are taken out is time
		// spent waiting on the group commit.
		m["journal.wait_us"] = max(0, lt.backendSelf-probes["server.backend.alloc_free_ns"]/2/1e3)
	}
	m["unaccounted_us"] = lt.unaccounted
	if p50 := percentile(plain.lat[opAlloc], 0.5); p50 > 0 {
		m["trace.overhead_share"] = percentile(traced.lat[opAlloc], 0.5)/p50 - 1
	}

	a, b := plain.after, plain.before
	ops := plain.ops
	m["wire.bytes_rx_per_op"] = ratio(a.wireRx-b.wireRx, a.wireReqs-b.wireReqs)
	m["wire.bytes_tx_per_op"] = ratio(a.wireTx-b.wireTx, a.wireReqs-b.wireReqs)
	m["server.fallback_share"] = ratio(a.fallbacks-b.fallbacks, a.allocs-b.allocs)
	hits, misses := a.cacheHits-b.cacheHits, a.cacheMisses-b.cacheMisses
	m["alloc.cache_hit_rate"] = ratio(hits, hits+misses)
	fs := a.fs.sub(b.fs)
	m["journal.fsyncs_per_op"] = ratio(fs.syncs, ops)
	m["journal.records_per_fsync"] = ratio(a.journalRecords-b.journalRecords, fs.syncs)
	m["journal.bytes_per_op"] = ratio(fs.bytes, ops)
	m["journal.checkpoints"] = float64(a.checkpoints - b.checkpoints)
	m["cluster.forwards_per_op"] = ratio(a.memberRequests-b.memberRequests, ops)
	m["runtime.allocs_per_op"] = ratio(a.mallocs-b.mallocs, ops)
	m["runtime.gc_pause_ms"] = float64(a.gcPauseNs-b.gcPauseNs) / 1e6
	m["runtime.heap_growth_b_per_op"] = (plain.heapAfter - plain.heapBefore) * (1 << 20) / float64(max(ops, 1))
	m["runtime.cpu_s_per_kop"] = float64(a.cpuNs-b.cpuNs) / 1e9 / float64(max(ops, 1)) * 1e3

	for name, v := range plain.clientMetrics() {
		if _, ok := m[name]; ok {
			m[name] = v.value
		}
	}
	return m
}

// contractLine is the driver's result: the last line of a workload's
// report.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (wr *workloadResult) contract(trace int) (contractLine, error) {
	line := contractLine{Correct: wr.Correct, Attempted: max(wr.Attempted, 1), Failed: wr.Failed, Metrics: make(map[string]contractValue)}
	var missing []string
	if trace != 1 {
		for _, spec := range endToEnd {
			v, ok := wr.EndToEnd[spec.Name]
			if !ok || !finite(v.Median) {
				missing = append(missing, spec.Name)
				continue
			}
			line.Metrics[spec.Name] = contractValue{v.Median, spec.Unit}
		}
	}
	if trace != 0 {
		for _, spec := range contractPerLayer() {
			v, ok := wr.PerLayer[spec.Name]
			if !ok || !finite(v) {
				missing = append(missing, spec.Name)
				continue
			}
			line.Metrics[spec.Name] = contractValue{v, spec.Unit}
		}
	}
	if len(missing) > 0 {
		return line, fmt.Errorf("%s: metrics not produced: %v", wr.Name, missing)
	}
	return line, nil
}

func report(out io.Writer, env environment, wr workloadResult, o options) {
	fmt.Fprintf(out, "== %s: %s\n", wr.Name, wr.Why)
	fmt.Fprintf(out, "   C=%d closed-loop clients in-process, %d x %.2fs, seed %d, nproc %d, GOMAXPROCS %d, GOGC %s, %s, commit %s, kernel %s\n",
		wr.Clients, wr.Reps, wr.RepSeconds, env.Seed, env.NProc, env.GOMAXPROCS, env.GOGC, env.GoVersion, env.GitCommit, env.Kernel)
	fmt.Fprintf(out, "   journal dir %s (%s), raw fsync probe p50 %.1f us, cpu probe p50 %.0f ns\n", env.JournalDir, env.JournalFS, env.FsyncP50Us, env.CPUProbeNs)
	if wr.EndToEnd != nil {
		fmt.Fprintf(out, "   end to end, tracing off: median of %d repetitions [min .. max]\n", wr.Reps)
		fmt.Fprintf(out, "   %-24s %-6s %12s %12s %12s %9s %6s\n", "metric", "unit", "median", "min", "max", "samples", "bound")
		for _, spec := range clientSpecs() {
			if v, ok := wr.EndToEnd[spec.Name]; ok {
				fmt.Fprintf(out, "   %-24s %-6s %12.4f %12.4f %12.4f %9d %6s\n", spec.Name, v.Unit, v.Median, v.Min, v.Max, v.Samples, boundText(v.Bound))
			}
		}
		fmt.Fprintf(out, "   %-24s %-6s %12.4f  (informational)\n", "alloc_p999_us", "us", wr.AllocP999Us)
	}
	fmt.Fprintf(out, "   %-24s %-6s %12.6f  (%d failed or refused of %d)\n", "failed_share", "ratio", wr.FailedShare, wr.Failed, wr.Attempted)
	if wr.PerLayer != nil {
		fmt.Fprintln(out, "   per layer: traced repetition (single-item allocs, p50), counts, probes; 0 = not on this workload's path")
		for _, spec := range contractPerLayer() {
			fmt.Fprintf(out, "   %-30s %-6s %14.4f\n", spec.Name, spec.Unit, wr.PerLayer[spec.Name])
		}
	}
	line, _ := wr.contract(o.trace) // runWorkload has checked it is complete
	b, _ := json.Marshal(line)
	fmt.Fprintf(out, "%s\n", b)
}
