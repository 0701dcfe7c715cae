package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// streamDigest hashes the first n ops of every client's stream, with
// the window driven the way a run without failures drives it.
func streamDigest(wl *workload, seed int64, clients, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for c := 0; c < clients; c++ {
		g := newGenerator(wl, seed, c)
		live := 0
		for i := 0; i < n; i++ {
			o := g.next(live)
			put(uint64(o.kind)<<32 | uint64(o.slot))
			put(uint64(o.salt))
			for _, a := range o.allocs {
				put(a.size)
				h.Write([]byte(a.attr))
				h.Write([]byte(a.initiator))
				if a.remote {
					h.Write([]byte{1})
				}
			}
			switch o.kind {
			case opAlloc, opBatch:
				live += len(o.allocs)
			case opFree:
				live--
			}
		}
	}
	return h.Sum64()
}

// The same seed must give the same requests and another seed others,
// on every workload: results are only comparable across commits if
// the daemon was sent the same stream.
func TestStreamDigestFollowsSeed(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a := streamDigest(wl, 7, 2, 2000)
		if b := streamDigest(wl, 7, 2, 2000); a != b {
			t.Errorf("%s: seed 7 gave digests %x and %x", wl.name, a, b)
		}
		if c := streamDigest(wl, 8, 2, 2000); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %x", wl.name, a)
		}
	}
}

func TestMixSharesSumTo100(t *testing.T) {
	for _, wl := range workloads {
		if wl.mix == nil {
			continue
		}
		sum := 0
		for _, m := range wl.mix {
			sum += m.share
		}
		if sum != 100 {
			t.Errorf("%s: mix shares sum to %d", wl.name, sum)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// unitSuffixes ties a metric name's suffix to its unit.
var unitSuffixes = []struct{ suffix, unit string }{
	{"_per_s", "1/s"}, {"_us", "us"}, {"_ns", "ns"}, {"_ms", "ms"}, {"_mb", "MiB"}, {"_s", "s"},
	{"_share", "ratio"}, {"_rate", "ratio"},
}

func checkSpec(t *testing.T, m metricSpec) {
	t.Helper()
	if !nameRE.MatchString(m.Name) {
		t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
	}
	if !unitRE.MatchString(m.Unit) {
		t.Errorf("%s: unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		t.Errorf("%s: better %q", m.Name, m.Better)
	}
	for _, s := range unitSuffixes {
		if strings.HasSuffix(m.Name, s.suffix) {
			if m.Unit != s.unit {
				t.Errorf("%s: unit %q, the name says %q", m.Name, m.Unit, s.unit)
			}
			break
		}
	}
}

// BENCHMARK.json must say what the tables in this package say.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", f.Paths)
	}
	if strings.Join(f.Command, " ") != "go run ./benchmark" {
		t.Errorf("command = %v", f.Command)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the table %+v", kind, i, got[i], want[i])
			}
			checkSpec(t, want[i])
			if seen[want[i].Name] {
				t.Errorf("%s: %s listed twice", kind, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, contractPerLayer())
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	// 4 + 22 runs per workload, set-up and two builds included, in 3420 s.
	if runs := 4 + 22*len(workloads); runs*(f.RunSeconds+12) > 3420-120 {
		t.Errorf("run_seconds %d: %d runs cannot fit the driver's hour", f.RunSeconds, runs)
	}
}

// smokeScale is a run small enough for `go test`: every phase of every
// workload happens, on populations a twentieth of the real ones.
var smokeScale = scale{reps: 1, populationDiv: 20, coldStarts: 2, moreSetupsFor: 10 * time.Millisecond, imageOps: 1500, probeIters: 200, warm: 50 * time.Millisecond}

// Every workload, both runs, at smoke scale: every metric BENCHMARK.json
// names is produced and finite, the gates pass, nothing fails, and the
// driver's line is the last thing printed.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	dir := t.TempDir()
	for _, mode := range []int{0, 1} {
		var out bytes.Buffer
		o := options{seed: 3, seconds: 0.3, trace: mode, dir: dir, sc: smokeScale}
		if mode == 1 {
			o.traceOut = dir + "/spans.jsonl"
		}
		res, err := run(o, &out)
		if err != nil {
			t.Fatalf("trace %d: %v\n%s", mode, err, out.String())
		}
		if len(res.Workloads) != len(workloads) {
			t.Fatalf("trace %d: %d workloads ran", mode, len(res.Workloads))
		}
		want := f.EndToEnd
		if mode == 1 {
			want = f.PerLayer
		}
		for _, wr := range res.Workloads {
			if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d", wr.Name, mode, wr.Correct, wr.Failed, wr.Attempted)
			}
			line, err := wr.contract(mode)
			if err != nil {
				t.Errorf("%s trace %d: %v", wr.Name, mode, err)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics on the line, BENCHMARK.json names %d", wr.Name, mode, len(line.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s missing", wr.Name, mode, m.Name)
				case !finite(v.Value) || v.Unit != m.Unit:
					t.Errorf("%s trace %d: %s = %v %s, want a finite number of %s", wr.Name, mode, m.Name, v.Value, v.Unit, m.Unit)
				case mode == 0 && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wr.Name, m.Name, v.Value)
				}
			}
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct {
			t.Errorf("trace %d: last line is not a correct result: %v\n%s", mode, err, lines[len(lines)-1])
		}
		if mode == 1 {
			checkLayers(t, res)
			if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
				t.Errorf("trace-out not written: %v", err)
			}
		}
	}
}

// checkLayers asserts what must hold of the per-layer numbers whatever
// the machine: layers off a workload's path read 0, layers on it do not.
func checkLayers(t *testing.T, res result) {
	t.Helper()
	for _, wr := range res.Workloads {
		wl, _ := workloadByName(wr.Name)
		l := wr.PerLayer
		on := func(name string, want bool) {
			t.Helper()
			if got := l[name] != 0; got != want {
				t.Errorf("%s: %s = %v, on this workload's path: %v", wr.Name, name, l[name], want)
			}
		}
		on("trace.client_span_us", true)
		on("server.handler.span_us", true)
		on("wire.self_us", wl.transport == "uds")
		on("server.http.self_us", wl.transport == "http")
		on("wire.bytes_rx_per_op", wl.transport == "uds")
		on("journal.fsyncs_per_op", wl.journal)
		on("journal.fs.sync_us", wl.journal)
		on("cluster.member.span_us", len(wl.platforms) > 1)
		on("cluster.forwards_per_op", len(wl.platforms) > 1)
		on("scan_p50_us", wl.mix != nil)
		on("restart_s", wl.journal)
		on("runtime.allocs_per_op", true)
		if wl.mix == nil && l["alloc.cache_hit_rate"] < 0.99 {
			t.Errorf("%s: cache hit rate %v, the fixed cycle should always hit", wr.Name, l["alloc.cache_hit_rate"])
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := func(better string, bound, med, lo, hi float64) measured {
		return measured{Better: better, Bound: bound, Median: med, Min: lo, Max: hi}
	}
	for _, tc := range []struct {
		name string
		a, b measured
		want string
	}{
		{"same", m("lower", 0.1, 100, 98, 102), m("lower", 0.1, 101, 99, 103), "within"},
		{"slower", m("lower", 0.1, 100, 98, 102), m("lower", 0.1, 120, 118, 122), "worse"},
		{"faster", m("lower", 0.1, 100, 98, 102), m("lower", 0.1, 80, 78, 82), "better"},
		{"fewer ops", m("higher", 0.1, 1000, 990, 1010), m("higher", 0.1, 850, 840, 860), "worse"},
		{"more ops", m("higher", 0.1, 1000, 990, 1010), m("higher", 0.1, 1200, 1190, 1210), "better"},
		{"wide and overlapping", m("lower", 0.1, 100, 80, 130), m("lower", 0.1, 120, 95, 140), "unresolved"},
		{"wide but apart", m("lower", 0.1, 100, 80, 110), m("lower", 0.1, 150, 120, 170), "worse"},
		{"no bound", m("lower", 0, 100, 98, 102), m("lower", 0, 200, 198, 202), "info"},
	} {
		if got := verdict(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// compare is a gate: it must fail on anything that is worse, and
	// refuse what it cannot judge instead of leaving rows out.
	w := func(metrics map[string]measured) workloadResult {
		return workloadResult{Name: "w", Reps: 3, RepSeconds: 6, Clients: 2, Correct: true, EndToEnd: metrics}
	}
	res := func(ws ...workloadResult) result { return result{Workloads: ws} }
	base := w(map[string]measured{"x_us": m("lower", 0.1, 100, 98, 102), "y_us": m("lower", 0.1, 10, 10, 10)})
	slower := w(map[string]measured{"x_us": m("lower", 0.1, 120, 118, 122), "y_us": m("lower", 0.1, 10, 10, 10)})
	dropped := w(map[string]measured{"x_us": m("lower", 0.1, 100, 98, 102)})
	wrong, failing, short, fewer, other, traced := base, base, base, base, base, base
	wrong.Correct = false
	failing.FailedShare = 0.01
	short.Reps, short.RepSeconds = 1, 3
	fewer.Clients = 1
	other.Name = "v"
	traced.EndToEnd = nil
	for _, tc := range []struct {
		name string
		a, b result
		want int
	}{
		{"identical", res(base), res(base), 0},
		{"a worse row", res(base), res(slower), 1},
		{"a metric dropped from B", res(base), res(dropped), 1},
		{"a metric only B has", res(dropped), res(base), 0},
		{"slower on a metric without a bound", res(w(map[string]measured{"x_us": m("lower", 0, 100, 98, 102)})), res(w(map[string]measured{"x_us": m("lower", 0, 200, 198, 202)})), 0},
		{"B incorrect", res(base), res(wrong), 1},
		{"B failing requests", res(base), res(failing), 1},
		{"shorter repetitions", res(base), res(short), 2},
		{"fewer clients", res(base), res(fewer), 2},
		{"a workload missing from B", res(base, other), res(base), 2},
		{"another workload in B", res(base), res(other), 2},
		{"nothing to compare", res(traced), res(traced), 2},
	} {
		var out bytes.Buffer
		if got := compare(tc.a, tc.b, &out); got != tc.want {
			t.Errorf("%s: compare exits %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
}
