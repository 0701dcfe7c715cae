package server

// The tiering advisor's acceptance tests: convergence under hysteresis
// (a phase flip triggers exactly one migration, no flapping), the
// pause/resume control surface, budget exhaustion producing held_budget
// decisions, crash-restart preservation of the promoted/demoted
// counters byte-for-byte, and the /v1 surface around it (lease detail,
// advice on attribute-less allocs, the advisor_paused error code).
//
// The scenario mirrors the paper's motivating workload and
// TestAdvisorPhasedAB's A/B: a latency-bound lease is allocated
// while the local fast tier is full of init scratch, so it lands on
// the capacity tier; the scratch is freed after the first phase; the
// advisor must notice the misplacement from telemetry alone and walk
// the lease up — but only after the configured number of agreeing
// samples.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetmem/internal/advisor"
	"hetmem/internal/core"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
)

const advGiB = uint64(1) << 30

// advScenario is the shared workload rig: a xeon daemon whose package-0
// DRAM is stuffed with machine-level scratch, plus an engine pinned to
// package 0 to generate telemetry.
type advScenario struct {
	t       *testing.T
	sys     *core.System
	s       *Server
	eng     *memsim.Engine
	scratch *memsim.Buffer
}

func newAdvScenario(t *testing.T, cfg Config) *advScenario {
	t.Helper()
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ini := sys.InitiatorForPackage(0)
	scratch, _, err := sys.MemAlloc("scratch", 190*advGiB, memattr.Latency, ini)
	if err != nil {
		t.Fatal(err)
	}
	return &advScenario{t: t, sys: sys, s: s, eng: sys.Engine(ini), scratch: scratch}
}

// lease allocates a latency-bound lease pinned to package 0 and returns
// its ID and buffer.
func (a *advScenario) lease(name string, size uint64) (uint64, *memsim.Buffer) {
	a.t.Helper()
	resp, err := a.s.doAlloc(context.Background(), AllocRequest{
		Name: name, Size: size, Attr: "Latency",
		Initiator: a.sys.InitiatorForPackage(0).ListString(),
	})
	if err != nil {
		a.t.Fatal(err)
	}
	l, ok := a.s.leases.get(resp.Lease)
	if !ok {
		a.t.Fatalf("lease %d vanished", resp.Lease)
	}
	buf := l.buf
	l.release()
	return resp.Lease, buf
}

// freeScratch opens up the fast tier.
func (a *advScenario) freeScratch() {
	a.t.Helper()
	if err := a.sys.Free(a.scratch); err != nil {
		a.t.Fatal(err)
	}
	a.scratch = nil
}

// chase runs one pointer-chase phase against the given buffers,
// publishing fresh telemetry for the advisor to read.
func (a *advScenario) chase(bufs ...*memsim.Buffer) {
	accesses := make([]memsim.Access, len(bufs))
	for i, b := range bufs {
		accesses[i] = memsim.Access{Buffer: b, RandomReads: 50_000_000, MLP: 4}
	}
	a.eng.Phase("phase", accesses)
}

// decisionsByReason buckets a snapshot's decision log.
func decisionsByReason(snap advisor.Snapshot) map[string][]advisor.Decision {
	out := make(map[string][]advisor.Decision)
	for _, d := range snap.Decisions {
		out[d.Reason] = append(out[d.Reason], d)
	}
	return out
}

// TestAdvisorConvergesAfterPhaseFlip is the headline property: a lease
// that lands on the wrong tier is promoted exactly once, only after
// the hysteresis streak completes, and never touched again while its
// behaviour is stable.
func TestAdvisorConvergesAfterPhaseFlip(t *testing.T) {
	a := newAdvScenario(t, Config{
		AdvisorInterval:   time.Hour, // loop parked; cycles driven by hand
		AdvisorHysteresis: 3,
		AdvisorCooldown:   2,
	})
	id, index := a.lease("graph-index", 6*advGiB)
	if got := index.NodeNames(); !strings.Contains(got, "NVDIMM") {
		t.Fatalf("setup: lease should start on the capacity tier, got %s", got)
	}

	// Phase 1: DRAM is still full of scratch. The lease is misplaced
	// but the move is infeasible, so the advisor must not burn its
	// hysteresis streak (or journal a no-op "migration").
	a.chase(index)
	if n := a.s.AdviseOnce(); n != 0 {
		t.Fatalf("cycle with full fast tier moved %d leases, want 0", n)
	}
	a.freeScratch()

	// Streak cycles: hysteresis 3 means two held cycles, then the move.
	moves := 0
	for cycle := 1; cycle <= 3; cycle++ {
		a.chase(index)
		n := a.s.AdviseOnce()
		moves += n
		if cycle < 3 && n != 0 {
			t.Fatalf("cycle %d moved %d leases before the streak completed", cycle, n)
		}
	}
	if moves != 1 {
		t.Fatalf("streak completion made %d moves, want exactly 1", moves)
	}
	if got := index.NodeNames(); got != "DRAM#0" {
		t.Fatalf("promoted lease sits on %s, want DRAM#0", got)
	}

	// Stability: further agreeing cycles must not move it again.
	for i := 0; i < 3; i++ {
		a.chase(index)
		if n := a.s.AdviseOnce(); n != 0 {
			t.Fatalf("advisor flapped: moved an aligned lease on post-move cycle %d", i+1)
		}
	}

	if p := a.s.Metrics().AdvisorPromoted.Load(); p != 1 {
		t.Errorf("advisor_promoted_total = %d, want 1", p)
	}
	if d := a.s.Metrics().AdvisorDemoted.Load(); d != 0 {
		t.Errorf("advisor_demoted_total = %d, want 0", d)
	}

	snap := a.s.Advisor().Snapshot()
	if snap.Counters.Promoted != 1 || snap.Counters.Demoted != 0 {
		t.Errorf("snapshot counters %+v, want exactly one promotion", snap.Counters)
	}
	byReason := decisionsByReason(snap)
	// Every migration the advisor made must be accounted for in the
	// decision log, and vice versa.
	if got := uint64(len(byReason[advisor.ReasonPromoted]) + len(byReason[advisor.ReasonDemoted])); got != a.s.Metrics().AdvisorPromoted.Load()+a.s.Metrics().AdvisorDemoted.Load() {
		t.Errorf("decision log records %d moves, metrics record %d",
			got, a.s.Metrics().AdvisorPromoted.Load()+a.s.Metrics().AdvisorDemoted.Load())
	}
	if len(byReason[advisor.ReasonHeldHysteresis]) != 2 {
		t.Errorf("held_hysteresis decisions = %d, want 2 (hysteresis 3)", len(byReason[advisor.ReasonHeldHysteresis]))
	}
	mv := byReason[advisor.ReasonPromoted]
	if len(mv) != 1 {
		t.Fatalf("promoted decisions = %d, want 1", len(mv))
	}
	if mv[0].Lease != id || mv[0].Attr != "Latency" ||
		!strings.Contains(mv[0].From, "NVDIMM") || mv[0].To != "DRAM#0" {
		t.Errorf("promoted decision %+v, want lease %d Latency NVDIMM→DRAM#0", mv[0], id)
	}

	// The classification and the advice cache reflect the live verdict.
	if c := a.s.Advisor().Classification(id); c != "Latency" {
		t.Errorf("classification %q, want Latency", c)
	}
	if adv := a.s.Advisor().Advice("graph-index"); adv != "Latency" {
		t.Errorf("advice for graph-index %q, want Latency", adv)
	}
}

// TestAdvisorPauseResume drives the control endpoints end-to-end: a
// paused advisor makes zero moves, pausing twice is a 409 with the
// stable advisor_paused code, and resume is idempotent.
func TestAdvisorPauseResume(t *testing.T) {
	a := newAdvScenario(t, Config{
		AdvisorInterval:   time.Hour,
		AdvisorHysteresis: 1,
		AdvisorCooldown:   1,
	})
	_, index := a.lease("hot", 6*advGiB)
	ts := httptest.NewServer(a.s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL, WithRetryPolicy(NoRetry))
	ctx := context.Background()

	if err := cl.AdvisorPause(ctx); err != nil {
		t.Fatalf("pause: %v", err)
	}
	err := cl.AdvisorPause(ctx)
	if !errors.Is(err, ErrCodeAdvisorPaused) {
		t.Fatalf("second pause: got %v, want advisor_paused", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 409 || apiErr.Retryable {
		t.Fatalf("second pause: %+v, want non-retryable 409", apiErr)
	}

	// The trigger conditions are all present — hot lease on the slow
	// tier, fast tier empty, hysteresis 1 — but the advisor is paused.
	a.freeScratch()
	for i := 0; i < 3; i++ {
		a.chase(index)
		if n := a.s.AdviseOnce(); n != 0 {
			t.Fatalf("paused advisor moved %d leases", n)
		}
	}
	snap, err := cl.Advisor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Paused {
		t.Error("GET /v1/advisor reports paused=false after pause")
	}
	if snap.Cycles != 0 {
		t.Errorf("paused advisor ran %d cycles, want 0", snap.Cycles)
	}
	if got := index.NodeNames(); !strings.Contains(got, "NVDIMM") {
		t.Fatalf("lease moved to %s while advisor was paused", got)
	}

	// Resume (twice — idempotent), and the pending move happens.
	if err := cl.AdvisorResume(ctx); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := cl.AdvisorResume(ctx); err != nil {
		t.Fatalf("second resume: %v", err)
	}
	a.chase(index)
	if n := a.s.AdviseOnce(); n != 1 {
		t.Fatalf("post-resume cycle moved %d leases, want 1", n)
	}
	if got := index.NodeNames(); got != "DRAM#0" {
		t.Fatalf("post-resume placement %s, want DRAM#0", got)
	}
}

// TestAdvisorHeldBudget pins the shared-budget semantics: when two
// moves are due and the cycle budget only covers one, the second is
// logged held_budget and completes on the next cycle.
func TestAdvisorHeldBudget(t *testing.T) {
	a := newAdvScenario(t, Config{
		AdvisorInterval:   time.Hour,
		AdvisorHysteresis: 1,
		AdvisorCooldown:   1,
		// One byte: the first move of a cycle fits (spent 0 < 1), the
		// second is held.
		RebalanceBudget: 1,
	})
	_, bufA := a.lease("hot-a", 3*advGiB)
	_, bufB := a.lease("hot-b", 3*advGiB)
	a.chase(bufA, bufB)
	a.freeScratch()

	a.chase(bufA, bufB)
	if n := a.s.AdviseOnce(); n != 1 {
		t.Fatalf("budget-capped cycle moved %d leases, want 1", n)
	}
	if hb := a.s.Metrics().AdvisorHeldBudget.Load(); hb != 1 {
		t.Fatalf("advisor_held_budget_total = %d, want 1", hb)
	}
	byReason := decisionsByReason(a.s.Advisor().Snapshot())
	if len(byReason[advisor.ReasonHeldBudget]) != 1 {
		t.Fatalf("held_budget decisions = %d, want 1", len(byReason[advisor.ReasonHeldBudget]))
	}

	// The budget is per cycle: the held lease moves on the next one.
	a.chase(bufA, bufB)
	if n := a.s.AdviseOnce(); n != 1 {
		t.Fatalf("follow-up cycle moved %d leases, want the held one", n)
	}
	if got, want := a.s.Metrics().AdvisorPromoted.Load(), uint64(2); got != want {
		t.Fatalf("advisor_promoted_total = %d, want %d", got, want)
	}
	for name, buf := range map[string]*memsim.Buffer{"hot-a": bufA, "hot-b": bufB} {
		if got := buf.NodeNames(); got != "DRAM#0" {
			t.Errorf("%s sits on %s, want DRAM#0", name, got)
		}
	}
}

// advisorMetricLines extracts the restart-durable advisor counter
// lines from a /metrics scrape.
func advisorMetricLines(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v1/metrics: %d", rec.Code)
	}
	var out []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "hetmemd_advisor_promoted_total") ||
			strings.HasPrefix(line, "hetmemd_advisor_demoted_total") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestAdvisorCrashRestartPreservesCounters kills a daemon after the
// advisor has both promoted and demoted (no graceful Close, journal
// unfsynced), restarts from the WAL, and requires the advisor move
// counters — metric lines byte-for-byte — plus every lease's advisor-
// written attribute and placement to survive the replay.
func TestAdvisorCrashRestartPreservesCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	cfg := Config{
		JournalPath:       path,
		AdvisorInterval:   time.Hour,
		AdvisorHysteresis: 1,
		AdvisorCooldown:   1,
	}
	a := newAdvScenario(t, cfg)
	hotID, hot := a.lease("hot", 6*advGiB)

	// Promotion: hot lease chased on the slow tier, fast tier freed.
	a.chase(hot)
	a.freeScratch()
	a.chase(hot)
	if n := a.s.AdviseOnce(); n != 1 {
		t.Fatalf("promotion cycle moved %d, want 1", n)
	}

	// Demotion: a second lease lands on now-empty DRAM, is hot for one
	// phase, then goes cold; its zero-delta interval classifies it to
	// the capacity tier and the advisor walks it down.
	coldID, cold := a.lease("cold", 4*advGiB)
	if got := cold.NodeNames(); got != "DRAM#0" {
		t.Fatalf("cold lease landed on %s, want DRAM#0", got)
	}
	a.chase(hot, cold) // cold becomes active (and, this cycle, aligned)
	a.s.AdviseOnce()
	a.chase(hot) // cold idles: zero delta → Capacity
	if n := a.s.AdviseOnce(); n != 1 {
		t.Fatalf("demotion cycle moved %d, want 1", n)
	}
	if got := cold.NodeNames(); !strings.Contains(got, "NVDIMM") {
		t.Fatalf("cold lease demoted to %s, want a NVDIMM node", got)
	}
	if got := attrOf(mustLease(t, a.s, coldID)); got != "Capacity" {
		t.Fatalf("demoted lease attr %q, want Capacity", got)
	}

	preMetrics := advisorMetricLines(t, a.s)
	prePlacement := map[uint64][2]string{
		hotID:  {attrOf(mustLease(t, a.s, hotID)), hot.NodeNames()},
		coldID: {attrOf(mustLease(t, a.s, coldID)), cold.NodeNames()},
	}
	// No Close: the crash leaves the WAL as-is.

	sys2, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewWithConfig(sys2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	if post := advisorMetricLines(t, s2); post != preMetrics {
		t.Errorf("advisor counters diverged across restart:\npre:\n%s\npost:\n%s", preMetrics, post)
	}
	snap := s2.Advisor().Snapshot()
	if snap.Counters.Promoted != 1 || snap.Counters.Demoted != 1 {
		t.Errorf("restored tracker counters %+v, want 1 promoted / 1 demoted", snap.Counters)
	}
	for id, want := range prePlacement {
		l := mustLease(t, s2, id)
		if got := attrOf(l); got != want[0] {
			t.Errorf("lease %d attr %q after restart, want %q", id, got, want[0])
		}
		l2, _ := s2.leases.get(id)
		if got := l2.buf.NodeNames(); got != want[1] {
			t.Errorf("lease %d placement %s after restart, want %s", id, got, want[1])
		}
		l2.release()
	}
}

// mustLease borrows a lease by ID and releases it immediately — enough
// to read fields that don't need the borrow held.
func mustLease(t *testing.T, s *Server, id uint64) *lease {
	t.Helper()
	l, ok := s.leases.get(id)
	if !ok {
		t.Fatalf("lease %d not found", id)
	}
	l.release()
	return l
}

// TestLeaseDetailAndAdviceAPI covers the new v1 surface: GET
// /v1/leases/{id} (including its 400/404 edges), the advice field on
// attribute-less allocs, and the advisor_paused error on daemons
// running without an advisor.
func TestLeaseDetailAndAdviceAPI(t *testing.T) {
	a := newAdvScenario(t, Config{
		AdvisorInterval:   time.Hour,
		AdvisorHysteresis: 1,
		AdvisorCooldown:   1,
	})
	a.freeScratch()
	ts := httptest.NewServer(a.s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL, WithRetryPolicy(NoRetry))
	ctx := context.Background()

	// An attribute-less alloc on an advisor daemon is advised, not
	// rejected; with no telemetry history the advice is the
	// conservative capacity tier.
	resp, err := cl.Alloc(ctx, AllocRequest{Name: "unknown-buf", Size: 4096})
	if err != nil {
		t.Fatalf("attr-less alloc: %v", err)
	}
	if resp.Advice != "Capacity" || resp.AttrUsed != "Capacity" {
		t.Errorf("attr-less alloc: advice %q attr_used %q, want Capacity/Capacity", resp.Advice, resp.AttrUsed)
	}
	// An explicit-attr alloc carries no advice.
	explicit, err := cl.Alloc(ctx, AllocRequest{Name: "explicit", Size: 4096, Attr: "Latency"})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Advice != "" {
		t.Errorf("explicit alloc has advice %q, want none", explicit.Advice)
	}

	// Once the advisor has observed a name, new attr-less allocs of
	// that name inherit the live classification.
	id, buf := a.lease("graph-index", 2*advGiB)
	a.chase(buf)
	a.s.AdviseOnce()
	advised, err := cl.Alloc(ctx, AllocRequest{Name: "graph-index", Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if advised.Advice != "Latency" {
		t.Errorf("advised alloc: advice %q, want Latency from live classification", advised.Advice)
	}

	// Lease detail: the full per-lease record, telemetry included.
	detail, err := cl.LeaseDetail(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if detail.Lease != id || detail.Name != "graph-index" || detail.Size != 2*advGiB ||
		detail.Attr != "Latency" || detail.Placement != buf.NodeNames() {
		t.Errorf("lease detail %+v diverges from the lease", detail)
	}
	if detail.Class != "Latency" {
		t.Errorf("lease detail class %q, want Latency", detail.Class)
	}
	if detail.Telemetry.LLCMisses == 0 || detail.Telemetry.Loads == 0 {
		t.Errorf("lease detail telemetry %+v, want nonzero counters after a chase", detail.Telemetry)
	}

	// The list view carries the same attribute and classification.
	leases, err := cl.Leases(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, li := range leases.Leases {
		if li.Lease != id {
			continue
		}
		found = true
		if li.Attr != "Latency" || li.Class != "Latency" || li.Telemetry == nil {
			t.Errorf("lease list entry %+v missing attr/class/telemetry", li)
		}
	}
	if !found {
		t.Errorf("lease %d missing from /v1/leases list", id)
	}

	// Path edges: non-numeric → 400 bad_request, unknown → 404.
	rec := httptest.NewRecorder()
	a.s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/leases/abc", nil))
	if rec.Code != 400 {
		t.Errorf("GET /v1/leases/abc: %d, want 400", rec.Code)
	}
	var eb struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Code != CodeBadRequest {
		t.Errorf("GET /v1/leases/abc code %q, want %q", eb.Code, CodeBadRequest)
	}
	if _, err := cl.LeaseDetail(ctx, 123456789); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("unknown lease detail: %v, want lease_expired", err)
	}
}

// TestAdvisorDisabledDaemon pins the behaviour contract when
// Config.AdvisorInterval is zero: attribute-less allocs stay a 400
// (the pre-advisor contract), and the advisor endpoints answer with
// the stable advisor_paused code.
func TestAdvisorDisabledDaemon(t *testing.T) {
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL, WithRetryPolicy(NoRetry))
	ctx := context.Background()

	if s.Advisor() != nil {
		t.Fatal("zero config built an advisor")
	}
	if _, err := cl.Alloc(ctx, AllocRequest{Name: "x", Size: 4096}); !errors.Is(err, ErrCodeBadRequest) {
		t.Errorf("attr-less alloc without advisor: %v, want bad_request", err)
	}
	if _, err := cl.Advisor(ctx); !errors.Is(err, ErrCodeAdvisorPaused) {
		t.Errorf("GET /v1/advisor without advisor: %v, want advisor_paused", err)
	}
	if err := cl.AdvisorPause(ctx); !errors.Is(err, ErrCodeAdvisorPaused) {
		t.Errorf("pause without advisor: %v, want advisor_paused", err)
	}
	if n := s.AdviseOnce(); n != 0 {
		t.Errorf("AdviseOnce on a disabled advisor moved %d", n)
	}

	// The batch path follows the same contract.
	batch, err := cl.AllocBatch(ctx, []AllocRequest{{Name: "y", Size: 4096}})
	if err != nil {
		t.Fatalf("batch alloc: %v", err)
	}
	if batch.Failed != 1 || batch.Results[0].Error == nil || batch.Results[0].Error.Code != CodeBadRequest {
		t.Errorf("attr-less batch item without advisor: %+v, want bad_request item error", batch)
	}
}

// TestAdvisorPhasedAB is the advisor's end-to-end A/B: guidance must
// pay for its own migrations (Olson et al., PAPERS.md). The same
// eight-phase pointer chase runs on two identical machines, one with
// an advisor cycle after every phase and one without, and the advisor
// side's simulated clock is charged every migration's copy cost. The
// run is in simulated time, so the result is exact: a change here is
// a change to the advisor or the machine model, not noise.
func TestAdvisorPhasedAB(t *testing.T) {
	on := advisorPhasedRun(t, true)
	off := advisorPhasedRun(t, false)
	speedup := off.elapsed / on.elapsed
	t.Logf("advisor on: %.2f s simulated, %d move(s), %s; off: %.2f s, %s; speedup %.2fx",
		on.elapsed, on.moves, on.placement, off.elapsed, off.placement, speedup)
	if speedup < 1.15 {
		t.Errorf("speedup %.2fx below the 1.15x floor", speedup)
	}
	if got := math.Round(speedup*100) / 100; got != 1.47 {
		t.Errorf("speedup %.2fx, pinned at 1.47x", speedup)
	}
	if on.moves != 1 || on.placement != "DRAM#0" {
		t.Errorf("with the advisor: %d move(s), final placement %s; want 1 move to DRAM#0", on.moves, on.placement)
	}
	if off.moves != 0 || off.placement != "NVDIMM#2" {
		t.Errorf("without the advisor: %d move(s), final placement %s; want none, NVDIMM#2", off.moves, off.placement)
	}
}

// advisorPhase is one side of TestAdvisorPhasedAB.
type advisorPhase struct {
	elapsed   float64 // simulated seconds, migration copies included
	moves     int
	placement string // the hot lease's final placement
}

// advisorPhasedRun leases a latency-bound buffer while DRAM is full of
// scratch (so it lands on the capacity tier), frees the scratch after
// the first phase, and chases pointers through the lease for eight
// phases. With the advisor on, a cycle runs after every phase.
func advisorPhasedRun(t *testing.T, withAdvisor bool) advisorPhase {
	var cfg Config
	if withAdvisor {
		cfg = Config{AdvisorInterval: time.Hour, AdvisorHysteresis: 2, AdvisorCooldown: 2}
	}
	a := newAdvScenario(t, cfg)
	_, index := a.lease("graph-index", 6*advGiB)
	var run advisorPhase
	for p := 1; p <= 8; p++ {
		a.eng.Phase(fmt.Sprintf("phase-%d", p), []memsim.Access{
			{Buffer: index, RandomReads: 250_000_000, MLP: 4},
		})
		if p == 1 {
			a.freeScratch()
		}
		if withAdvisor {
			n, cost := a.s.AdviseCycle()
			run.moves += n
			a.eng.AdvanceClock(cost)
		}
	}
	run.elapsed = a.eng.Elapsed()
	run.placement = index.NodeNames()
	return run
}
