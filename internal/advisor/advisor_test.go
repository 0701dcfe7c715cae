package advisor

// Unit tests for the Tracker's pure policy: first-sighting deltas,
// streak resets when a recommendation flips, cooldown ticks, decision
// ring wraparound, the advice cache, and pruning vanished leases.
// The server-level behaviour (real migrations, budgets, the HTTP
// surface) lives in internal/server's advisor tests.

import (
	"testing"
	"time"

	"hetmem/internal/memsim"
	"hetmem/internal/sensitivity"
)

// hotSample fabricates a latency-bound sample: cumulative counters
// dominated by random misses.
func hotSample(lease uint64, name string, cum uint64) Sample {
	return Sample{
		Lease: lease, Name: name, Placement: "NVDIMM#2", Size: 1 << 20,
		Attr: "Capacity",
		Telemetry: memsim.Telemetry{
			LLCMisses: cum, RandomMisses: cum, Loads: cum * 10,
		},
	}
}

func newTestTracker(hysteresis, cooldown int) *Tracker {
	return New(Config{
		Interval: time.Second,
		Options: sensitivity.Options{
			MinMissShare: 0.01, Hysteresis: hysteresis, CooldownSamples: cooldown,
		},
	})
}

// TestFirstSightingClassifies pins that a lease's very first sample is
// its own interval — an already-hot lease needs no warm-up cycle.
func TestFirstSightingClassifies(t *testing.T) {
	tr := newTestTracker(3, 2)
	recs := tr.Classify([]Sample{hotSample(1, "hot", 1000)})
	if len(recs) != 1 {
		t.Fatalf("first sighting produced %d recommendations, want 1", len(recs))
	}
	if recs[0].AttrName != "Latency" {
		t.Errorf("random-miss-dominated lease classified %q, want Latency", recs[0].AttrName)
	}
	if got := tr.Advice("hot"); got != "Latency" {
		t.Errorf("advice cache %q, want Latency", got)
	}
	if got := tr.Classification(1); got != "Latency" {
		t.Errorf("classification %q, want Latency", got)
	}
}

// TestIdleLeaseHasNoOpinion: a lease that never shows telemetry is
// never classified — an HTTP-only daemon must not mass-demote.
func TestIdleLeaseHasNoOpinion(t *testing.T) {
	tr := newTestTracker(1, 1)
	for i := 0; i < 3; i++ {
		if recs := tr.Classify([]Sample{{Lease: 1, Name: "idle"}}); len(recs) != 0 {
			t.Fatalf("idle lease produced %d recommendations", len(recs))
		}
	}
	if got := tr.Advice("idle"); got != "" {
		t.Errorf("idle lease acquired advice %q", got)
	}
}

// TestHysteresisAndStreakReset: Consider holds until the streak
// completes, and a flipped recommendation restarts the count.
func TestHysteresisAndStreakReset(t *testing.T) {
	tr := newTestTracker(3, 1)
	r := tr.Classify([]Sample{hotSample(1, "a", 1000)})[0]
	if got := tr.Consider(r); got != Hold {
		t.Fatalf("streak 1/3: %v, want Hold", got)
	}
	r = tr.Classify([]Sample{hotSample(1, "a", 2000)})[0]
	if got := tr.Consider(r); got != Hold {
		t.Fatalf("streak 2/3: %v, want Hold", got)
	}
	// The lease goes cold: the recommendation flips to Capacity and
	// the Latency streak must not carry over.
	r = tr.Classify([]Sample{hotSample(1, "a", 2000)})[0] // zero delta
	if r.AttrName != "Capacity" {
		t.Fatalf("cold interval classified %q, want Capacity", r.AttrName)
	}
	if got := tr.Consider(r); got != Hold {
		t.Fatalf("flipped streak 1/3: %v, want Hold", got)
	}
	// Hot again for three consecutive samples → move on the third.
	for i, cum := range []uint64{3000, 4000, 5000} {
		r = tr.Classify([]Sample{hotSample(1, "a", cum)})[0]
		want := Hold
		if i == 2 {
			want = Move
		}
		if got := tr.Consider(r); got != want {
			t.Fatalf("rebuilt streak %d/3: %v, want %v", i+1, got, want)
		}
	}
	if c := tr.Counters(); c.HeldHysteresis != 5 {
		t.Errorf("held_hysteresis counter %d, want 5", c.HeldHysteresis)
	}
}

// TestCooldownAfterMove: RecordMove rests the lease for
// CooldownSamples cycles, with cooldown decisions logged.
func TestCooldownAfterMove(t *testing.T) {
	tr := newTestTracker(1, 2)
	r := tr.Classify([]Sample{hotSample(1, "a", 1000)})[0]
	if got := tr.Consider(r); got != Move {
		t.Fatalf("hysteresis 1: %v, want Move", got)
	}
	tr.RecordMove(r, "NVDIMM#2", "DRAM#0")
	// Cycle 2 ticks the cooldown from 2 to 1 — still resting.
	r = tr.Classify([]Sample{hotSample(1, "a", 2000)})[0]
	if got := tr.Consider(r); got != Cooldown {
		t.Fatalf("cooldown cycle: %v, want Cooldown", got)
	}
	// Cycle 3 ticks it to 0 — free to move again.
	r = tr.Classify([]Sample{hotSample(1, "a", 3000)})[0]
	if got := tr.Consider(r); got != Move {
		t.Fatalf("post-cooldown: %v, want Move", got)
	}
	if c := tr.Counters(); c.Promoted != 1 {
		t.Errorf("promoted counter %d, want 1", c.Promoted)
	}
}

// TestDecisionRingWraps: the log keeps only the newest LogSize
// decisions, oldest first in the snapshot.
func TestDecisionRingWraps(t *testing.T) {
	tr := New(Config{Options: sensitivity.DefaultOptions(), LogSize: 4})
	for i := uint64(1); i <= 6; i++ {
		r := tr.Classify([]Sample{hotSample(i, "x", 1000)})[0]
		tr.RecordHeldBudget(r)
	}
	snap := tr.Snapshot()
	if len(snap.Decisions) != 4 {
		t.Fatalf("ring holds %d decisions, want 4", len(snap.Decisions))
	}
	for i, d := range snap.Decisions {
		if want := uint64(i + 3); d.Lease != want {
			t.Errorf("decision %d is lease %d, want %d (oldest first)", i, d.Lease, want)
		}
	}
	if snap.Counters.HeldBudget != 6 {
		t.Errorf("held_budget counter %d, want 6 (counters outlive the ring)", snap.Counters.HeldBudget)
	}
}

// TestDecisionRingGrowsOnDemand: an idle tracker holds no log, and the
// ring grows one decision at a time, oldest first, up to LogSize.
func TestDecisionRingGrowsOnDemand(t *testing.T) {
	tr := New(Config{Options: sensitivity.DefaultOptions()})
	if tr.log != nil || tr.Snapshot().Decisions != nil {
		t.Fatalf("an idle tracker holds a %d-entry log, want none", cap(tr.log))
	}
	for i := uint64(1); i <= 3; i++ {
		tr.RecordHeldBudget(tr.Classify([]Sample{hotSample(i, "x", 1000)})[0])
	}
	snap := tr.Snapshot()
	if len(snap.Decisions) != 3 || snap.Decisions[0].Lease != 1 || snap.Decisions[2].Lease != 3 {
		t.Fatalf("decisions %+v, want leases 1..3 oldest first", snap.Decisions)
	}
	for i := uint64(4); i <= 2*DefaultLogSize; i++ {
		tr.RecordHeldBudget(tr.Classify([]Sample{hotSample(i, "x", 1000)})[0])
	}
	if n := len(tr.Snapshot().Decisions); n != DefaultLogSize || cap(tr.log) > DefaultLogSize {
		t.Errorf("ring holds %d decisions in %d slots, want %d in at most %d", n, cap(tr.log), DefaultLogSize, DefaultLogSize)
	}
}

// TestVanishedLeaseIsPruned: state for a freed lease is dropped, so a
// recycled lease ID starts with a clean streak.
func TestVanishedLeaseIsPruned(t *testing.T) {
	tr := newTestTracker(2, 1)
	r := tr.Classify([]Sample{hotSample(1, "a", 1000)})[0]
	tr.Consider(r) // streak 1
	tr.Classify(nil)
	// Same ID reappears: its first Consider must be streak 1, not 2.
	r = tr.Classify([]Sample{hotSample(1, "b", 1000)})[0]
	if got := tr.Consider(r); got != Hold {
		t.Fatalf("recycled lease inherited a streak: %v, want Hold", got)
	}
}

// TestRestoreCounters folds replayed totals into the snapshot.
func TestRestoreCounters(t *testing.T) {
	tr := newTestTracker(1, 1)
	tr.RestoreCounters(3, 2)
	c := tr.Snapshot().Counters
	if c.Promoted != 3 || c.Demoted != 2 {
		t.Errorf("restored counters %+v, want 3 promoted / 2 demoted", c)
	}
}
