// Package advisor is the daemon's online feedback-driven re-placement
// brain: the live counterpart of the paper's offline VTune workflow.
// Where the paper profiles a run, reads the hot-object report, and
// edits the application to allocate with a better attribute, the
// advisor closes that loop inside hetmemd — it periodically samples
// per-lease access telemetry from memsim, summarizes each interval
// with internal/profile, reclassifies the lease with
// internal/sensitivity (latency-bound → the latency tier,
// bandwidth-bound → the bandwidth tier, cold → the capacity tier), and
// asks the server to migrate leases whose placement disagrees with
// their observed behaviour.
//
// The Tracker is deliberately mechanism-free: it owns classification,
// hysteresis (N consecutive agreeing samples before a move), per-lease
// move cooldown, the rolling decision log, and the advice cache — but
// never touches the allocator or the journal. The server drives it
// once per interval: Classify → per-lease Aligned/Consider →
// RecordMove/RecordHeldBudget around the journaled migrate path.
package advisor

import (
	"sync"
	"time"

	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/profile"
	"hetmem/internal/sensitivity"
)

// The stable reason codes of the decision log.
const (
	// ReasonPromoted: the lease moved toward a performance tier
	// (Latency or Bandwidth recommendation).
	ReasonPromoted = "promoted"
	// ReasonDemoted: the lease moved toward the capacity tier.
	ReasonDemoted = "demoted"
	// ReasonHeldBudget: the move was due but this cycle's migration
	// budget was already spent.
	ReasonHeldBudget = "held_budget"
	// ReasonHeldHysteresis: the classification disagrees with the
	// placement but has not yet persisted for enough consecutive
	// samples, or the lease is in its post-move cooldown.
	ReasonHeldHysteresis = "held_hysteresis"
)

// DefaultLogSize is the decision ring capacity when Config.LogSize is
// zero.
const DefaultLogSize = 256

// Config is the advisor's tunable set.
type Config struct {
	// Interval between sample cycles.
	Interval time.Duration
	// Options holds the shared classification knobs (min miss share,
	// hysteresis, cooldown) — the same struct the offline tools use.
	Options sensitivity.Options
	// LogSize caps the rolling decision log (DefaultLogSize when 0).
	LogSize int
}

// Sample is one lease's telemetry reading for a cycle.
type Sample struct {
	Lease     uint64
	Name      string
	Placement string
	Size      uint64
	// Attr is the lease's current attribute name.
	Attr string
	// Telemetry is the buffer's cumulative published counters.
	Telemetry memsim.Telemetry
}

// Recommendation is one lease's classification for a cycle, produced
// by Classify for every lease that has ever shown activity.
type Recommendation struct {
	Lease     uint64
	Name      string
	Attr      memattr.ID
	AttrName  string
	Rationale string
	// Report is the per-interval delta the classification was read
	// from.
	Report profile.ObjectReport
}

// Action is Consider's verdict for a misplaced lease.
type Action int

// The actions.
const (
	// Hold: streak not yet at the hysteresis threshold (logged as
	// held_hysteresis).
	Hold Action = iota
	// Cooldown: the lease moved recently and is resting (logged as
	// held_hysteresis).
	Cooldown
	// Move: stable disagreement; the server should migrate now.
	Move
)

// Decision is one entry of the rolling decision log.
type Decision struct {
	Cycle  uint64 `json:"cycle"`
	Lease  uint64 `json:"lease"`
	Name   string `json:"name"`
	Reason string `json:"reason"`
	// Attr is the recommended attribute at decision time.
	Attr string `json:"attr,omitempty"`
	// From and To are the placements around a move (set only on
	// promoted/demoted entries).
	From      string `json:"from,omitempty"`
	To        string `json:"to,omitempty"`
	Rationale string `json:"rationale,omitempty"`
}

// Counters are the advisor's lifetime decision totals. Promoted and
// Demoted survive a restart (replayed from advisor-tagged journal
// records); the held counters are session-local.
type Counters struct {
	Promoted       uint64 `json:"promoted"`
	Demoted        uint64 `json:"demoted"`
	HeldBudget     uint64 `json:"held_budget"`
	HeldHysteresis uint64 `json:"held_hysteresis"`
}

// Snapshot is the GET /v1/advisor payload: configuration, state, and
// the rolling decision log, oldest first.
type Snapshot struct {
	Paused         bool                `json:"paused"`
	IntervalMillis int64               `json:"interval_ms"`
	Options        sensitivity.Options `json:"options"`
	Cycles         uint64              `json:"cycles"`
	Counters       Counters            `json:"counters"`
	Decisions      []Decision          `json:"decisions,omitempty"`
}

// leaseState is the advisor's private per-lease memory. It lives here,
// not on the server's pooled lease objects, so lease recycling can
// never leak one lease's streak into another's.
type leaseState struct {
	last     memsim.Telemetry
	haveLast bool
	// active: the buffer has shown nonzero telemetry at least once.
	// Leases never touched by an engine (an HTTP-only daemon) get no
	// opinion — mass-demoting idle control-plane leases is not advice.
	active   bool
	class    string // last classification attr name
	wantName string // attr the current streak argues for
	streak   int
	cooldown int // cycles left before the lease may move again
}

// Tracker holds the advisor's state. All methods are safe for
// concurrent use.
type Tracker struct {
	mu     sync.Mutex
	cfg    Config
	paused bool
	cycle  uint64

	leases map[uint64]*leaseState
	advice map[string]string // by buffer name, for attr-less allocs

	// log is the decision ring. It grows as decisions are logged, so an
	// idle advisor holds none, and wraps once it holds cfg.LogSize;
	// logNext is then the oldest entry.
	log     []Decision
	logNext int

	counters Counters
}

// New builds a Tracker. Zero Options fields are filled from
// sensitivity.DefaultOptions.
func New(cfg Config) *Tracker {
	def := sensitivity.DefaultOptions()
	if cfg.Options.MinMissShare <= 0 {
		cfg.Options.MinMissShare = def.MinMissShare
	}
	if cfg.Options.Hysteresis <= 0 {
		cfg.Options.Hysteresis = def.Hysteresis
	}
	if cfg.Options.CooldownSamples <= 0 {
		cfg.Options.CooldownSamples = def.CooldownSamples
	}
	if cfg.LogSize <= 0 {
		cfg.LogSize = DefaultLogSize
	}
	return &Tracker{
		cfg:    cfg,
		leases: make(map[uint64]*leaseState),
		advice: make(map[string]string),
	}
}

// Config returns the tracker's effective configuration.
func (t *Tracker) Config() Config {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cfg
}

// Pause stops the advisor from acting; it reports false when already
// paused (the 409 the API maps to).
func (t *Tracker) Pause() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.paused {
		return false
	}
	t.paused = true
	return true
}

// Resume lets the advisor act again. Idempotent.
func (t *Tracker) Resume() {
	t.mu.Lock()
	t.paused = false
	t.mu.Unlock()
}

// Paused reports the pause flag.
func (t *Tracker) Paused() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.paused
}

// attrNameOf maps the three recommendation attributes to their
// canonical registry names.
func attrNameOf(id memattr.ID) string {
	switch id {
	case memattr.Latency:
		return "Latency"
	case memattr.Bandwidth:
		return "Bandwidth"
	default:
		return "Capacity"
	}
}

// Classify starts a cycle: it diffs every sample against the lease's
// previous one, classifies the interval deltas, refreshes the advice
// cache, ticks cooldowns, and prunes state for vanished leases. It
// returns a recommendation for every lease that has ever been active.
func (t *Tracker) Classify(samples []Sample) []Recommendation {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cycle++

	type work struct {
		s     Sample
		delta profile.ObjectReport
	}
	seen := make(map[uint64]bool, len(samples))
	works := make([]work, 0, len(samples))
	var total uint64
	for _, s := range samples {
		seen[s.Lease] = true
		st := t.leases[s.Lease]
		if st == nil {
			st = &leaseState{}
			t.leases[s.Lease] = st
		}
		if st.cooldown > 0 {
			st.cooldown--
		}
		prev := st.last
		if !st.haveLast {
			// First sighting: the cumulative counters are the first
			// interval (an already-hot restored lease should not need an
			// extra cycle to be seen).
			prev = memsim.Telemetry{}
		}
		st.last = s.Telemetry
		st.haveLast = true
		if s.Telemetry != (memsim.Telemetry{}) {
			st.active = true
		}
		if !st.active {
			continue
		}
		works = append(works, work{s, profile.ObjectReportDelta(s.Name, s.Placement, s.Size, prev, s.Telemetry)})
		total += works[len(works)-1].delta.LLCMisses
	}
	for id := range t.leases {
		if !seen[id] {
			delete(t.leases, id)
		}
	}

	out := make([]Recommendation, 0, len(works))
	for _, w := range works {
		rec := sensitivity.ClassifyObject(w.delta, total, t.cfg.Options)
		name := attrNameOf(rec.Attr)
		t.leases[w.s.Lease].class = name
		t.advice[w.s.Name] = name
		out = append(out, Recommendation{
			Lease:     w.s.Lease,
			Name:      w.s.Name,
			Attr:      rec.Attr,
			AttrName:  name,
			Rationale: rec.Rationale,
			Report:    w.delta,
		})
	}
	return out
}

// Aligned tells the tracker a lease's placement already matches its
// recommendation: any pending disagreement streak is cleared.
func (t *Tracker) Aligned(lease uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.leases[lease]; st != nil {
		st.streak = 0
		st.wantName = ""
	}
}

// Consider applies hysteresis and cooldown to a misplaced lease. Hold
// and Cooldown verdicts log a held_hysteresis decision; Move means the
// server should migrate (and then call RecordMove or
// RecordHeldBudget).
func (t *Tracker) Consider(r Recommendation) Action {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.leases[r.Lease]
	if st == nil {
		return Hold
	}
	if st.cooldown > 0 {
		t.counters.HeldHysteresis++
		t.logDecision(Decision{
			Lease: r.Lease, Name: r.Name, Reason: ReasonHeldHysteresis,
			Attr: r.AttrName, Rationale: "cooling down after a recent move",
		})
		return Cooldown
	}
	if st.wantName != r.AttrName {
		st.wantName = r.AttrName
		st.streak = 1
	} else {
		st.streak++
	}
	if st.streak < t.cfg.Options.Hysteresis {
		t.counters.HeldHysteresis++
		t.logDecision(Decision{
			Lease: r.Lease, Name: r.Name, Reason: ReasonHeldHysteresis,
			Attr: r.AttrName, Rationale: r.Rationale,
		})
		return Hold
	}
	return Move
}

// RecordMove logs a completed advisor migration and starts the lease's
// cooldown. A Capacity recommendation is a demotion; anything else is
// a promotion.
func (t *Tracker) RecordMove(r Recommendation, from, to string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.leases[r.Lease]; st != nil {
		st.streak = 0
		st.wantName = ""
		st.cooldown = t.cfg.Options.CooldownSamples
	}
	reason := ReasonPromoted
	if r.Attr == memattr.Capacity {
		reason = ReasonDemoted
		t.counters.Demoted++
	} else {
		t.counters.Promoted++
	}
	t.logDecision(Decision{
		Lease: r.Lease, Name: r.Name, Reason: reason,
		Attr: r.AttrName, From: from, To: to, Rationale: r.Rationale,
	})
}

// RecordHeldBudget logs a move that was due but hit the cycle's
// migration budget. The streak is kept, so the move goes first when
// budget returns.
func (t *Tracker) RecordHeldBudget(r Recommendation) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters.HeldBudget++
	t.logDecision(Decision{
		Lease: r.Lease, Name: r.Name, Reason: ReasonHeldBudget,
		Attr: r.AttrName, Rationale: "cycle migration budget exhausted",
	})
}

// logDecision appends to the ring. Caller holds t.mu.
func (t *Tracker) logDecision(d Decision) {
	d.Cycle = t.cycle
	if n := len(t.log); n < t.cfg.LogSize {
		if n == cap(t.log) {
			// Double as append would, but never past the cap.
			t.log = append(make([]Decision, 0, min(max(2*n, 8), t.cfg.LogSize)), t.log...)
		}
		t.log = append(t.log, d)
		return
	}
	t.log[t.logNext] = d
	t.logNext = (t.logNext + 1) % len(t.log)
}

// Advice returns the advisor's current placement recommendation for a
// buffer name ("" when it has never observed one).
func (t *Tracker) Advice(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.advice[name]
}

// Classification returns a lease's last classification attr name (""
// when the lease has never been active).
func (t *Tracker) Classification(lease uint64) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.leases[lease]; st != nil {
		return st.class
	}
	return ""
}

// RestoreCounters folds journal-replayed move totals in, so the
// promotion/demotion counters survive a daemon restart.
func (t *Tracker) RestoreCounters(promoted, demoted uint64) {
	t.mu.Lock()
	t.counters.Promoted += promoted
	t.counters.Demoted += demoted
	t.mu.Unlock()
}

// Counters returns the lifetime decision totals.
func (t *Tracker) Counters() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters
}

// Snapshot captures the /v1/advisor payload, decisions oldest first.
func (t *Tracker) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	var decisions []Decision
	if len(t.log) > 0 {
		decisions = make([]Decision, 0, len(t.log))
		decisions = append(decisions, t.log[t.logNext:]...)
		decisions = append(decisions, t.log[:t.logNext]...)
	}
	return Snapshot{
		Paused:         t.paused,
		IntervalMillis: t.cfg.Interval.Milliseconds(),
		Options:        t.cfg.Options,
		Cycles:         t.cycle,
		Counters:       t.counters,
		Decisions:      decisions,
	}
}
