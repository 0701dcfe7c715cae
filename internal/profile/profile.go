// Package profile is the reproduction's stand-in for the Intel VTune
// Profiler Memory Access analysis used in the paper's Section VI-B.
// It turns the simulator's hardware counters into
//
//   - an execution summary in the shape of Table IV — DRAM Bound and
//     PMem Bound as a percentage of clockticks, DRAM/PMem Bandwidth
//     Bound as a percentage of elapsed time, with indicator flags for
//     latency- and bandwidth-sensitivity;
//   - a hot-object report in the shape of Figure 7 — buffers ranked by
//     LLC miss count, with their placement, load/store counts and the
//     random share of their misses;
//   - a per-phase bandwidth timeline.
//
// Counter semantics note (recorded in EXPERIMENTS.md): VTune's "DRAM
// Bound" metric counts cycles stalled on the memory subsystem beyond
// the LLC — which is why the paper's Graph500-on-NVDIMM row shows both
// DRAM Bound 63% and PMem Bound 60.9%. We reproduce that overlapping
// semantics: DRAMBound counts stalls on *any* main memory, PMemBound
// only those on persistent memory.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"hetmem/internal/memsim"
)

// Summary is the Table IV row for one run.
//
// The JSON tags are a stable schema shared by every programmatic
// surface — the repro/membench CLIs and the daemon's /v1/advisor API
// all emit this one shape. The Render* functions below remain the
// human-facing text renderers; new tooling should consume the JSON.
type Summary struct {
	Elapsed    float64 `json:"elapsed_seconds"`
	CPUSeconds float64 `json:"cpu_seconds"`

	// DRAMBoundPct is the share of clockticks stalled on any main
	// memory (VTune "DRAM Bound" semantics, see package comment).
	DRAMBoundPct float64 `json:"dram_bound_pct"`
	// PMemBoundPct is the share of clockticks stalled on persistent
	// memory.
	PMemBoundPct float64 `json:"pmem_bound_pct"`

	// BWBoundPct maps each memory kind to the share of elapsed time
	// spent saturating that kind's bandwidth.
	BWBoundPct map[string]float64 `json:"bw_bound_pct,omitempty"`

	// LatencySensitive and BandwidthSensitive are the indicator flags
	// the paper reads off the VTune summary.
	LatencySensitive   bool `json:"latency_sensitive"`
	BandwidthSensitive bool `json:"bandwidth_sensitive"`
	// BandwidthKind is the kind whose bandwidth flag fired ("" when
	// none).
	BandwidthKind string `json:"bandwidth_kind,omitempty"`
}

// DRAMBWBoundPct and PMemBWBoundPct return the Table IV bandwidth
// columns.
func (s Summary) DRAMBWBoundPct() float64 { return s.BWBoundPct["DRAM"] }

// PMemBWBoundPct returns the persistent-memory bandwidth-bound share.
func (s Summary) PMemBWBoundPct() float64 {
	var v float64
	for kind, pct := range s.BWBoundPct {
		if memsim.IsPMem(kind) {
			v += pct
		}
	}
	return v
}

// Thresholds for the indicator flags.
const (
	bwFlagPct        = 30.0
	latStallPct      = 15.0
	latBWQuietPct    = 15.0
	randomShareSplit = 0.5 // above: misses are irregular -> latency-critical
)

// Summarize computes the execution summary from engine statistics.
func Summarize(st memsim.Stats) Summary {
	s := Summary{
		Elapsed:    st.Elapsed,
		CPUSeconds: st.CPUSeconds,
		BWBoundPct: make(map[string]float64),
	}
	if st.Elapsed <= 0 {
		return s
	}
	var allStall, pmemStall float64
	for kind, sec := range st.StallSeconds {
		allStall += sec
		if memsim.IsPMem(kind) {
			pmemStall += sec
		}
	}
	s.DRAMBoundPct = 100 * allStall / st.Elapsed
	s.PMemBoundPct = 100 * pmemStall / st.Elapsed

	var maxBW float64
	for kind, sec := range st.BWBoundSeconds {
		pct := 100 * sec / st.Elapsed
		s.BWBoundPct[kind] = pct
		if pct > maxBW {
			maxBW = pct
			s.BandwidthKind = kind
		}
	}
	if maxBW >= bwFlagPct {
		s.BandwidthSensitive = true
	} else {
		s.BandwidthKind = ""
	}
	if !s.BandwidthSensitive && s.DRAMBoundPct >= latStallPct && maxBW < latBWQuietPct {
		s.LatencySensitive = true
	}
	return s
}

// ObjectReport is one row of the Figure 7 hot-object list. Like
// Summary, its JSON tags are the stable schema shared by the CLIs and
// the daemon's lease/advisor API.
type ObjectReport struct {
	Name      string `json:"name"`
	Placement string `json:"placement"`
	Size      uint64 `json:"size"`
	LLCMisses uint64 `json:"llc_misses"`
	Loads     uint64 `json:"loads"`
	Stores    uint64 `json:"stores"`
	// RandomShare is the fraction of LLC misses caused by irregular
	// accesses: close to 1 for latency-critical buffers (graph
	// indirection arrays), close to 0 for streaming buffers.
	RandomShare float64 `json:"random_share"`
}

// Sensitivity classifies the buffer the way an analyst reads Figure 7:
// "Latency" when most misses are irregular, "Bandwidth" when the
// buffer streams, "None" when it barely misses.
func (o ObjectReport) Sensitivity() string {
	if o.LLCMisses == 0 {
		return "None"
	}
	if o.RandomShare >= randomShareSplit {
		return "Latency"
	}
	return "Bandwidth"
}

// HotObjects returns the live ones of bufs ranked by LLC misses,
// descending, ties in the order given — the "memory objects ordered by
// importance" view of the VTune Memory Access analysis. Callers pass
// the application's buffers in allocation order.
func HotObjects(bufs []*memsim.Buffer) []ObjectReport {
	var out []ObjectReport
	for _, b := range bufs {
		if b.Freed() {
			continue
		}
		r := ObjectReport{
			Name:      b.Name,
			Placement: b.NodeNames(),
			Size:      b.Size,
			LLCMisses: b.LLCMisses(),
			Loads:     b.Loads(),
			Stores:    b.Stores(),
		}
		if r.LLCMisses > 0 {
			r.RandomShare = float64(b.RandomMisses()) / float64(r.LLCMisses)
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].LLCMisses > out[j].LLCMisses })
	return out
}

// ObjectReportDelta builds one hot-object row from the difference of
// two telemetry snapshots of the same buffer — the incremental,
// per-lease form of HotObjects used by the daemon's tiering advisor,
// which samples counters over an interval instead of reading
// whole-machine cumulative totals. prev may be the zero value for the
// first sample.
func ObjectReportDelta(name, placement string, size uint64, prev, cur memsim.Telemetry) ObjectReport {
	r := ObjectReport{
		Name:      name,
		Placement: placement,
		Size:      size,
		LLCMisses: cur.LLCMisses - prev.LLCMisses,
		Loads:     cur.Loads - prev.Loads,
		Stores:    cur.Stores - prev.Stores,
	}
	if r.LLCMisses > 0 {
		r.RandomShare = float64(cur.RandomMisses-prev.RandomMisses) / float64(r.LLCMisses)
	}
	return r
}

// TimelineEntry is one phase of the bandwidth timeline (the graph part
// of Figure 7).
type TimelineEntry struct {
	Phase      string
	Seconds    float64
	AchievedBW float64
	BoundKind  string
}

// Timeline extracts the per-phase bandwidth sequence.
func Timeline(st memsim.Stats) []TimelineEntry {
	out := make([]TimelineEntry, 0, len(st.Phases))
	for _, p := range st.Phases {
		out = append(out, TimelineEntry{Phase: p.Name, Seconds: p.Seconds, AchievedBW: p.AchievedBW, BoundKind: p.BoundKind})
	}
	return out
}

// RenderSummary formats summaries as the Table IV layout.
func RenderSummary(rows map[string]Summary) string {
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %12s %12s %16s %16s  %s\n", "Run", "DRAM Bound", "PMem Bound", "DRAM BW Bound", "PMem BW Bound", "Flags")
	for _, n := range names {
		s := rows[n]
		var flags []string
		if s.LatencySensitive {
			flags = append(flags, "latency-sensitive")
		}
		if s.BandwidthSensitive {
			flags = append(flags, "bandwidth-sensitive("+s.BandwidthKind+")")
		}
		fmt.Fprintf(&sb, "%-28s %11.1f%% %11.1f%% %15.1f%% %15.1f%%  %s\n",
			n, s.DRAMBoundPct, s.PMemBoundPct, s.DRAMBWBoundPct(), s.PMemBWBoundPct(), strings.Join(flags, ","))
	}
	return sb.String()
}

// RenderObjects formats the hot-object list like Figure 7's table.
func RenderObjects(objs []ObjectReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-18s %14s %14s %14s %8s  %s\n", "Object", "Placement", "LLC Misses", "Loads", "Stores", "Random", "Sensitivity")
	for _, o := range objs {
		fmt.Fprintf(&sb, "%-14s %-18s %14d %14d %14d %7.0f%%  %s\n",
			o.Name, o.Placement, o.LLCMisses, o.Loads, o.Stores, 100*o.RandomShare, o.Sensitivity())
	}
	return sb.String()
}

// RenderTimeline draws the per-phase bandwidth sequence as a compact
// horizontal bar chart — the textual cousin of Figure 7's bandwidth
// graphs. Bars scale to the highest achieved bandwidth.
func RenderTimeline(entries []TimelineEntry) string {
	var max float64
	for _, e := range entries {
		if e.AchievedBW > max {
			max = e.AchievedBW
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %10s %10s  %s\n", "Phase", "seconds", "GiB/s", "bandwidth")
	for _, e := range entries {
		bar := ""
		if max > 0 {
			n := int(e.AchievedBW / max * 40)
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(&sb, "%-16s %10.3f %10.1f  %s\n", e.Phase, e.Seconds, e.AchievedBW, bar)
	}
	return sb.String()
}
