package interpose

import (
	"errors"
	"strings"
	"testing"

	"hetmem/internal/alloc"
	"hetmem/internal/bench"
	"hetmem/internal/bitmap"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/platform"
)

const gib = uint64(1) << 30

func knlAllocator(t *testing.T) (*alloc.Allocator, *bitmap.Bitmap) {
	t.Helper()
	p, err := platform.Get("knl-snc4-flat")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	results, err := bench.MeasureAll(m, bench.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := memattr.NewRegistry(p.Topo)
	if err := bench.Apply(results, reg); err != nil {
		t.Fatal(err)
	}
	return alloc.New(m, reg), bitmap.NewFromRange(0, 15)
}

func TestRoutingByName(t *testing.T) {
	a, ini := knlAllocator(t)
	ip := New(a, ini, memattr.Capacity)
	if err := ip.AddRule(Rule{Pattern: "csr_*", Attr: memattr.Bandwidth}); err != nil {
		t.Fatal(err)
	}
	if err := ip.AddRule(Rule{Pattern: "bfs_parent", Attr: memattr.Latency}); err != nil {
		t.Fatal(err)
	}

	adj, err := ip.Malloc("csr_adj", gib)
	if err != nil {
		t.Fatal(err)
	}
	if adj.SegmentsSnapshot()[0].Node.Kind() != "MCDRAM" {
		t.Fatalf("csr_adj on %s", adj.NodeNames())
	}
	parent, err := ip.Malloc("bfs_parent", gib)
	if err != nil {
		t.Fatal(err)
	}
	if parent.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("bfs_parent on %s", parent.NodeNames())
	}
	// Unmatched site: default attribute (Capacity -> DRAM on KNL).
	other, err := ip.Malloc("scratch", gib)
	if err != nil {
		t.Fatal(err)
	}
	if other.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("scratch on %s", other.NodeNames())
	}

	hits := ip.Report()
	if len(hits) != 3 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].Rule != 0 || hits[1].Rule != 1 || hits[2].Rule != -1 {
		t.Fatalf("rule indexes = %d %d %d", hits[0].Rule, hits[1].Rule, hits[2].Rule)
	}
	rep := ip.RenderReport()
	for _, want := range []string{"csr_adj", "Bandwidth", "default", "MCDRAM"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestSizeRules(t *testing.T) {
	a, ini := knlAllocator(t)
	ip := New(a, ini, memattr.Capacity)
	// AutoHBW-style: mid-sized allocations to bandwidth memory.
	if err := ip.AddRule(Rule{Pattern: "*", Attr: memattr.Bandwidth, MinSize: 1 << 20, MaxSize: 2 * gib}); err != nil {
		t.Fatal(err)
	}
	small, _ := ip.Malloc("tiny", 4096)
	mid, _ := ip.Malloc("mid", gib)
	big, _ := ip.Malloc("big", 3*gib)
	if small.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("tiny on %s", small.NodeNames())
	}
	if mid.SegmentsSnapshot()[0].Node.Kind() != "MCDRAM" {
		t.Fatalf("mid on %s", mid.NodeNames())
	}
	if big.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("big on %s", big.NodeNames())
	}
}

func TestFirstMatchWins(t *testing.T) {
	a, ini := knlAllocator(t)
	ip := New(a, ini, memattr.Capacity)
	ip.AddRule(Rule{Pattern: "buf*", Attr: memattr.Bandwidth})
	ip.AddRule(Rule{Pattern: "buffer", Attr: memattr.Latency})
	b, _ := ip.Malloc("buffer", gib)
	if b.SegmentsSnapshot()[0].Node.Kind() != "MCDRAM" {
		t.Fatalf("first-match broken: %s", b.NodeNames())
	}
	if len(ip.Rules()) != 2 {
		t.Fatal("Rules() wrong length")
	}
}

func TestAddRuleValidation(t *testing.T) {
	a, ini := knlAllocator(t)
	ip := New(a, ini, memattr.Capacity)
	if err := ip.AddRule(Rule{Pattern: "[", Attr: memattr.Latency}); err == nil {
		t.Fatal("bad glob should fail")
	}
	if err := ip.AddRule(Rule{Pattern: "x", Attr: memattr.ID(99)}); err == nil {
		t.Fatal("unknown attribute should fail")
	}
}

func TestMallocError(t *testing.T) {
	a, ini := knlAllocator(t)
	ip := New(a, ini, memattr.Capacity)
	if _, err := ip.Malloc("huge", 4096*gib); !errors.Is(err, alloc.ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if len(ip.Report()) != 0 {
		t.Fatal("failed allocation must not be logged as a hit")
	}
}

func TestParseRules(t *testing.T) {
	a, _ := knlAllocator(t)
	reg := a.Registry()
	text := `
# Graph500 hints, FLEXMALLOC style
csr_*       Bandwidth
bfs_parent  Latency
*           Capacity   64KiB  -
tiny        Latency    -      2MiB
mid         Bandwidth  1GiB   4GiB
`
	rules, err := ParseRules(strings.NewReader(text), reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 5 {
		t.Fatalf("rules = %d", len(rules))
	}
	if rules[0].Pattern != "csr_*" || reg.Name(rules[0].Attr) != "Bandwidth" {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[2].MinSize != 64<<10 || rules[2].MaxSize != 0 {
		t.Fatalf("rule 2 sizes = %d %d", rules[2].MinSize, rules[2].MaxSize)
	}
	if rules[4].MinSize != 1<<30 || rules[4].MaxSize != 4<<30 {
		t.Fatalf("rule 4 sizes = %d %d", rules[4].MinSize, rules[4].MaxSize)
	}

	for _, bad := range []string{
		"justone",
		"x UnknownAttr",
		"x Latency notasize",
		"x Latency 1KiB 2KiB extra",
		"[ Latency",
	} {
		if _, err := ParseRules(strings.NewReader(bad), reg); !errors.Is(err, ErrBadRule) {
			t.Errorf("ParseRules(%q) err = %v", bad, err)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]uint64{"-": 0, "123": 123, "4KiB": 4096, "2MiB": 2 << 20, "3GiB": 3 << 30}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v", in, got, err)
		}
	}
	if _, err := parseSize("1.5GiB"); err == nil {
		t.Error("fractional size should fail")
	}
}

func TestEndToEndWithRuleFile(t *testing.T) {
	// The complete no-modification flow: load hints, interpose the
	// graph500-shaped allocations, verify placement adapts.
	a, ini := knlAllocator(t)
	rules, err := ParseRules(strings.NewReader("csr_adj Bandwidth\nbfs_* Latency\n"), a.Registry())
	if err != nil {
		t.Fatal(err)
	}
	ip := New(a, ini, memattr.Capacity)
	for _, r := range rules {
		if err := ip.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	var bufs []*memsim.Buffer
	for _, site := range []string{"csr_xadj", "csr_adj", "bfs_parent", "bfs_queue"} {
		b, err := ip.Malloc(site, 512<<20)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	if bufs[1].SegmentsSnapshot()[0].Node.Kind() != "MCDRAM" {
		t.Fatalf("csr_adj on %s", bufs[1].NodeNames())
	}
	if bufs[2].SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("bfs_parent on %s", bufs[2].NodeNames())
	}
}

// FuzzParseRules hardens the hint-file parser: arbitrary text must
// yield an error or rules that re-match deterministically, never a
// panic.
func FuzzParseRules(f *testing.F) {
	for _, seed := range []string{
		"",
		"csr_* Bandwidth",
		"x Latency 1KiB 2GiB",
		"# comment only",
		"[ Latency",
		"a b c d e",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := platform.Get("homogeneous")
		if err != nil {
			t.Skip()
		}
		reg := memattr.NewRegistry(p.Topo)
		rules, err := ParseRules(strings.NewReader(text), reg)
		if err != nil {
			return
		}
		for _, r := range rules {
			// Accepted patterns must be valid globs: matching must not
			// error.
			if r.matches("probe-site", 4096) {
				_ = r
			}
		}
	})
}
