package policy

import (
	"errors"
	"testing"

	"hetmem/internal/bitmap"
	"hetmem/internal/memsim"
	"hetmem/internal/platform"
)

const gib = uint64(1) << 30

func machine(t *testing.T, name string) *memsim.Machine {
	t.Helper()
	p, err := platform.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModeString(t *testing.T) {
	if Default.String() != "default" || Bind.String() != "membind" ||
		Interleave.String() != "interleave" || Preferred.String() != "preferred" {
		t.Fatal("mode names wrong")
	}
}

func TestDefaultFirstTouch(t *testing.T) {
	m := machine(t, "knl-snc4-flat")
	ini := bitmap.NewFromRange(16, 31) // cluster 1
	b, err := Policy{Mode: Default}.Alloc(m, ini, "d", gib)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 1's DRAM (OS 1), never the MCDRAM (OS 5).
	if b.NodeNames() != "DRAM#1" {
		t.Fatalf("default landed on %s", b.NodeNames())
	}
}

func TestBindStrict(t *testing.T) {
	m := machine(t, "knl-snc4-flat")
	ini := bitmap.NewFromRange(0, 15)
	pol := Policy{Mode: Bind, Nodes: []int{4}} // MCDRAM only
	b, err := pol.Alloc(m, ini, "a", 3*gib)
	if err != nil || b.NodeNames() != "MCDRAM#4" {
		t.Fatalf("bind: %v %v", b, err)
	}
	// Strict: a second 3GiB does not fit and must fail, not spill.
	if _, err := pol.Alloc(m, ini, "b", 3*gib); !errors.Is(err, memsim.ErrNoCapacity) {
		t.Fatalf("bind overflow err = %v", err)
	}
	// Multi-node bind walks the set in index order.
	pol = Policy{Mode: Bind, Nodes: []int{4, 0}}
	b, err = pol.Alloc(m, ini, "c", 3*gib)
	if err != nil || b.NodeNames() != "DRAM#0" {
		t.Fatalf("multi bind: %v %v", b, err)
	}
}

func TestInterleave(t *testing.T) {
	m := machine(t, "xeon")
	ini := bitmap.NewFromRange(0, 19)
	b, err := Policy{Mode: Interleave, Nodes: []int{0, 2}}.Alloc(m, ini, "il", 10*gib)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.SegmentsSnapshot()) != 2 || b.SegmentsSnapshot()[0].Bytes != 5*gib {
		t.Fatalf("interleave segments = %+v", b.SegmentsSnapshot())
	}
}

func TestPreferredLinuxRestriction(t *testing.T) {
	m := machine(t, "knl-snc4-flat")
	// Preferring the MCDRAM (OS 4) is invalid: DRAM nodes 0-3 have
	// lower indexes — the paper's footnote, verbatim.
	pol := Policy{Mode: Preferred, Nodes: []int{4}}
	if err := pol.Validate(m); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
	// Preferring DRAM node 0 is fine and falls back when full.
	pol = Policy{Mode: Preferred, Nodes: []int{0}}
	if err := pol.Validate(m); err != nil {
		t.Fatal(err)
	}
	ini := bitmap.NewFromRange(0, 15)
	if _, err := m.Alloc("hog", 23*gib, m.NodeByOS(0)); err != nil {
		t.Fatal(err)
	}
	b, err := pol.Alloc(m, ini, "spill", 2*gib)
	if err != nil {
		t.Fatal(err)
	}
	if b.NodeNames() != "DRAM#1" { // next node by index order
		t.Fatalf("preferred fallback landed on %s", b.NodeNames())
	}
}

func TestValidateErrors(t *testing.T) {
	m := machine(t, "xeon")
	cases := []Policy{
		{Mode: Bind},                          // empty node set
		{Mode: Interleave},                    // empty node set
		{Mode: Preferred, Nodes: []int{0, 1}}, // multi-node preferred
		{Mode: Bind, Nodes: []int{99}},        // unknown node
		{Mode: Mode(42)},                      // unknown mode
	}
	for _, p := range cases {
		if err := p.Validate(m); !errors.Is(err, ErrInvalid) {
			t.Errorf("Validate(%+v) = %v, want ErrInvalid", p, err)
		}
	}
	if _, err := (Policy{Mode: Bind}).Alloc(m, bitmap.NewFromIndexes(0), "x", gib); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Alloc with invalid policy err = %v", err)
	}
}

func TestPlacerProcessBind(t *testing.T) {
	// numactl --membind style: the Table II benchmarking method.
	m := machine(t, "xeon")
	ini := bitmap.NewFromRange(0, 19)
	place := Policy{Mode: Bind, Nodes: []int{2}}.Placer(m, ini)
	b1, err := place("csr_adj", 2*gib)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := place("parent", gib)
	if err != nil {
		t.Fatal(err)
	}
	if b1.NodeNames() != "NVDIMM#2" || b2.NodeNames() != "NVDIMM#2" {
		t.Fatalf("process bind: %s %s", b1.NodeNames(), b2.NodeNames())
	}
}

func TestPolicyVsAllocatorExpressiveness(t *testing.T) {
	// The punchline: "prefer MCDRAM, fall back to DRAM" is invalid as
	// an OS policy but trivial for the attribute allocator (covered in
	// internal/alloc); here we pin down the OS side of the contrast.
	m := machine(t, "knl-snc4-flat")
	pol := Policy{Mode: Preferred, Nodes: []int{4}}
	err := pol.Validate(m)
	if err == nil {
		t.Fatal("Linux should reject MCDRAM-preferred")
	}
	// Bind to both gives index order - DRAM first, the *wrong* order
	// for a bandwidth-hungry buffer.
	b, err := Policy{Mode: Bind, Nodes: []int{0, 4}}.Alloc(m, bitmap.NewFromRange(0, 15), "hot", gib)
	if err != nil {
		t.Fatal(err)
	}
	if b.NodeNames() != "DRAM#0" {
		t.Fatalf("bind order gave %s", b.NodeNames())
	}
}
