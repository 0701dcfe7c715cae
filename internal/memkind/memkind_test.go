package memkind

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

func TestKindString(t *testing.T) {
	if Default.String() != "MEMKIND_DEFAULT" || HBW.String() != "MEMKIND_HBW" {
		t.Fatal("kind names wrong")
	}
}

func TestHBWOnKNL(t *testing.T) {
	m := machine(t, "knl-snc4-flat")
	k := New(m, bitmap.NewFromRange(0, 15))
	if err := k.CheckAvailable(HBW); err != nil {
		t.Fatal(err)
	}
	b, err := k.Malloc(HBW, "hot", gib)
	if err != nil {
		t.Fatal(err)
	}
	if b.NodeNames() != "MCDRAM#4" {
		t.Fatalf("placed on %s", b.NodeNames())
	}
}

func TestHBWFailsOnXeon(t *testing.T) {
	// The portability failure the paper's allocator avoids: the same
	// code that worked on KNL errors on the Xeon.
	m := machine(t, "xeon")
	k := New(m, bitmap.NewFromRange(0, 19))
	if err := k.CheckAvailable(HBW); !errors.Is(err, ErrKindUnavailable) {
		t.Fatalf("check err = %v", err)
	}
	if _, err := k.Malloc(HBW, "hot", gib); !errors.Is(err, ErrKindUnavailable) {
		t.Fatalf("malloc err = %v", err)
	}
}

func TestDefaultGoesToDRAM(t *testing.T) {
	for _, pname := range []string{"xeon", "knl-snc4-flat", "fictitious"} {
		m := machine(t, pname)
		k := New(m, bitmap.NewFromRange(0, 3))
		b, err := k.Malloc(Default, "d", gib)
		if err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		if b.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
			t.Fatalf("%s: default landed on %s", pname, b.NodeNames())
		}
	}
}

func TestHBWPreferredFallsBack(t *testing.T) {
	m := machine(t, "knl-snc4-flat")
	k := New(m, bitmap.NewFromRange(0, 15))
	// Fits MCDRAM.
	b1, err := k.Malloc(HBWPreferred, "fit", 3*gib)
	if err != nil || b1.SegmentsSnapshot()[0].Node.Kind() != "MCDRAM" {
		t.Fatalf("fit: %v %v", b1, err)
	}
	// MCDRAM now too full: falls back to default DRAM.
	b2, err := k.Malloc(HBWPreferred, "spill", 3*gib)
	if err != nil || b2.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("spill: %v %v", b2, err)
	}
	// On the Xeon (no HBM at all) HBWPreferred degenerates to default.
	xm := machine(t, "xeon")
	xk := New(xm, bitmap.NewFromRange(0, 19))
	b3, err := xk.Malloc(HBWPreferred, "x", gib)
	if err != nil || b3.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("xeon preferred: %v %v", b3, err)
	}
}

func TestPMemKind(t *testing.T) {
	xm := machine(t, "xeon")
	xk := New(xm, bitmap.NewFromRange(0, 19))
	b, err := xk.Malloc(PMem, "persist", 10*gib)
	if err != nil || b.SegmentsSnapshot()[0].Node.Kind() != "NVDIMM" {
		t.Fatalf("pmem on xeon: %v %v", b, err)
	}
	km := machine(t, "knl-snc4-flat")
	kk := New(km, bitmap.NewFromRange(0, 15))
	if _, err := kk.Malloc(PMem, "persist", gib); !errors.Is(err, ErrKindUnavailable) {
		t.Fatalf("pmem on knl err = %v", err)
	}
}

func TestUnknownKind(t *testing.T) {
	m := machine(t, "xeon")
	k := New(m, bitmap.NewFromRange(0, 19))
	if _, err := k.Malloc(Kind(42), "x", gib); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if err := k.CheckAvailable(Kind(42)); err == nil {
		t.Fatal("unknown kind check should fail")
	}
}

func TestAutoHBW(t *testing.T) {
	m := machine(t, "knl-snc4-flat")
	a := &AutoHBW{K: New(m, bitmap.NewFromRange(0, 15)), Low: 1 << 20, High: 2 * gib}
	small, err := a.Malloc("small", 4096)
	if err != nil || small.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("small: %v %v", small, err)
	}
	mid, err := a.Malloc("mid", gib)
	if err != nil || mid.SegmentsSnapshot()[0].Node.Kind() != "MCDRAM" {
		t.Fatalf("mid: %v %v", mid, err)
	}
	big, err := a.Malloc("big", 3*gib)
	if err != nil || big.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("big: %v %v", big, err)
	}
	// No upper bound.
	a2 := &AutoHBW{K: New(m, bitmap.NewFromRange(16, 31)), Low: 1 << 20}
	huge, err := a2.Malloc("huge", 3*gib)
	if err != nil || huge.SegmentsSnapshot()[0].Node.Kind() != "MCDRAM" {
		t.Fatalf("huge: %v %v", huge, err)
	}
}

func TestKindStringAll(t *testing.T) {
	cases := map[Kind]string{
		Default: "MEMKIND_DEFAULT", HBW: "MEMKIND_HBW",
		HBWPreferred: "MEMKIND_HBW_PREFERRED", PMem: "MEMKIND_PMEM",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d -> %q", k, k.String())
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("unknown kind string = %q", Kind(42).String())
	}
}

func TestCheckAvailableAll(t *testing.T) {
	xm := machine(t, "xeon")
	xk := New(xm, bitmap.NewFromRange(0, 19))
	if err := xk.CheckAvailable(Default); err != nil {
		t.Fatal(err)
	}
	if err := xk.CheckAvailable(PMem); err != nil {
		t.Fatal(err)
	}
	if err := xk.CheckAvailable(HBWPreferred); !errors.Is(err, ErrKindUnavailable) {
		t.Fatalf("HBWPreferred on xeon = %v", err)
	}
	km := machine(t, "knl-snc4-flat")
	kk := New(km, bitmap.NewFromRange(0, 15))
	if err := kk.CheckAvailable(HBWPreferred); err != nil {
		t.Fatal(err)
	}
	if err := kk.CheckAvailable(PMem); !errors.Is(err, ErrKindUnavailable) {
		t.Fatalf("PMem on knl = %v", err)
	}
	// An initiator with no local nodes at all.
	far := New(xm, bitmap.NewFromIndexes(500))
	if err := far.CheckAvailable(Default); !errors.Is(err, ErrKindUnavailable) {
		t.Fatalf("no-local-node default = %v", err)
	}
	if _, err := far.Malloc(Default, "x", 1); !errors.Is(err, ErrKindUnavailable) {
		t.Fatalf("no-local-node malloc = %v", err)
	}
}

func TestDefaultFallsBackToAnyLocal(t *testing.T) {
	// A machine whose only memory is HBM: Default still allocates.
	p, err := platform.FromSynthetic("hbm-only", "package:1 core:2 pu:1 mem:package:HBM:16GiB:bw=200:lat=100")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, bitmap.NewFromRange(0, 1))
	b, err := k.Malloc(Default, "d", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if b.SegmentsSnapshot()[0].Node.Kind() != "HBM" {
		t.Fatalf("default on %s", b.NodeNames())
	}
}
