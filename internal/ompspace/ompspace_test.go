package ompspace

import (
	"errors"
	"testing"

	"hetmem/internal/alloc"
	"hetmem/internal/bench"
	"hetmem/internal/bitmap"
	"hetmem/internal/hmat"
	"hetmem/internal/memattr"
	"hetmem/internal/platform"
)

const gib = uint64(1) << 30

func knlBase(t *testing.T) (*alloc.Allocator, *bitmap.Bitmap) {
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

func xeonBase(t *testing.T) (*alloc.Allocator, *bitmap.Bitmap) {
	t.Helper()
	p, err := platform.Get("xeon")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	reg := memattr.NewRegistry(p.Topo)
	if err := hmat.Apply(p.HMATTable(), reg); err != nil {
		t.Fatal(err)
	}
	return alloc.New(m, reg), bitmap.NewFromRange(0, 19)
}

func TestSpaceNames(t *testing.T) {
	if HighBWMem.String() != "omp_high_bw_mem_space" || DefaultMem.String() != "omp_default_mem_space" {
		t.Fatal("space names wrong")
	}
}

func TestHighBWSpacePortable(t *testing.T) {
	// The same OpenMP space lands on MCDRAM on KNL and on DRAM on the
	// Xeon — the hardwired memkind baseline errors there instead.
	ka, kini := knlBase(t)
	al, err := NewAllocator(HighBWMem, Traits{}, ka, kini)
	if err != nil {
		t.Fatal(err)
	}
	b, err := al.Alloc("omp", gib)
	if err != nil {
		t.Fatal(err)
	}
	if b.SegmentsSnapshot()[0].Node.Kind() != "MCDRAM" {
		t.Fatalf("KNL high-bw space placed on %s", b.NodeNames())
	}
	al.Free(b)

	xa, xini := xeonBase(t)
	xl, err := NewAllocator(HighBWMem, Traits{}, xa, xini)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := xl.Alloc("omp", gib)
	if err != nil {
		t.Fatal(err)
	}
	if xb.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("Xeon high-bw space placed on %s", xb.NodeNames())
	}
}

func TestLargeCapAndLowLatSpaces(t *testing.T) {
	xa, xini := xeonBase(t)
	lc, _ := NewAllocator(LargeCapMem, Traits{}, xa, xini)
	b, err := lc.Alloc("big", 300*gib)
	if err != nil {
		t.Fatal(err)
	}
	if b.SegmentsSnapshot()[0].Node.Kind() != "NVDIMM" {
		t.Fatalf("large-cap placed on %s", b.NodeNames())
	}
	ll, _ := NewAllocator(LowLatMem, Traits{}, xa, xini)
	lb, err := ll.Alloc("lat", gib)
	if err != nil {
		t.Fatal(err)
	}
	if lb.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("low-lat placed on %s", lb.NodeNames())
	}
}

func TestDefaultSpace(t *testing.T) {
	ka, kini := knlBase(t)
	def, _ := NewAllocator(DefaultMem, Traits{}, ka, kini)
	b, err := def.Alloc("d", gib)
	if err != nil {
		t.Fatal(err)
	}
	if b.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("default space placed on %s", b.NodeNames())
	}
}

func TestFallbackTraits(t *testing.T) {
	// Fill the 4GB MCDRAM, then exercise each fallback trait.
	mk := func(fb Fallback) *Allocator {
		ka, kini := knlBase(t)
		al, err := NewAllocator(HighBWMem, Traits{Fallback: fb}, ka, kini)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := al.Alloc("fill", 4*gib); err != nil {
			t.Fatal(err)
		}
		return al
	}

	// omp_atv_default_mem_fb: spills to the default space (DRAM).
	al := mk(DefaultMemFB)
	b, err := al.Alloc("spill", gib)
	if err != nil {
		t.Fatal(err)
	}
	if b.SegmentsSnapshot()[0].Node.Kind() != "DRAM" {
		t.Fatalf("default fallback placed on %s", b.NodeNames())
	}

	// omp_atv_null_fb: returns the NULL error.
	al = mk(NullFB)
	if _, err := al.Alloc("spill", gib); !errors.Is(err, ErrNullFallback) {
		t.Fatalf("null fallback err = %v", err)
	}

	// omp_atv_abort_fb.
	al = mk(AbortFB)
	if _, err := al.Alloc("spill", gib); !errors.Is(err, ErrAbort) {
		t.Fatalf("abort fallback err = %v", err)
	}
}

func TestSpaceNodesMembership(t *testing.T) {
	ka, kini := knlBase(t)
	hb, _ := NewAllocator(HighBWMem, Traits{}, ka, kini)
	nodes, err := hb.SpaceNodes()
	if err != nil {
		t.Fatal(err)
	}
	// Only the MCDRAM is within 1.25x of the best local bandwidth.
	if len(nodes) != 1 || nodes[0].Kind() != "MCDRAM" {
		t.Fatalf("high-bw space nodes = %v", nodes)
	}
	// The low-latency space contains both KNL memories (latencies are
	// nearly identical) — which is exactly why the paper recommends
	// Latency as Graph500's criterion there: it does not waste MCDRAM.
	ll, _ := NewAllocator(LowLatMem, Traits{}, ka, kini)
	lnodes, err := ll.SpaceNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(lnodes) != 2 {
		t.Fatalf("low-lat space nodes = %d, want 2", len(lnodes))
	}
}

func TestUnknownSpace(t *testing.T) {
	ka, kini := knlBase(t)
	if _, err := NewAllocator(Space(42), Traits{}, ka, kini); err == nil {
		t.Fatal("unknown space should fail")
	}
}

func TestSpaceStringAll(t *testing.T) {
	cases := map[Space]string{
		DefaultMem: "omp_default_mem_space", LargeCapMem: "omp_large_cap_mem_space",
		HighBWMem: "omp_high_bw_mem_space", LowLatMem: "omp_low_lat_mem_space",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d -> %q", s, s.String())
		}
	}
	if Space(42).String() != "Space(42)" {
		t.Errorf("unknown space = %q", Space(42).String())
	}
}

func TestDefaultSpaceExhaustion(t *testing.T) {
	// Even omp_atv_default_mem_fb cannot save an allocation that the
	// default space itself cannot hold.
	ka, kini := knlBase(t)
	al, err := NewAllocator(DefaultMem, Traits{Fallback: DefaultMemFB}, ka, kini)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.Alloc("huge", 4096*gib); !errors.Is(err, ErrNullFallback) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownFallbackTrait(t *testing.T) {
	ka, kini := knlBase(t)
	al, err := NewAllocator(HighBWMem, Traits{Fallback: Fallback(42)}, ka, kini)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.Alloc("fill", 4*gib); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Alloc("spill", gib); err == nil {
		t.Fatal("unknown fallback should fail")
	}
}

func TestFreeThroughAllocator(t *testing.T) {
	ka, kini := knlBase(t)
	al, _ := NewAllocator(HighBWMem, Traits{}, ka, kini)
	b, err := al.Alloc("x", gib)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := al.Free(b); err == nil {
		t.Fatal("double free should fail")
	}
}
