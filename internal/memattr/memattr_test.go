package memattr

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hetmem/internal/bitmap"
	"hetmem/internal/topology"
)

const gb = 1 << 30

// buildMini: 2 packages × (2 cores × 2 PUs), each package with a DRAM
// node and an NVDIMM node; package 0 also carries an HBM node so the
// three kinds coexist.
func buildMini(t *testing.T) *topology.Topology {
	t.Helper()
	root := topology.New(topology.Machine, -1)
	pu := 0
	node := 0
	for p := 0; p < 2; p++ {
		pkg := root.AddChild(topology.New(topology.Package, p))
		pkg.AddMemChild(topology.NewNUMA(node, "DRAM", 96*gb))
		node++
		pkg.AddMemChild(topology.NewNUMA(node, "NVDIMM", 768*gb))
		node++
		if p == 0 {
			pkg.AddMemChild(topology.NewNUMA(node, "HBM", 16*gb))
			node++
		}
		for c := 0; c < 2; c++ {
			core := pkg.AddChild(topology.New(topology.Core, p*2+c))
			for k := 0; k < 2; k++ {
				core.AddChild(topology.New(topology.PU, pu))
				pu++
			}
		}
	}
	topo, err := topology.Build(root)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func nodeBySub(t *testing.T, topo *topology.Topology, pkg int, sub string) *topology.Object {
	t.Helper()
	for _, n := range topo.NUMANodes() {
		if n.Subtype == sub && n.CPUParent().OSIndex == pkg {
			return n
		}
	}
	t.Fatalf("no %s node in package %d", sub, pkg)
	return nil
}

func TestPredefinedAndAutoValues(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)

	for _, name := range []string{"Capacity", "Locality", "Bandwidth", "Latency",
		"ReadBandwidth", "WriteBandwidth", "ReadLatency", "WriteLatency"} {
		if _, ok := r.ByName(name); !ok {
			t.Errorf("predefined attribute %s missing", name)
		}
	}
	dram0 := nodeBySub(t, topo, 0, "DRAM")
	v, err := r.Value(Capacity, dram0, nil)
	if err != nil || v != 96*gb {
		t.Fatalf("Capacity(dram0) = %d, %v", v, err)
	}
	loc, err := r.Value(Locality, dram0, nil)
	if err != nil || loc != 4 {
		t.Fatalf("Locality(dram0) = %d, %v (want 4 local PUs)", loc, err)
	}
	// Initiator is accepted-and-ignored for initiator-less attributes.
	if _, err := r.Value(Capacity, dram0, bitmap.NewFromIndexes(0)); err != nil {
		t.Fatalf("Value(Capacity, ini) = %v", err)
	}
}

func TestBestTargetByCapacity(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)
	best, v, err := r.BestTarget(Capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Subtype != "NVDIMM" || v != 768*gb {
		t.Fatalf("best capacity target = %v (%d)", best, v)
	}
	// Tie between the two NVDIMMs breaks toward lower logical index.
	if best.CPUParent().OSIndex != 0 {
		t.Fatalf("tie should break to package 0, got %v", best)
	}
}

func TestRegisterCustom(t *testing.T) {
	r := NewRegistry(buildMini(t))
	id, err := r.Register("StreamTriadScore", HigherFirst|NeedInitiator)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name(id) != "StreamTriadScore" {
		t.Fatalf("Name = %q", r.Name(id))
	}
	if _, err := r.Register("StreamTriadScore", HigherFirst); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate register err = %v", err)
	}
	if _, err := r.Register("Bad", HigherFirst|LowerFirst); !errors.Is(err, ErrBadFlags) {
		t.Fatalf("bad flags err = %v", err)
	}
	if _, err := r.Register("Bad2", NeedInitiator); !errors.Is(err, ErrBadFlags) {
		t.Fatalf("no-direction flags err = %v", err)
	}
	fl, err := r.Flags(id)
	if err != nil || fl != HigherFirst|NeedInitiator {
		t.Fatalf("Flags = %v, %v", fl, err)
	}
	if got := fl.String(); got != "higher-first,need-initiator" {
		t.Fatalf("Flags.String = %q", got)
	}
}

func TestSetValueValidation(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)
	dram0 := nodeBySub(t, topo, 0, "DRAM")
	ini := bitmap.NewFromRange(0, 3)

	if err := r.SetValue(ID(999), dram0, ini, 1); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("unknown attr err = %v", err)
	}
	if err := r.SetValue(Bandwidth, nil, ini, 1); err == nil {
		t.Fatal("nil target should fail")
	}
	if err := r.SetValue(Bandwidth, topo.Root(), ini, 1); err == nil {
		t.Fatal("non-NUMA target should fail")
	}
	if err := r.SetValue(Bandwidth, dram0, nil, 1); err == nil {
		t.Fatal("missing initiator should fail")
	}
	if err := r.SetValue(Bandwidth, dram0, bitmap.New(), 1); err == nil {
		t.Fatal("empty initiator should fail")
	}
	if err := r.SetValue(Capacity, dram0, ini, 1); err == nil {
		t.Fatal("initiator on initiator-less attribute should fail")
	}
	// Overwrite semantics.
	if err := r.SetValue(Bandwidth, dram0, ini, 100); err != nil {
		t.Fatal(err)
	}
	if err := r.SetValue(Bandwidth, dram0, ini, 200); err != nil {
		t.Fatal(err)
	}
	v, err := r.Value(Bandwidth, dram0, ini)
	if err != nil || v != 200 {
		t.Fatalf("overwritten value = %d, %v", v, err)
	}
	ivs, err := r.Initiators(Bandwidth, dram0)
	if err != nil || len(ivs) != 1 {
		t.Fatalf("Initiators = %v, %v (want single entry after overwrite)", ivs, err)
	}
}

func TestInitiatorMatching(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)
	dram0 := nodeBySub(t, topo, 0, "DRAM")
	pkg0 := bitmap.NewFromRange(0, 3)
	pkg1 := bitmap.NewFromRange(4, 7)

	if err := r.SetValue(Latency, dram0, pkg0, 80); err != nil {
		t.Fatal(err)
	}
	if err := r.SetValue(Latency, dram0, pkg1, 130); err != nil {
		t.Fatal(err)
	}
	// Exact match.
	if v, _ := r.Value(Latency, dram0, pkg0); v != 80 {
		t.Fatalf("exact match = %d", v)
	}
	// Subset match: a single PU of package 0 resolves to the package-0
	// entry (largest overlap).
	if v, _ := r.Value(Latency, dram0, bitmap.NewFromIndexes(2)); v != 80 {
		t.Fatalf("subset match = %d", v)
	}
	if v, _ := r.Value(Latency, dram0, bitmap.NewFromIndexes(6)); v != 130 {
		t.Fatalf("remote subset match = %d", v)
	}
	// Overlapping both: 3 PUs of pkg0 + 1 of pkg1 -> pkg0 entry wins.
	mixed := bitmap.NewFromIndexes(0, 1, 2, 4)
	if v, _ := r.Value(Latency, dram0, mixed); v != 80 {
		t.Fatalf("mixed match = %d", v)
	}
	// Disjoint initiator: no value.
	far := bitmap.NewFromIndexes(100)
	if _, err := r.Value(Latency, dram0, far); !errors.Is(err, ErrNoValue) {
		t.Fatalf("disjoint err = %v", err)
	}
	// Missing initiator on query.
	if _, err := r.Value(Latency, dram0, nil); err == nil {
		t.Fatal("nil initiator query should fail")
	}
}

func TestBestLocalTargetTwoStep(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)
	pkg0 := bitmap.NewFromRange(0, 3)
	pkg1 := bitmap.NewFromRange(4, 7)

	// Feed bandwidths: HBM (pkg0 only) 350000, DRAM 90000, NVDIMM 10000.
	for p, ini := range []*bitmap.Bitmap{pkg0, pkg1} {
		r.SetValue(Bandwidth, nodeBySub(t, topo, p, "DRAM"), ini, 90000)
		r.SetValue(Bandwidth, nodeBySub(t, topo, p, "NVDIMM"), ini, 10000)
	}
	r.SetValue(Bandwidth, nodeBySub(t, topo, 0, "HBM"), pkg0, 350000)

	// From package 0, the HBM wins.
	best, v, err := r.BestLocalTarget(Bandwidth, bitmap.NewFromIndexes(1))
	if err != nil || best.Subtype != "HBM" || v != 350000 {
		t.Fatalf("best local from pkg0 = %v (%d), %v", best, v, err)
	}
	// From package 1 there is no HBM: DRAM wins. This is the paper's
	// portability claim in miniature — same request, adapted answer.
	best, v, err = r.BestLocalTarget(Bandwidth, bitmap.NewFromIndexes(5))
	if err != nil || best.Subtype != "DRAM" || v != 90000 {
		t.Fatalf("best local from pkg1 = %v (%d), %v", best, v, err)
	}
	// Without a cross-package measurement the HBM is invisible from
	// package 1 (Linux only exposes local performance, per the paper);
	// global BestTarget therefore picks package 1's DRAM.
	best, _, err = r.BestTarget(Bandwidth, bitmap.NewFromIndexes(5))
	if err != nil || best.Subtype != "DRAM" || best.CPUParent().OSIndex != 1 {
		t.Fatalf("global best from pkg1 = %v, %v", best, err)
	}
	// After benchmarking feeds a remote value (fast remote HBM beats
	// local DRAM), global BestTarget finds it — the paper's open
	// question about comparing remote fast memory with local slow one.
	r.SetValue(Bandwidth, nodeBySub(t, topo, 0, "HBM"), pkg1, 200000)
	best, v, err = r.BestTarget(Bandwidth, bitmap.NewFromIndexes(5))
	if err != nil || best.Subtype != "HBM" || v != 200000 {
		t.Fatalf("global best after remote measure = %v (%d), %v", best, v, err)
	}
	// But the *local* two-step selection still prefers local DRAM.
	best, _, err = r.BestLocalTarget(Bandwidth, bitmap.NewFromIndexes(5))
	if err != nil || best.Subtype != "DRAM" {
		t.Fatalf("best local after remote measure = %v, %v", best, err)
	}
}

func TestRankTargetsLowerFirst(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)
	pkg0 := bitmap.NewFromRange(0, 3)
	r.SetValue(Latency, nodeBySub(t, topo, 0, "DRAM"), pkg0, 80)
	r.SetValue(Latency, nodeBySub(t, topo, 0, "NVDIMM"), pkg0, 300)
	r.SetValue(Latency, nodeBySub(t, topo, 0, "HBM"), pkg0, 80)

	ranked, err := r.RankTargets(Latency, pkg0, topo.LocalNUMANodes(pkg0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked %d targets", len(ranked))
	}
	// DRAM and HBM tie at 80; DRAM has the lower logical index.
	if ranked[0].Target.Subtype != "DRAM" || ranked[1].Target.Subtype != "HBM" || ranked[2].Target.Subtype != "NVDIMM" {
		t.Fatalf("order = %s %s %s", ranked[0].Target.Subtype, ranked[1].Target.Subtype, ranked[2].Target.Subtype)
	}
}

func TestBestInitiator(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)
	dram0 := nodeBySub(t, topo, 0, "DRAM")
	pkg0 := bitmap.NewFromRange(0, 3)
	pkg1 := bitmap.NewFromRange(4, 7)
	r.SetValue(Bandwidth, dram0, pkg0, 90000)
	r.SetValue(Bandwidth, dram0, pkg1, 30000)

	ini, v, err := r.BestInitiator(Bandwidth, dram0)
	if err != nil || v != 90000 || !bitmap.Equal(ini, pkg0) {
		t.Fatalf("BestInitiator = %v (%d), %v", ini, v, err)
	}
	if _, _, err := r.BestInitiator(Capacity, dram0); err == nil {
		t.Fatal("BestInitiator on initiator-less attribute should fail")
	}
	hbm := nodeBySub(t, topo, 0, "HBM")
	if _, _, err := r.BestInitiator(Bandwidth, hbm); !errors.Is(err, ErrNoValue) {
		t.Fatalf("no-values err = %v", err)
	}
}

func TestTargetsAndHasValues(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)
	if !r.HasValues(Capacity) {
		t.Fatal("Capacity should have values")
	}
	if r.HasValues(Bandwidth) {
		t.Fatal("Bandwidth should start empty")
	}
	if got := len(r.Targets(Capacity)); got != 5 {
		t.Fatalf("Capacity targets = %d, want 5", got)
	}
	if r.Targets(ID(999)) != nil {
		t.Fatal("unknown attribute should have nil targets")
	}
}

func TestResolveWithFallback(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)
	pkg0 := bitmap.NewFromRange(0, 3)
	r.SetValue(Bandwidth, nodeBySub(t, topo, 0, "DRAM"), pkg0, 90000)

	// ReadBandwidth has no values; falls back to Bandwidth.
	id, fell, err := r.ResolveWithFallback(ReadBandwidth)
	if err != nil || !fell || id != Bandwidth {
		t.Fatalf("fallback = %v, %v, %v", id, fell, err)
	}
	// Bandwidth itself resolves directly.
	id, fell, err = r.ResolveWithFallback(Bandwidth)
	if err != nil || fell || id != Bandwidth {
		t.Fatalf("direct = %v, %v, %v", id, fell, err)
	}
	// Latency has no values and no populated fallback.
	if _, _, err := r.ResolveWithFallback(Latency); !errors.Is(err, ErrNoTarget) {
		t.Fatalf("no-values resolve err = %v", err)
	}
	if _, _, err := r.ResolveWithFallback(ID(999)); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("unknown resolve err = %v", err)
	}
}

func TestIDsOrder(t *testing.T) {
	r := NewRegistry(buildMini(t))
	custom, _ := r.Register("X", HigherFirst)
	ids := r.IDs()
	if ids[0] != Capacity || ids[len(ids)-1] != custom {
		t.Fatalf("IDs order = %v", ids)
	}
}

func TestQuickBestTargetIsExtremum(t *testing.T) {
	topo := buildMini(t)
	nodes := topo.NUMANodes()
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := NewRegistry(topo)
		ini := bitmap.NewFromRange(0, 7)
		want := uint64(0)
		for _, n := range nodes {
			v := uint64(rnd.Intn(1000)) + 1
			if err := r.SetValue(Bandwidth, n, ini, v); err != nil {
				return false
			}
			if v > want {
				want = v
			}
		}
		_, v, err := r.BestTarget(Bandwidth, ini)
		return err == nil && v == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRankIsMonotone(t *testing.T) {
	topo := buildMini(t)
	nodes := topo.NUMANodes()
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := NewRegistry(topo)
		ini := bitmap.NewFromRange(0, 7)
		for _, n := range nodes {
			if err := r.SetValue(Latency, n, ini, uint64(rnd.Intn(500))+1); err != nil {
				return false
			}
		}
		ranked, err := r.RankTargets(Latency, ini, nodes)
		if err != nil || len(ranked) != len(nodes) {
			return false
		}
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Value < ranked[i-1].Value { // LowerFirst: non-decreasing
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLookupAllocations: Value's overlap match builds no intersection,
// and RankTargets allocates nothing but the ranking it returns.
func TestLookupAllocations(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)
	for _, n := range topo.NUMANodes() {
		for i, ini := range []*bitmap.Bitmap{bitmap.NewFromRange(0, 3), bitmap.NewFromRange(4, 7)} {
			if err := r.SetValue(Bandwidth, n, ini, uint64(100*(i+1)+n.OSIndex)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sub := bitmap.NewFromIndexes(1, 2, 5) // no exact match: the overlap path
	dram0 := nodeBySub(t, topo, 0, "DRAM")
	if n := testing.AllocsPerRun(100, func() {
		if _, err := r.Value(Bandwidth, dram0, sub); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Value allocates %.0f times, want 0", n)
	}
	nodes := topo.NUMANodes()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := r.RankTargets(Bandwidth, sub, nodes); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("RankTargets allocates %.0f times, want 1 (its result)", n)
	}
}

// TestAppendLocality: initiators with the same locality share a key,
// and each thing a ranking reads of an initiator splits it.
func TestAppendLocality(t *testing.T) {
	topo := buildMini(t)
	r := NewRegistry(topo)
	pkg0, pkg1 := bitmap.NewFromRange(0, 3), bitmap.NewFromRange(4, 7)
	dram0 := nodeBySub(t, topo, 0, "DRAM")
	for _, ini := range []*bitmap.Bitmap{pkg0, pkg1} {
		if err := r.SetValue(Latency, dram0, ini, 100); err != nil {
			t.Fatal(err)
		}
	}
	key := func(ini *bitmap.Bitmap) string { return string(r.AppendLocality(nil, ini)) }
	beyond := func(b *bitmap.Bitmap) *bitmap.Bitmap { c := b.Copy(); c.Set(100); return c }
	root := topo.Root().CPUSet
	if key(bitmap.NewFromIndexes(0)) != key(bitmap.NewFromIndexes(3)) {
		t.Error("two single PUs of package 0 have different localities")
	}
	for _, c := range []struct {
		why  string
		a, b *bitmap.Bitmap
	}{
		{"overlap weight", bitmap.NewFromIndexes(0), bitmap.NewFromIndexes(0, 1)},
		{"exact match", pkg0, beyond(pkg0)},
		{"whole machine", root, beyond(root)},
		{"empty", bitmap.New(), bitmap.NewFromIndexes(100)},
		{"node touched", bitmap.NewFromIndexes(0), bitmap.NewFromIndexes(4)},
	} {
		if key(c.a) == key(c.b) {
			t.Errorf("%s: %v and %v share a locality", c.why, c.a, c.b)
		}
	}
	// Storing a value for a new initiator extends every key; storing
	// another for a known one does not.
	n := len(key(pkg0))
	if err := r.SetValue(Bandwidth, dram0, pkg1.Copy(), 5); err != nil {
		t.Fatal(err)
	}
	if len(key(pkg0)) != n {
		t.Error("a known initiator changed the key's layout")
	}
	if err := r.SetValue(Bandwidth, dram0, bitmap.NewFromIndexes(0), 5); err != nil {
		t.Fatal(err)
	}
	if len(key(pkg0)) == n {
		t.Error("a new initiator left the key's layout unchanged")
	}
}
