package alloc

import (
	"math/rand"
	"slices"
	"testing"

	"hetmem/internal/bitmap"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/platform"
	"hetmem/internal/topology"
)

// TestCandidateCacheHit: the second identical Candidates call must be
// served from the cache, and both calls must agree on the ranking.
func TestCandidateCacheHit(t *testing.T) {
	a, ini := xeonAlloc(t)
	first, used1, _, err := a.Candidates(memattr.Bandwidth, ini, false)
	if err != nil {
		t.Fatal(err)
	}
	second, used2, _, err := a.Candidates(memattr.Bandwidth, ini, false)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := a.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats after two identical calls: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if used1 != used2 || len(first) != len(second) {
		t.Fatalf("cached ranking disagrees with computed one: %v vs %v", first, second)
	}
	for i := range first {
		if first[i].Target != second[i].Target {
			t.Fatalf("rank %d: cached target %v != computed %v", i, second[i].Target, first[i].Target)
		}
	}
}

// TestCandidateCacheKeying: different attributes, initiators, and the
// remote option must not share entries.
func TestCandidateCacheKeying(t *testing.T) {
	a, ini := xeonAlloc(t)
	other := bitmap.NewFromRange(20, 39) // the other package's cores
	calls := []struct {
		attr   memattr.ID
		ini    *bitmap.Bitmap
		remote bool
	}{
		{memattr.Bandwidth, ini, false},
		{memattr.Latency, ini, false},
		{memattr.Bandwidth, other, false},
		{memattr.Bandwidth, ini, true},
	}
	for _, c := range calls {
		if _, _, _, err := a.Candidates(c.attr, c.ini, c.remote); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := a.CacheStats(); hits != 0 || misses != 4 {
		t.Fatalf("distinct keys should all miss: hits=%d misses=%d, want 0/4", hits, misses)
	}
	// Replaying each key now hits.
	for _, c := range calls {
		if _, _, _, err := a.Candidates(c.attr, c.ini, c.remote); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := a.CacheStats(); hits != 4 {
		t.Fatalf("replayed keys should all hit: hits=%d, want 4", hits)
	}
}

// TestCandidateCacheMachineInvalidation: a memsim fault-state change
// (capacity limit, perf factors, offline) bumps the machine generation
// and must force a re-rank.
func TestCandidateCacheMachineInvalidation(t *testing.T) {
	a, ini := xeonAlloc(t)
	if _, _, _, err := a.Candidates(memattr.Bandwidth, ini, false); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.Candidates(memattr.Bandwidth, ini, false); err != nil {
		t.Fatal(err)
	}
	if hits, _ := a.CacheStats(); hits != 1 {
		t.Fatalf("warm-up should hit once, got %d", hits)
	}

	n := a.Machine().Nodes()[0]
	n.SetCapacityLimit(1 << 20)
	if _, _, _, err := a.Candidates(memattr.Bandwidth, ini, false); err != nil {
		t.Fatal(err)
	}
	if hits, misses := a.CacheStats(); hits != 1 || misses != 2 {
		t.Fatalf("after SetCapacityLimit: hits=%d misses=%d, want 1/2 (stale entry must miss)", hits, misses)
	}

	n.SetOffline(true)
	defer n.SetOffline(false)
	if _, _, _, err := a.Candidates(memattr.Bandwidth, ini, false); err != nil {
		t.Fatal(err)
	}
	if _, misses := a.CacheStats(); misses != 3 {
		t.Fatalf("after SetOffline: misses=%d, want 3", misses)
	}
}

// TestCandidateCacheRegistryInvalidation: registry edits are invisible
// to memsim, so the daemon calls InvalidateCandidates; after it, a
// changed attribute value must produce a re-ranked result.
func TestCandidateCacheRegistryInvalidation(t *testing.T) {
	a, ini := xeonAlloc(t)
	ranked, used, _, err := a.Candidates(memattr.Bandwidth, ini, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) < 2 {
		t.Fatalf("need at least 2 candidates, got %d", len(ranked))
	}
	// Swap the ranking by making the runner-up dramatically faster.
	best, next := ranked[0], ranked[1]
	if err := a.Registry().SetValue(used, next.Target, ini, best.Value*10); err != nil {
		t.Fatal(err)
	}

	// Without invalidation the stale ranking would still be served.
	stale, _, _, err := a.Candidates(memattr.Bandwidth, ini, false)
	if err != nil {
		t.Fatal(err)
	}
	if stale[0].Target != best.Target {
		t.Fatalf("expected the stale cached ranking before invalidation, got %v first", stale[0].Target)
	}

	a.InvalidateCandidates()
	fresh, _, _, err := a.Candidates(memattr.Bandwidth, ini, false)
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0].Target != next.Target {
		t.Fatalf("after InvalidateCandidates the boosted node must rank first: got %v, want %v",
			fresh[0].Target, next.Target)
	}
}

// TestCandidateCacheMatchesUncachedRanking: for every key, a miss and
// a hit both return what rankCandidates, the uncached reference,
// computes.
func TestCandidateCacheMatchesUncachedRanking(t *testing.T) {
	a, ini := xeonAlloc(t)
	other := bitmap.NewFromRange(20, 39)
	for _, attr := range []memattr.ID{memattr.Bandwidth, memattr.Latency, memattr.Capacity} {
		for _, c := range []*bitmap.Bitmap{ini, other} {
			for _, remote := range []bool{false, true} {
				want, wantUsed, wantFell, err := a.rankCandidates(attr, c, remote)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ { // miss, then hit
					got, used, fell, err := a.Candidates(attr, c, remote)
					if err != nil {
						t.Fatal(err)
					}
					if used != wantUsed || fell != wantFell || len(got) != len(want) {
						t.Fatalf("attr %v ini %v remote %v pass %d: got %v/%v/%v, want %v/%v/%v",
							attr, c, remote, pass, got, used, fell, want, wantUsed, wantFell)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("attr %v ini %v remote %v pass %d rank %d: %v, want %v",
								attr, c, remote, pass, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	if hits, misses := a.CacheStats(); hits != 12 || misses != 12 {
		t.Fatalf("cache stats: hits=%d misses=%d, want 12/12", hits, misses)
	}
}

// TestCachedRankingNotCorruptedByAvoid: demote must copy the cached
// slice — an Alloc with WithAvoid between two Candidates calls must not
// reorder the cached ranking in place.
func TestCachedRankingNotCorruptedByAvoid(t *testing.T) {
	a, ini := xeonAlloc(t)
	ranked, _, _, err := a.Candidates(memattr.Bandwidth, ini, false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]memattr.TargetValue, len(ranked))
	copy(want, ranked)

	// Avoid the best-ranked target: the allocation lands elsewhere.
	best := ranked[0].Target
	buf, dec, err := a.Alloc("avoid", 1<<20, memattr.Bandwidth, ini,
		WithAvoid(func(o *topology.Object) bool { return o == best }))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Machine().Free(buf)
	if dec.Target == best {
		t.Fatalf("avoided target was chosen anyway")
	}

	again, _, _, err := a.Candidates(memattr.Bandwidth, ini, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if again[i].Target != want[i].Target {
			t.Fatalf("cached ranking mutated by WithAvoid: rank %d is %v, want %v",
				i, again[i].Target, want[i].Target)
		}
	}
}

// sparseInitiator returns the i-th distinct initiator drawn from the
// first package's cores: the set bits of i+1.
func sparseInitiator(i int) *bitmap.Bitmap {
	b := bitmap.New()
	for bit := 0; i+1 >= 1<<bit; bit++ {
		if (i+1)&(1<<bit) != 0 {
			b.Set(bit)
		}
	}
	return b
}

// perPULocalities records a value of a custom attribute for each of
// xeon's PUs alone. A ranking then reads which PUs an initiator holds,
// so every sparseInitiator is a locality of its own.
func perPULocalities(t *testing.T, a *Allocator) {
	t.Helper()
	reg := a.Registry()
	id, err := reg.Register("PerPU", memattr.HigherFirst|memattr.NeedInitiator)
	if err != nil {
		t.Fatal(err)
	}
	node := reg.Topology().NUMANodes()[0]
	for pu := range 40 {
		if err := reg.SetValue(id, node, bitmap.NewFromIndexes(pu), uint64(pu+1)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCandidateCacheBounded: a stream of distinct localities leaves at
// most candCacheCap entries, and a key hit between the misses keeps
// hitting.
func TestCandidateCacheBounded(t *testing.T) {
	a, hot := xeonAlloc(t)
	perPULocalities(t, a)
	if _, _, _, err := a.Candidates(memattr.Bandwidth, hot, false); err != nil {
		t.Fatal(err)
	}
	for i := range 10000 {
		if _, _, _, err := a.Candidates(memattr.Bandwidth, sparseInitiator(i), false); err != nil {
			t.Fatal(err)
		}
		hits, _ := a.CacheStats()
		if _, _, _, err := a.Candidates(memattr.Bandwidth, hot, false); err != nil {
			t.Fatal(err)
		}
		if now, _ := a.CacheStats(); now != hits+1 {
			t.Fatalf("after %d distinct localities the hot key missed", i+1)
		}
	}
	if hits, misses := a.CacheStats(); hits != 10000 || misses != 10001 {
		t.Fatalf("hits=%d misses=%d, want 10000/10001: the localities were not distinct", hits, misses)
	}
	if n := len(a.cache.idx); n > candCacheCap {
		t.Fatalf("cache holds %d entries, cap %d", n, candCacheCap)
	}
	if n := len(a.cache.slots); n != candCacheCap {
		t.Fatalf("cache has %d slots after 10000 keys, want %d", n, candCacheCap)
	}
}

// TestCandidateCacheEvictsStaleFirst: once the generation moves, a full
// cache recycles stale entries before any current one, referenced or
// not.
func TestCandidateCacheEvictsStaleFirst(t *testing.T) {
	a, hot := xeonAlloc(t)
	perPULocalities(t, a)
	for i := range candCacheCap {
		if _, _, _, err := a.Candidates(memattr.Bandwidth, sparseInitiator(i), false); err != nil {
			t.Fatal(err)
		}
	}
	// Referenced entries in the back half: a clock that ignored the
	// generation would pass over them and come round to hot first.
	for i := candCacheCap / 2; i < candCacheCap; i++ {
		if _, _, _, err := a.Candidates(memattr.Bandwidth, sparseInitiator(i), false); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(a.cache.slots); n != candCacheCap {
		t.Fatalf("cache has %d slots, want it full at %d", n, candCacheCap)
	}
	a.InvalidateCandidates()
	// Ranked under the new generation and never hit again.
	if _, _, _, err := a.Candidates(memattr.Bandwidth, hot, false); err != nil {
		t.Fatal(err)
	}
	for i := range candCacheCap - 1 {
		if _, _, _, err := a.Candidates(memattr.Latency, sparseInitiator(i), false); err != nil {
			t.Fatal(err)
		}
	}
	hits, _ := a.CacheStats()
	if _, _, _, err := a.Candidates(memattr.Bandwidth, hot, false); err != nil {
		t.Fatal(err)
	}
	if now, _ := a.CacheStats(); now != hits+1 {
		t.Fatal("a current entry was evicted while stale ones remained")
	}
}

// cpulessAlloc is a machine no platform models: two packages of four
// PUs with DRAM each, and a third package with memory but no PU. Its
// node has an empty locality, so it is local only to an initiator that
// is exactly the whole machine.
func cpulessAlloc(t *testing.T) *Allocator {
	t.Helper()
	root := topology.New(topology.Machine, -1)
	for p := range 3 {
		pkg := root.AddChild(topology.New(topology.Package, p))
		pkg.AddMemChild(topology.NewNUMA(p, "DRAM", 64*gib))
		if p == 2 {
			continue
		}
		for c := range 4 {
			pkg.AddChild(topology.New(topology.Core, 4*p+c)).AddChild(topology.New(topology.PU, 4*p+c))
		}
	}
	topo, err := topology.Build(root)
	if err != nil {
		t.Fatal(err)
	}
	dram := memsim.NodeModel{Kind: "DRAM", ReadBW: 100, WriteBW: 50, TotalBW: 90, PerThreadBW: 10, IdleLatency: 90, LoadedLatency: 200}
	m, err := memsim.NewMachine(topo, memsim.MachineModel{Nodes: map[int]memsim.NodeModel{0: dram, 1: dram, 2: dram}})
	if err != nil {
		t.Fatal(err)
	}
	reg := memattr.NewRegistry(topo)
	for _, n := range topo.NUMANodes() {
		for p := range 2 {
			ini := bitmap.NewFromRange(4*p, 4*p+3)
			bw, lat := uint64(100-10*n.OSIndex), uint64(90+10*n.OSIndex)
			if bitmap.Intersects(ini, n.CPUSet) {
				bw, lat = bw*2, lat/2
			}
			if err := reg.SetValue(memattr.Bandwidth, n, ini, bw); err != nil {
				t.Fatal(err)
			}
			if err := reg.SetValue(memattr.Latency, n, ini, lat); err != nil {
				t.Fatal(err)
			}
		}
	}
	return New(m, reg)
}

// storedInitiators lists the distinct initiators the registry holds
// values for.
func storedInitiators(reg *memattr.Registry) []*bitmap.Bitmap {
	var out []*bitmap.Bitmap
	for _, id := range reg.IDs() {
		for _, n := range reg.Topology().NUMANodes() {
			ivs, _ := reg.Initiators(id, n)
			for _, iv := range ivs {
				if iv.Initiator != nil && !slices.ContainsFunc(out, func(b *bitmap.Bitmap) bool { return bitmap.Equal(b, iv.Initiator) }) {
					out = append(out, iv.Initiator)
				}
			}
		}
	}
	return out
}

// probeInitiators is what the differential test asks for: seeded
// sparse sets and ranges of PUs, the whole machine, each stored
// initiator exactly, and each of those last two widened by a PU the
// machine does not have, which changes nothing but exactness.
func probeInitiators(reg *memattr.Registry, rng *rand.Rand) []*bitmap.Bitmap {
	root := reg.Topology().Root().CPUSet
	pus := root.Indexes()
	beyond := root.Last() + 1
	widen := func(b *bitmap.Bitmap) *bitmap.Bitmap { c := b.Copy(); c.Set(beyond); return c }
	var out []*bitmap.Bitmap
	for range 24 {
		b := bitmap.New()
		for range 1 + rng.Intn(4) {
			b.Set(pus[rng.Intn(len(pus))])
		}
		lo := rng.Intn(len(pus))
		hi := lo + rng.Intn(len(pus)-lo)
		out = append(out, b, bitmap.NewFromRange(pus[lo], pus[hi]))
	}
	for _, b := range append(storedInitiators(reg), root) {
		out = append(out, b.Copy(), widen(b))
	}
	// A set the machine does not touch, then the empty set: they share
	// every overlap, but only the empty one is an error to rank for.
	return append(out, bitmap.NewFromIndexes(beyond), bitmap.New())
}

// TestCandidatesMatchRankingEveryPlatform is the differential test of
// the locality key: on every platform, for each attribute, probe
// initiator and remote option, Candidates — on its first call, a miss
// or a hit on another initiator's ranking, and on its second, a hit —
// returns exactly what rankCandidates computes for that initiator.
// It holds again after a registry edit records a new initiator whose
// value reorders the targets, and InvalidateCandidates.
func TestCandidatesMatchRankingEveryPlatform(t *testing.T) {
	shared := 0
	for _, name := range append(platform.Names(), "cpuless", "undiscovered") {
		t.Run(name, func(t *testing.T) {
			var a *Allocator
			switch name {
			case "cpuless":
				a = cpulessAlloc(t)
			case "undiscovered":
				// Only the attributes the topology gives, none of
				// them per initiator: a locality is which nodes an
				// initiator touches.
				x := discoveredAlloc(t, "xeon")
				a = New(x.Machine(), memattr.NewRegistry(x.Registry().Topology()))
			default:
				a = discoveredAlloc(t, name)
			}
			check := func(phase string) {
				rng := rand.New(rand.NewSource(int64(len(name))))
				for _, attr := range []memattr.ID{memattr.Bandwidth, memattr.Latency, memattr.Capacity, memattr.Locality} {
					for _, ini := range probeInitiators(a.Registry(), rng) {
						for _, remote := range []bool{false, true} {
							want, wantUsed, wantFell, wantErr := a.rankCandidates(attr, ini, remote)
							for pass := range 2 {
								hits, _ := a.CacheStats()
								got, used, fell, err := a.Candidates(attr, ini, remote)
								now, _ := a.CacheStats()
								if (err != nil) != (wantErr != nil) || used != wantUsed || fell != wantFell || !slices.Equal(got, want) {
									t.Fatalf("%s: attr %s ini %v remote %v pass %d: got %v/%v/%v/%v, want %v/%v/%v/%v",
										phase, a.Registry().Name(attr), ini, remote, pass, got, used, fell, err, want, wantUsed, wantFell, wantErr)
								}
								switch {
								case pass == 1 && err == nil && now != hits+1:
									t.Fatalf("%s: attr %s ini %v remote %v: the second call missed", phase, a.Registry().Name(attr), ini, remote)
								case pass == 0 && now != hits:
									shared++
								}
							}
						}
					}
				}
			}
			check("discovered")

			// Record a new initiator: a stored one less its last PU,
			// made the best initiator for the target the stored one
			// ranks last. Widened, it overlaps both equally and takes
			// the older's value; exactly, it takes its own.
			stored := storedInitiators(a.Registry())
			if len(stored) == 0 {
				return // no initiator to refine, and nothing to rank for it
			}
			old := stored[0]
			sub := old.Copy()
			sub.Clr(old.Last())
			used, _, err := a.Registry().ResolveWithFallback(memattr.Bandwidth)
			if err != nil {
				t.Fatal(err)
			}
			ranked, _, _, err := a.rankCandidates(used, old, true)
			if err != nil || len(ranked) == 0 {
				t.Fatalf("ranking for %v: %v, %v", old, ranked, err)
			}
			if err := a.Registry().SetValue(used, ranked[len(ranked)-1].Target, sub, 10*ranked[0].Value+1); err != nil {
				t.Fatal(err)
			}
			if n := len(storedInitiators(a.Registry())); n != len(stored)+1 {
				t.Fatalf("the edit left %d stored initiators, want %d", n, len(stored)+1)
			}
			a.InvalidateCandidates()
			check("edited")
		})
	}
	if shared == 0 {
		t.Error("no first call hit a ranking of another initiator: the test does not exercise the locality key")
	}
}
