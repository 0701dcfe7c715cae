package alloc

import (
	"testing"

	"hetmem/internal/bitmap"
	"hetmem/internal/memattr"
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

// TestCandidateCacheBounded: a stream of distinct initiators leaves at
// most candCacheCap entries, and a key hit between the misses keeps
// hitting.
func TestCandidateCacheBounded(t *testing.T) {
	a, hot := xeonAlloc(t)
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
			t.Fatalf("after %d distinct initiators the hot key missed", i+1)
		}
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
