package bitmap

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestZeroValueEmpty(t *testing.T) {
	var b Bitmap
	if !b.IsZero() {
		t.Fatal("zero value should be empty")
	}
	if b.Weight() != 0 {
		t.Fatalf("Weight = %d, want 0", b.Weight())
	}
	if b.First() != -1 || b.Last() != -1 {
		t.Fatalf("First/Last = %d/%d, want -1/-1", b.First(), b.Last())
	}
	if b.String() != "0x0" {
		t.Fatalf("String = %q, want 0x0", b.String())
	}
	if b.ListString() != "" {
		t.Fatalf("ListString = %q, want empty", b.ListString())
	}
}

func TestSetTestClr(t *testing.T) {
	b := New()
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("Test(%d) = false after Set", i)
		}
	}
	if b.Weight() != 8 {
		t.Fatalf("Weight = %d, want 8", b.Weight())
	}
	b.Clr(64)
	if b.Test(64) {
		t.Fatal("Test(64) = true after Clr")
	}
	if b.Test(63) != true || b.Test(65) != true {
		t.Fatal("Clr(64) disturbed neighbors")
	}
	// Clearing absent/out-of-range indexes is a no-op.
	b.Clr(5000)
	b.Clr(-3)
	if b.Weight() != 7 {
		t.Fatalf("Weight = %d, want 7", b.Weight())
	}
}

func TestTestNegative(t *testing.T) {
	b := NewFromIndexes(0)
	if b.Test(-1) {
		t.Fatal("Test(-1) should be false")
	}
}

func TestSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) should panic")
		}
	}()
	New().Set(-1)
}

func TestSetRangeBadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetRange(5,2) should panic")
		}
	}()
	New().SetRange(5, 2)
}

func TestRanges(t *testing.T) {
	b := NewFromRange(10, 20)
	if b.Weight() != 11 {
		t.Fatalf("Weight = %d, want 11", b.Weight())
	}
	if b.First() != 10 || b.Last() != 20 {
		t.Fatalf("First/Last = %d/%d", b.First(), b.Last())
	}
	b.ClrRange(12, 18)
	if got := b.ListString(); got != "10-11,19-20" {
		t.Fatalf("ListString = %q", got)
	}
}

func TestNextIteration(t *testing.T) {
	b := NewFromIndexes(3, 64, 65, 200)
	var got []int
	for i := b.Next(-1); i >= 0; i = b.Next(i) {
		got = append(got, i)
	}
	want := []int{3, 64, 65, 200}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iteration = %v, want %v", got, want)
	}
	if b.Next(200) != -1 {
		t.Fatal("Next past last should be -1")
	}
	if b.Next(-10) != 3 {
		t.Fatal("Next with very negative prev should return First")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	b := NewFromRange(0, 9)
	n := 0
	b.ForEach(func(i int) bool {
		n++
		return i < 4
	})
	if n != 6 { // visits 0..5, stops after fn(5) returns false? fn(4) returns false -> stops after visiting 0,1,2,3,4
		// fn returns i<4: visits 0(true),1,2,3(true),4(false) => 5 visits
		t.Logf("n=%d", n)
	}
	if n != 5 {
		t.Fatalf("ForEach visited %d, want 5", n)
	}
}

func TestSetOps(t *testing.T) {
	a := NewFromIndexes(1, 2, 3, 100)
	b := NewFromIndexes(2, 3, 4)

	if got := AndNew(a, b).ListString(); got != "2-3" {
		t.Fatalf("And = %q", got)
	}
	if got := OrNew(a, b).ListString(); got != "1-4,100" {
		t.Fatalf("Or = %q", got)
	}
	if got := XorNew(a, b).ListString(); got != "1,4,100" {
		t.Fatalf("Xor = %q", got)
	}
	if got := AndNotNew(a, b).ListString(); got != "1,100" {
		t.Fatalf("AndNot = %q", got)
	}
}

func TestPredicates(t *testing.T) {
	a := NewFromIndexes(1, 2)
	b := NewFromIndexes(2, 3)
	c := NewFromIndexes(1, 2, 3)
	if !Intersects(a, b) {
		t.Fatal("a and b should intersect")
	}
	if Intersects(a, NewFromIndexes(99)) {
		t.Fatal("disjoint sets should not intersect")
	}
	if !IsIncluded(a, c) {
		t.Fatal("a should be included in c")
	}
	if IsIncluded(c, a) {
		t.Fatal("c should not be included in a")
	}
	if !IsIncluded(New(), a) {
		t.Fatal("empty set is included in everything")
	}
	if !Equal(NewFromIndexes(5), NewFromIndexes(5)) {
		t.Fatal("equal sets reported unequal")
	}
	if Equal(NewFromIndexes(5), NewFromIndexes(6)) {
		t.Fatal("unequal sets reported equal")
	}
	// Equality must ignore trailing zero words.
	d := NewFromIndexes(5, 500)
	d.Clr(500)
	if !Equal(d, NewFromIndexes(5)) {
		t.Fatal("trailing zero words broke Equal")
	}
}

func TestCopyIndependent(t *testing.T) {
	a := NewFromIndexes(1, 2)
	b := a.Copy()
	b.Set(3)
	if a.Test(3) {
		t.Fatal("Copy is not independent")
	}
}

func TestSinglify(t *testing.T) {
	b := NewFromIndexes(7, 8, 9)
	b.Singlify()
	if got := b.ListString(); got != "7" {
		t.Fatalf("Singlify = %q, want 7", got)
	}
	e := New()
	e.Singlify()
	if !e.IsZero() {
		t.Fatal("Singlify of empty should stay empty")
	}
}

func TestStringHex(t *testing.T) {
	cases := []struct {
		idxs []int
		want string
	}{
		{nil, "0x0"},
		{[]int{0}, "0x00000001"},
		{[]int{4, 8}, "0x00000110"},
		{[]int{32}, "0x00000001,0x00000000"},
		{[]int{0, 32, 33}, "0x00000003,0x00000001"},
		{[]int{64}, "0x00000001,0x00000000,0x00000000"},
	}
	for _, c := range cases {
		b := NewFromIndexes(c.idxs...)
		if got := b.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.idxs, got, c.want)
		}
		back, err := ParseHex(c.want)
		if err != nil {
			t.Fatalf("ParseHex(%q): %v", c.want, err)
		}
		if !Equal(back, b) {
			t.Errorf("ParseHex(String(%v)) != original", c.idxs)
		}
	}
}

func TestParseList(t *testing.T) {
	b, err := ParseList(" 0-3, 12 ,14-15 ")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.ListString(); got != "0-3,12,14-15" {
		t.Fatalf("round-trip = %q", got)
	}
	if b, err := ParseList("8190-8191"); err != nil || b.Last() != MaxCPUs-1 {
		t.Errorf("ParseList at the index bound: %v, %v", b, err)
	}
	for _, bad := range []string{"x", "3-", "-2", "5-3", "1,,2", "1-2-3", "8192", "0-100000000", "100000000"} {
		_, err := ParseList(bad)
		if err == nil {
			t.Errorf("ParseList(%q) should fail", bad)
			continue
		}
		if cerr := CheckList(bad); cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("CheckList(%q) = %v, ParseList says %v", bad, cerr, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if CheckList(" 0-3, 12 ,14-15 ") != nil {
			t.Fatal("CheckList refused a good list")
		}
	}); n != 0 {
		t.Errorf("CheckList allocates %v times on a good list, want 0", n)
	}
}

func TestParseHexErrors(t *testing.T) {
	for _, bad := range []string{"0xzz", "0x123456789"} {
		if _, err := ParseHex(bad); err == nil {
			t.Errorf("ParseHex(%q) should fail", bad)
		}
	}
}

// randomBitmap builds a bitmap from a seed for property tests.
func randomBitmap(r *rand.Rand) *Bitmap {
	b := New()
	n := r.Intn(40)
	for i := 0; i < n; i++ {
		b.Set(r.Intn(300))
	}
	return b
}

func TestQuickListRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		b := randomBitmap(rand.New(rand.NewSource(seed)))
		back, err := ParseList(b.ListString())
		return err == nil && Equal(back, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHexRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		b := randomBitmap(rand.New(rand.NewSource(seed)))
		back, err := ParseHex(b.String())
		return err == nil && Equal(back, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |A ∪ B| = |A| + |B| - |A ∩ B|, and (A∪B)\(A∩B) == A xor B.
	f := func(s1, s2 int64) bool {
		a := randomBitmap(rand.New(rand.NewSource(s1)))
		b := randomBitmap(rand.New(rand.NewSource(s2)))
		union := OrNew(a, b)
		inter := AndNew(a, b)
		if union.Weight() != a.Weight()+b.Weight()-inter.Weight() {
			return false
		}
		return Equal(AndNotNew(union, inter), XorNew(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInclusion(t *testing.T) {
	// A∩B ⊆ A ⊆ A∪B, and xor never intersects the intersection.
	f := func(s1, s2 int64) bool {
		a := randomBitmap(rand.New(rand.NewSource(s1)))
		b := randomBitmap(rand.New(rand.NewSource(s2)))
		inter := AndNew(a, b)
		union := OrNew(a, b)
		if !IsIncluded(inter, a) || !IsIncluded(a, union) {
			return false
		}
		x := XorNew(a, b)
		return x.IsZero() || inter.IsZero() || !Intersects(x, inter)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIterationMatchesWeight(t *testing.T) {
	f := func(seed int64) bool {
		b := randomBitmap(rand.New(rand.NewSource(seed)))
		idxs := b.Indexes()
		if len(idxs) != b.Weight() {
			return false
		}
		for i := 1; i < len(idxs); i++ {
			if idxs[i] <= idxs[i-1] {
				return false
			}
		}
		for _, i := range idxs {
			if !b.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetTest(b *testing.B) {
	bm := New()
	for i := 0; i < b.N; i++ {
		bm.Set(i % 4096)
		bm.Test((i * 7) % 4096)
	}
}

func BenchmarkNextIteration(b *testing.B) {
	bm := New()
	for i := 0; i < 4096; i += 3 {
		bm.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := bm.Next(-1); j >= 0; j = bm.Next(j) {
		}
	}
}

func TestHash(t *testing.T) {
	a := NewFromRange(0, 15)
	b := NewFromRange(0, 15)
	if a.Hash() != b.Hash() {
		t.Fatalf("equal bitmaps must hash equally: %x vs %x", a.Hash(), b.Hash())
	}
	c := NewFromRange(0, 16)
	if a.Hash() == c.Hash() {
		t.Fatalf("different bitmaps should (almost always) hash differently")
	}
	// Trailing zero words must not change the hash: a bitmap that grew
	// and shrank hashes like one that never grew.
	d := New()
	d.Set(1000)
	d.Clr(1000)
	d.Set(3)
	e := New()
	e.Set(3)
	if d.Hash() != e.Hash() {
		t.Fatalf("trailing zero words changed the hash: %x vs %x", d.Hash(), e.Hash())
	}
}
