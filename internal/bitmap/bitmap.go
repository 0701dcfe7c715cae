// Package bitmap implements hwloc-style bitmaps used throughout the
// topology and memory-attribute layers to represent sets of logical
// processors (CPU sets) and sets of NUMA nodes (node sets).
//
// A Bitmap is a growable set of non-negative integer indexes. The zero
// value is an empty, ready-to-use bitmap. All operations that modify a
// bitmap are methods on *Bitmap; binary set operations are provided both
// as in-place methods (And, Or, ...) and as allocating package functions
// (AndNew, OrNew, ...).
//
// Two textual formats are supported, mirroring hwloc:
//
//   - the hexadecimal mask format produced by String, e.g. "0x0000f00f",
//     parsed by ParseHex;
//   - the comma-separated list format produced by ListString, e.g.
//     "0-3,12,14-15", parsed by ParseList.
package bitmap

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Bitmap is a set of non-negative integers. The zero value is empty and
// ready to use. Bitmap is not safe for concurrent mutation.
type Bitmap struct {
	words []uint64
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// NewFromIndexes returns a bitmap with exactly the given indexes set.
func NewFromIndexes(idxs ...int) *Bitmap {
	b := New()
	for _, i := range idxs {
		b.Set(i)
	}
	return b
}

// NewFromRange returns a bitmap with all indexes in [lo, hi] set.
// It panics if lo < 0 or hi < lo.
func NewFromRange(lo, hi int) *Bitmap {
	b := New()
	b.SetRange(lo, hi)
	return b
}

func (b *Bitmap) grow(word int) {
	for len(b.words) <= word {
		b.words = append(b.words, 0)
	}
}

// trim drops trailing zero words so that Equal and String are canonical.
func (b *Bitmap) trim() {
	n := len(b.words)
	for n > 0 && b.words[n-1] == 0 {
		n--
	}
	b.words = b.words[:n]
}

// Set adds index i to the set. It panics if i is negative.
func (b *Bitmap) Set(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitmap: negative index %d", i))
	}
	b.grow(i / wordBits)
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clr removes index i from the set. Clearing an absent index is a no-op.
func (b *Bitmap) Clr(i int) {
	if i < 0 || i/wordBits >= len(b.words) {
		return
	}
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	b.trim()
}

// Test reports whether index i is in the set.
func (b *Bitmap) Test(i int) bool {
	if i < 0 || i/wordBits >= len(b.words) {
		return false
	}
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// SetRange adds all indexes in [lo, hi] to the set.
// It panics if lo < 0 or hi < lo.
func (b *Bitmap) SetRange(lo, hi int) {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("bitmap: bad range [%d,%d]", lo, hi))
	}
	for i := lo; i <= hi; i++ {
		b.Set(i)
	}
}

// ClrRange removes all indexes in [lo, hi] from the set.
func (b *Bitmap) ClrRange(lo, hi int) {
	for i := lo; i <= hi && i/wordBits < len(b.words); i++ {
		b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
	b.trim()
}

// Reset removes all indexes, leaving the bitmap empty.
func (b *Bitmap) Reset() { b.words = b.words[:0] }

// IsZero reports whether the set is empty.
func (b *Bitmap) IsZero() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Weight returns the number of indexes in the set.
func (b *Bitmap) Weight() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// First returns the smallest index in the set, or -1 if empty.
func (b *Bitmap) First() int {
	for wi, w := range b.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Last returns the largest index in the set, or -1 if empty.
func (b *Bitmap) Last() int {
	for wi := len(b.words) - 1; wi >= 0; wi-- {
		if w := b.words[wi]; w != 0 {
			return wi*wordBits + (wordBits - 1 - bits.LeadingZeros64(w))
		}
	}
	return -1
}

// Next returns the smallest index strictly greater than prev, or -1 if
// none. Use Next(-1) to start an iteration at First.
func (b *Bitmap) Next(prev int) int {
	i := prev + 1
	if i < 0 {
		i = 0
	}
	wi := i / wordBits
	if wi >= len(b.words) {
		return -1
	}
	// Mask off bits below i in the first candidate word.
	w := b.words[wi] &^ ((1 << (uint(i) % wordBits)) - 1)
	for {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(b.words) {
			return -1
		}
		w = b.words[wi]
	}
}

// Indexes returns all set indexes in increasing order.
func (b *Bitmap) Indexes() []int {
	out := make([]int, 0, b.Weight())
	for i := b.First(); i >= 0; i = b.Next(i) {
		out = append(out, i)
	}
	return out
}

// ForEach calls fn for every set index in increasing order. If fn
// returns false the iteration stops early.
func (b *Bitmap) ForEach(fn func(i int) bool) {
	for i := b.First(); i >= 0; i = b.Next(i) {
		if !fn(i) {
			return
		}
	}
}

// Copy returns an independent copy of b.
func (b *Bitmap) Copy() *Bitmap {
	c := &Bitmap{words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Singlify removes all indexes except the smallest one, mirroring
// hwloc_bitmap_singlify. Singlifying an empty bitmap is a no-op.
func (b *Bitmap) Singlify() {
	f := b.First()
	b.Reset()
	if f >= 0 {
		b.Set(f)
	}
}

// Equal reports whether a and b contain the same indexes.
func Equal(a, b *Bitmap) bool {
	an, bn := len(a.words), len(b.words)
	n := an
	if bn > n {
		n = bn
	}
	for i := 0; i < n; i++ {
		var aw, bw uint64
		if i < an {
			aw = a.words[i]
		}
		if i < bn {
			bw = b.words[i]
		}
		if aw != bw {
			return false
		}
	}
	return true
}

// Intersects reports whether a and b share at least one index.
func Intersects(a, b *Bitmap) bool {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	for i := 0; i < n; i++ {
		if a.words[i]&b.words[i] != 0 {
			return true
		}
	}
	return false
}

// IsIncluded reports whether every index of sub is also in super.
func IsIncluded(sub, super *Bitmap) bool {
	for i, w := range sub.words {
		var sw uint64
		if i < len(super.words) {
			sw = super.words[i]
		}
		if w&^sw != 0 {
			return false
		}
	}
	return true
}

// And replaces b with the intersection of b and o.
func (b *Bitmap) And(o *Bitmap) {
	for i := range b.words {
		var ow uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		b.words[i] &= ow
	}
	b.trim()
}

// Or replaces b with the union of b and o.
func (b *Bitmap) Or(o *Bitmap) {
	b.grow(len(o.words) - 1)
	for i, w := range o.words {
		b.words[i] |= w
	}
	b.trim()
}

// Xor replaces b with the symmetric difference of b and o.
func (b *Bitmap) Xor(o *Bitmap) {
	b.grow(len(o.words) - 1)
	for i, w := range o.words {
		b.words[i] ^= w
	}
	b.trim()
}

// AndNot removes every index of o from b.
func (b *Bitmap) AndNot(o *Bitmap) {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		b.words[i] &^= o.words[i]
	}
	b.trim()
}

// AndNew returns the intersection of a and b as a new bitmap.
func AndNew(a, b *Bitmap) *Bitmap { c := a.Copy(); c.And(b); return c }

// OrNew returns the union of a and b as a new bitmap.
func OrNew(a, b *Bitmap) *Bitmap { c := a.Copy(); c.Or(b); return c }

// XorNew returns the symmetric difference of a and b as a new bitmap.
func XorNew(a, b *Bitmap) *Bitmap { c := a.Copy(); c.Xor(b); return c }

// AndNotNew returns a minus b as a new bitmap.
func AndNotNew(a, b *Bitmap) *Bitmap { c := a.Copy(); c.AndNot(b); return c }

// Hash returns an FNV-1a digest of the set. Equal bitmaps hash equal
// (the word storage is canonical — trailing zero words are trimmed),
// so the hash can key a cache, with Equal confirming on collision.
func (b *Bitmap) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range b.words {
		for s := 0; s < wordBits; s += 8 {
			h ^= (w >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// String returns the hwloc hexadecimal mask format, least significant
// 32-bit chunk last, chunks separated by commas when more than one is
// needed: e.g. "0x00000001" or "0x00000001,0xffffffff".
// The empty bitmap formats as "0x0".
func (b *Bitmap) String() string {
	last := b.Last()
	if last < 0 {
		return "0x0"
	}
	nchunks := last/32 + 1
	var sb strings.Builder
	sb.WriteString("0x")
	for c := nchunks - 1; c >= 0; c-- {
		w := b.words[c/2]
		var chunk uint32
		if c%2 == 1 {
			chunk = uint32(w >> 32)
		} else {
			chunk = uint32(w)
		}
		fmt.Fprintf(&sb, "%08x", chunk)
		if c > 0 {
			sb.WriteString(",0x")
		}
	}
	return sb.String()
}

// ListString returns the comma-separated range list format, e.g.
// "0-3,12,14-15". The empty bitmap formats as "".
func (b *Bitmap) ListString() string {
	var parts []string
	i := b.First()
	for i >= 0 {
		lo := i
		hi := i
		for {
			n := b.Next(hi)
			if n != hi+1 {
				break
			}
			hi = n
		}
		if lo == hi {
			parts = append(parts, strconv.Itoa(lo))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", lo, hi))
		}
		i = b.Next(hi)
	}
	return strings.Join(parts, ",")
}

// MaxCPUs bounds the indexes a range list may name: ParseList and
// CheckList refuse an index at or above it. A list names CPUs, and 8192
// is the largest NR_CPUS Linux builds for x86-64. Without the bound a
// nine-byte list such as "100000000" would ask for a bitmap of tens of
// megabytes.
const MaxCPUs = 8192

// ParseList parses the range list format produced by ListString.
// An empty string yields an empty bitmap.
func ParseList(s string) (*Bitmap, error) {
	b := New()
	if err := scanList(s, b.SetRange); err != nil {
		return nil, err
	}
	return b, nil
}

// CheckList reports the error ParseList would return for s, without
// building the bitmap; it allocates nothing when s is well formed.
func CheckList(s string) error {
	return scanList(s, func(lo, hi int) {})
}

// scanList is the one grammar of the range list format: it calls set
// with each element's [lo, hi] (lo == hi for a single index).
func scanList(s string, set func(lo, hi int)) error {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	for more := true; more; {
		var part string
		part, s, more = strings.Cut(s, ",")
		part = strings.TrimSpace(part)
		var l, h int
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			var err error
			if l, err = strconv.Atoi(lo); err != nil {
				return fmt.Errorf("bitmap: bad list element %q: %w", part, err)
			}
			if h, err = strconv.Atoi(hi); err != nil {
				return fmt.Errorf("bitmap: bad list element %q: %w", part, err)
			}
			if l < 0 || h < l {
				return fmt.Errorf("bitmap: bad range %q", part)
			}
		} else {
			i, err := strconv.Atoi(part)
			if err != nil {
				return fmt.Errorf("bitmap: bad list element %q: %w", part, err)
			}
			if i < 0 {
				return fmt.Errorf("bitmap: negative index %q", part)
			}
			l, h = i, i
		}
		if h >= MaxCPUs {
			return fmt.Errorf("bitmap: index in %q is not below %d", part, MaxCPUs)
		}
		set(l, h)
	}
	return nil
}

// ParseHex parses the hexadecimal mask format produced by String.
func ParseHex(s string) (*Bitmap, error) {
	b := New()
	s = strings.TrimSpace(s)
	if s == "" || s == "0x0" {
		return b, nil
	}
	chunks := strings.Split(s, ",")
	// chunks[0] is the most significant.
	n := len(chunks)
	for ci, chunk := range chunks {
		chunk = strings.TrimPrefix(strings.TrimSpace(chunk), "0x")
		v, err := strconv.ParseUint(chunk, 16, 32)
		if err != nil {
			return nil, fmt.Errorf("bitmap: bad hex chunk %q: %w", chunk, err)
		}
		pos := n - 1 - ci // 32-bit chunk position, 0 = least significant
		for bit := 0; bit < 32; bit++ {
			if v&(1<<uint(bit)) != 0 {
				b.Set(pos*32 + bit)
			}
		}
	}
	return b, nil
}
