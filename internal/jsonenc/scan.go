package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Scanner reads one JSON object in canonical spelling without
// reflecting or buffering: the decode-side counterpart of the Append
// functions, for the handful of fixed shapes on the daemon's hot path.
//
// Canonical spelling is what the Append functions (and encoding/json)
// emit for a struct whose fields are strings, numbers, bools, structs
// of the same kind or slices of them: each key written once per
// object in its exact case, strings free of escapes and valid
// UTF-8, numbers in plain decimal without an exponent, true or false
// spelled out, nothing but whitespace after the top-level object's
// closing brace. Everything else that encoding/json would also read —
// escapes, null, a repeated or case-folded key, 1e3 — the Scanner
// declines rather than interprets, so a caller that falls back to
// encoding/json on a decline has exactly encoding/json's semantics:
// what the Scanner accepts, it reads to the same values.
//
// Scan enters the top-level object. Next walks the members of the
// object the Scanner is in; Object and Array enter a nested value the
// Scanner stands on, Elem walks an array's elements, and the End of a
// nested object (or Elem's false at a closing bracket) returns to the
// enclosing value. The rules above hold at every level: every object
// keeps its own key set, so a key may repeat across objects but not
// within one.
//
// A decline is sticky. The value methods return zero after one, Elem
// answers false and Next keeps answering Declined, so a caller checks
// once, at the end.
type Scanner struct {
	data []byte
	pos  int
	n    int    // members or elements of the innermost open value read so far
	seen uint64 // bit i: keys[i] has appeared in the innermost open object
	bad  bool
	// The values enclosing the innermost one, outermost first: their n
	// and seen, put back when it closes.
	depth int
	outer [maxDepth - 1]level
}

// maxDepth bounds nesting; a deeper value is a decline.
const maxDepth = 8

type level struct {
	n    int
	seen uint64
}

// Next's answers besides a key index.
const (
	End      = -1 // the object closed (and, at the top, only whitespace followed)
	Declined = -2 // not canonical; decode data some other way
)

// Scan starts reading the object in data.
func Scan(data []byte) Scanner {
	s := Scanner{data: data}
	if s.skipSpace() == '{' {
		s.pos++
	} else {
		s.bad = true
	}
	return s
}

// Object enters the object value the Scanner stands on; Next then
// reads its members.
func (s *Scanner) Object() { s.enter('{') }

// Array enters the array value the Scanner stands on; Elem then moves
// through its elements.
func (s *Scanner) Array() { s.enter('[') }

func (s *Scanner) enter(open byte) {
	if s.bad {
		return
	}
	if s.skipSpace() != open || s.depth == len(s.outer) {
		s.decline()
		return
	}
	s.pos++
	s.outer[s.depth] = level{s.n, s.seen}
	s.depth++
	s.n, s.seen = 0, 0
}

// leave closes the innermost value, past its closing byte, and returns
// to the one enclosing it.
func (s *Scanner) leave() {
	s.pos++
	s.depth--
	l := s.outer[s.depth]
	s.n, s.seen = l.n, l.seen
}

// Elem moves to the array's next element, leaving the Scanner on it
// for a value method (or Object) to read, and reports whether there was
// one. At the closing bracket it leaves the array and returns false; so
// does a decline.
func (s *Scanner) Elem() bool {
	if s.bad {
		return false
	}
	c := s.skipSpace()
	if c == ']' {
		s.leave()
		return false
	}
	if s.n > 0 {
		if c != ',' {
			s.decline()
			return false
		}
		s.pos++
		s.skipSpace()
	}
	s.n++
	return true
}

// Next moves to the object's next member and returns the index of its
// key in keys (at most 64 of them), leaving the Scanner on the value
// for exactly one of the value methods (or Object, or Array) to read.
// A key that is not in keys, or that already appeared in this object,
// is a decline. At the closing brace Next returns End and leaves the
// object for the enclosing value.
func (s *Scanner) Next(keys []string) int {
	if s.bad {
		return Declined
	}
	c := s.skipSpace()
	if c == '}' {
		if s.depth > 0 {
			s.leave()
			return End
		}
		s.pos++
		if s.skipSpace(); s.pos < len(s.data) {
			return s.decline()
		}
		return End
	}
	if s.n > 0 {
		if c != ',' {
			return s.decline()
		}
		s.pos++
		c = s.skipSpace()
	}
	if c != '"' {
		return s.decline()
	}
	key, ok := s.quoted()
	if !ok {
		return s.decline()
	}
	idx := -1
	for i, k := range keys {
		if string(key) == k {
			idx = i
			break
		}
	}
	if idx < 0 || s.seen&(1<<uint(idx)) != 0 {
		return s.decline()
	}
	if s.skipSpace() != ':' {
		return s.decline()
	}
	s.pos++
	s.skipSpace()
	s.seen |= 1 << uint(idx)
	s.n++
	return idx
}

// String reads a string value.
func (s *Scanner) String() string {
	if s.bad || s.pos >= len(s.data) || s.data[s.pos] != '"' {
		s.decline()
		return ""
	}
	b, ok := s.quoted()
	if !ok {
		s.decline()
	}
	return string(b)
}

// Uint reads a non-negative integer that fits 64 bits.
func (s *Scanner) Uint() uint64 {
	tok := s.number(false)
	if len(tok) == 0 || tok[0] == '-' {
		s.decline()
		return 0
	}
	var v uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			s.decline()
			return 0
		}
		v = v*10 + d
	}
	return v
}

// Int reads an integer that fits the platform's int.
func (s *Scanner) Int() int {
	// The conversions stay on the stack: strconv copies what it keeps.
	v, err := strconv.ParseInt(string(s.number(false)), 10, strconv.IntSize)
	if err != nil {
		s.decline()
		return 0
	}
	return int(v)
}

// Float reads a decimal number with strconv.ParseFloat, the conversion
// encoding/json applies to the same digits.
func (s *Scanner) Float() float64 {
	v, err := strconv.ParseFloat(string(s.number(true)), 64)
	if err != nil {
		s.decline()
		return 0
	}
	return v
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	if !s.bad {
		rest := s.data[s.pos:]
		if len(rest) >= 4 && string(rest[:4]) == "true" {
			s.pos += 4
			return true
		}
		if len(rest) >= 5 && string(rest[:5]) == "false" {
			s.pos += 5
			return false
		}
	}
	s.decline()
	return false
}

func (s *Scanner) decline() int {
	s.bad = true
	return Declined
}

// skipSpace advances past JSON whitespace and returns the byte it
// stopped on, 0 at the end of the data.
func (s *Scanner) skipSpace() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// quoted reads the string the Scanner stands on (at its opening quote)
// and returns the bytes between the quotes. Escapes, control bytes and
// invalid UTF-8 are not canonical.
func (s *Scanner) quoted() ([]byte, bool) {
	start := s.pos + 1
	ascii := true
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			b := s.data[start:i]
			return b, ascii || utf8.Valid(b)
		case c < ' ' || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// number reads -?(0|[1-9][0-9]*) and, when frac is set, an optional
// .[0-9]+ behind it. It returns nil on anything else; a leading zero or
// an exponent leaves the Scanner on a byte Next will decline.
func (s *Scanner) number(frac bool) []byte {
	if s.bad {
		return nil
	}
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	if s.pos < len(s.data) && s.data[s.pos] == '0' {
		s.pos++
	} else if !s.digits() {
		return nil
	}
	if frac && s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if !s.digits() {
			return nil
		}
	}
	return s.data[start:s.pos]
}

// digits advances past a run of decimal digits and reports whether
// there was at least one.
func (s *Scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos]-'0' <= 9 {
		s.pos++
	}
	return s.pos > start
}
