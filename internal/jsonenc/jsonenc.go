// Package jsonenc is the zero-allocation JSON encoding kernel shared
// by the daemon's hot paths (internal/server responses, internal/journal
// record frames). Every function appends into a caller-owned []byte and
// returns the extended slice, so a pooled buffer makes an entire
// encode allocation-free; none of them reflect, and the output is plain
// UTF-8 JSON that encoding/json round-trips.
//
// The encoders deliberately cover only what the daemon emits — strings,
// uint64s, int64s, floats, bools — not general values. Anything
// structured is assembled by the caller with the separators it needs.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// safeSet marks the ASCII bytes that need no escaping inside a JSON
// string (mirrors encoding/json's safe set with HTML escaping off).
var safeSet = func() (s [utf8.RuneSelf]bool) {
	for i := 0x20; i < utf8.RuneSelf; i++ {
		s[i] = true
	}
	s['"'] = false
	s['\\'] = false
	return
}()

// AppendString appends s as a quoted, escaped JSON string, the way
// encoding/json does with HTML escaping off.
func AppendString(dst []byte, s string) []byte { return appendString(dst, s, false) }

// AppendStringHTML is AppendString with json.Marshal's default HTML
// escaping: <, > and & leave as \u003c, \u003e and \u0026.
func AppendStringHTML(dst []byte, s string) []byte { return appendString(dst, s, true) }

func appendString(dst []byte, s string, escapeHTML bool) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if safeSet[b] && !(escapeHTML && (b == '<' || b == '>' || b == '&')) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control characters (and HTML's three) become \u00XX.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// Invalid UTF-8 is replaced, matching encoding/json.
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			// Valid JSON, but not valid JavaScript: encoding/json
			// escapes the two line separators whatever the HTML setting.
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendUint appends an unsigned integer.
func AppendUint(dst []byte, v uint64) []byte {
	return strconv.AppendUint(dst, v, 10)
}

// AppendInt appends a signed integer.
func AppendInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// AppendFloat appends a float the way encoding/json does: shortest
// representation, exponent form only outside [1e-6, 1e21), and
// non-finite values (which JSON cannot carry) as 0.
func AppendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, '0')
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	n := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, matching encoding/json.
		if e := len(dst) - 4; e >= n && dst[e] == 'e' && dst[e+2] == '0' {
			dst[e+2] = dst[e+3]
			dst = dst[:len(dst)-1]
		}
	}
	return dst
}

// AppendBool appends true or false.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendKey appends `,"name":` (or `"name":` when dst ends in '{'),
// assuming name needs no escaping — every key the daemon emits is a
// fixed ASCII literal.
func AppendKey(dst []byte, name string) []byte {
	if n := len(dst); n > 0 && dst[n-1] != '{' && dst[n-1] != '[' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}
