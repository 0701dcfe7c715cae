package jsonenc_test

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"hetmem/internal/jsonenc"
)

// flat has one field of every kind the Scanner reads.
type flat struct {
	S string  `json:"s"`
	U uint64  `json:"u"`
	I int     `json:"i"`
	F float64 `json:"f"`
	B bool    `json:"b"`
}

var flatKeys = []string{"s", "u", "i", "f", "b"}

func scanFlat(data []byte) (v flat, ok bool) {
	s := jsonenc.Scan(data)
	for {
		switch s.Next(flatKeys) {
		case 0:
			v.S = s.String()
		case 1:
			v.U = s.Uint()
		case 2:
			v.I = s.Int()
		case 3:
			v.F = s.Float()
		case 4:
			v.B = s.Bool()
		case jsonenc.End:
			return v, true
		default:
			return flat{}, false
		}
	}
}

// strictFlat is the reference: encoding/json, unknown fields and
// trailing bytes refused.
func strictFlat(data []byte) (v flat, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err = dec.Decode(&v); err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	return v, err
}

// TestScannerAgreesWithEncodingJSON pins both halves of the contract:
// which spellings are canonical, and that an accepted one reads to what
// encoding/json reads.
func TestScannerAgreesWithEncodingJSON(t *testing.T) {
	cases := []struct {
		in     string
		accept bool
	}{
		{`{}`, true},
		{` { } `, true},
		{`{"s":"x","u":1,"i":-2,"f":0.5,"b":true}`, true},
		{"{\n\t\"u\" : 18446744073709551615 ,\r\n \"b\" : false }\n", true},
		{`{"b":false,"s":""}`, true},
		{`{"s":"héllo ✓ 漢字 DRAM#0+MCDRAM#4 <>&"}`, true},
		{"{\"s\":\"del \x7f ok\"}", true},
		{`{"f":-0}`, true},
		{`{"f":-12.250}`, true},
		{`{"f":3}`, true},
		{`{"i":0}`, true},
		{`{"i":-0}`, true},
		{`{"i":9223372036854775807}`, true},
		{`{"i":-9223372036854775808}`, true},
		{`{"f":123456789012345678901234567890123456789.5}`, true}, // past the stack buffer

		// Valid JSON the Scanner leaves to encoding/json.
		{`{"s":"a\"b"}`, false},
		{`{"s":"a\\b"}`, false},
		{`{"s":"a\/b"}`, false},
		{`{"s":"\u00e9"}`, false},
		{`{"s":null}`, false},
		{`{"u":null}`, false},
		{`{"u":1,"u":2}`, false},
		{`{"S":"x"}`, false},
		{`{"f":1e3}`, false},
		{`{"f":1E-3}`, false},
		{`{"f":1.5e3}`, false},
		{"{\"s\":\"bad utf8 \xff\"}", false},
		{"{\"s\":\"surrogate \xed\xa0\x80\"}", false},

		// Refused by encoding/json too; the Scanner must not be laxer.
		{``, false},
		{` `, false},
		{`{`, false},
		{`{"u":1`, false},
		{`{"u":1,}`, false},
		{`{,"u":1}`, false},
		{`{"u":1 "b":true}`, false},
		{`{"u":01}`, false},
		{`{"u":-0}`, false},
		{`{"u":-1}`, false},
		{`{"u":1.0}`, false},
		{`{"u":18446744073709551616}`, false},
		{`{"u":184467440737095516150}`, false},
		{`{"u":"1"}`, false},
		{`{"i":9223372036854775808}`, false},
		{`{"i":1.5}`, false},
		{`{"f":.5}`, false},
		{`{"f":1.}`, false},
		{`{"f":-}`, false},
		{`{"f":+1}`, false},
		{`{"f":0x10}`, false},
		{`{"f":Inf}`, false},
		{`{"f":NaN}`, false},
		{`{"b":True}`, false},
		{`{"b":truex}`, false},
		{`{"b":tru`, false},
		{`{"b":1}`, false},
		{`{"s":"x`, false},
		{"{\"s\":\"a\nb\"}", false},
		{`{"s":"x"}}`, false},
		{`{"s":"x"}]`, false},
		{`{"s":"x"} {}`, false},
		{"{\"s\":\"x\"}\x00", false},
		{`{"s":{"n":1}}`, false},
		{`{"s":["x"]}`, false},
		{`{"x":1}`, false},
		{`{"":1}`, false},
		{`{"s":"x","s2":"y"}`, false},
		{`{s:"x"}`, false},
		{`["s"]`, false},
		{`"s"`, false},
		{`null`, false},
	}
	for _, c := range cases {
		got, ok := scanFlat([]byte(c.in))
		if ok != c.accept {
			t.Errorf("scan(%q) accepted=%v, want %v", c.in, ok, c.accept)
		}
		if !ok {
			continue
		}
		want, err := strictFlat([]byte(c.in))
		if err != nil {
			t.Errorf("scan(%q) accepted what encoding/json refuses: %v", c.in, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("scan(%q) = %+v, encoding/json says %+v", c.in, got, want)
		}
	}
}

// TestScannerDeclineIsSticky: after a decline the value methods read
// nothing and Next keeps declining, whatever the bytes ahead say.
func TestScannerDeclineIsSticky(t *testing.T) {
	s := jsonenc.Scan([]byte(`{"u":x,"b":true}`))
	if got := s.Next(flatKeys); got != 1 {
		t.Fatalf("Next = %d, want key 1", got)
	}
	if v := s.Uint(); v != 0 {
		t.Fatalf("Uint read %d from garbage", v)
	}
	if s.Bool() || s.String() != "" || s.Int() != 0 || s.Float() != 0 {
		t.Fatal("a value method read past a decline")
	}
	for i := 0; i < 2; i++ {
		if got := s.Next(flatKeys); got != jsonenc.Declined {
			t.Fatalf("Next after a decline = %d, want Declined", got)
		}
	}
}

// TestScannerDoesNotAllocate: numbers and bools convert in place; only
// a string value costs its copy.
func TestScannerDoesNotAllocate(t *testing.T) {
	data := []byte(`{"u":20001,"i":-3,"f":0.05,"b":true}`)
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := scanFlat(data); !ok {
			t.Fatal("declined")
		}
	}); n != 0 {
		t.Errorf("scanning %s costs %.0f allocations, want 0", data, n)
	}
	data = []byte(`{"s":"DRAM#0","u":7}`)
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := scanFlat(data); !ok {
			t.Fatal("declined")
		}
	}); n != 1 {
		t.Errorf("scanning %s costs %.0f allocations, want 1 (the string)", data, n)
	}
}

// nested has the member values the Scanner enters: an array of
// objects, an object, and a recursive array for the depth bound.
type nested struct {
	S     string   `json:"s"`
	Items []flat   `json:"items"`
	In    *flat    `json:"in"`
	K     []nested `json:"k"`
}

var nestedKeys = []string{"s", "items", "in", "k"}

// scanFlatFields is scanFlat's loop on an object already entered, the
// way a shape's loop serves both a top-level body and a nested item.
func scanFlatFields(s *jsonenc.Scanner, v *flat) bool {
	for {
		switch s.Next(flatKeys) {
		case 0:
			v.S = s.String()
		case 1:
			v.U = s.Uint()
		case 2:
			v.I = s.Int()
		case 3:
			v.F = s.Float()
		case 4:
			v.B = s.Bool()
		case jsonenc.End:
			return true
		default:
			return false
		}
	}
}

func scanNestedFields(s *jsonenc.Scanner, v *nested) bool {
	for {
		switch s.Next(nestedKeys) {
		case 0:
			v.S = s.String()
		case 1:
			s.Array()
			v.Items = []flat{} // [] reads as empty, not nil, as in encoding/json
			for s.Elem() {
				v.Items = append(v.Items, flat{})
				s.Object()
				if !scanFlatFields(s, &v.Items[len(v.Items)-1]) {
					return false
				}
			}
		case 2:
			v.In = new(flat)
			s.Object()
			if !scanFlatFields(s, v.In) {
				return false
			}
		case 3:
			s.Array()
			v.K = []nested{}
			for s.Elem() {
				v.K = append(v.K, nested{})
				s.Object()
				if !scanNestedFields(s, &v.K[len(v.K)-1]) {
					return false
				}
			}
		case jsonenc.End:
			return true
		default:
			return false
		}
	}
}

func scanNested(data []byte) (v nested, ok bool) {
	s := jsonenc.Scan(data)
	if !scanNestedFields(&s, &v) {
		return nested{}, false
	}
	return v, true
}

// TestScannerNestedAgreesWithEncodingJSON is the same contract one and
// more levels down: each object keeps its own keys, a decline anywhere
// declines the whole value, and only the top level checks what
// follows it.
func TestScannerNestedAgreesWithEncodingJSON(t *testing.T) {
	cases := []struct {
		in     string
		accept bool
	}{
		{`{"items":[]}`, true},
		{` { "items" : [ ] } `, true},
		{`{"items":[{}]}`, true},
		{`{"items":[{"s":"a","u":1},{"s":"b","u":2}],"s":"top"}`, true},
		{"{\"items\":[ {\"u\":1} ,\n\t{\"b\":true} ]}", true},
		{`{"s":"x","in":{"u":7,"f":0.5},"items":[{"i":-1}]}`, true},
		{`{"in":{}}`, true},
		{`{"k":[{"k":[{"k":[{"k":[]}]}]}]}`, true}, // 8 levels, the bound

		// Valid JSON the Scanner leaves to encoding/json.
		{`{"k":[{"k":[{"k":[{"k":[{}]}]}]}]}`, false}, // past the bound
		{`{"items":null}`, false},
		{`{"in":null}`, false},
		{`{"items":[null]}`, false},
		{`{"items":[{"s":"a\"b"}]}`, false},
		{`{"items":[{"u":1,"u":2}]}`, false},
		{`{"items":[{"U":1}]}`, false},
		{`{"items":[{"f":1e3}]}`, false},
		{`{"Items":[]}`, false},
		{`{"items":[],"items":[]}`, false},
		{`{"in":{"s":"x"},"in":{"s":"y"}}`, false},

		// Refused by encoding/json too.
		{`{"items":[{}],}`, false},
		{`{"items":[{},]}`, false},
		{`{"items":[,{}]}`, false},
		{`{"items":[{}{}]}`, false},
		{`{"items":[{}`, false},
		{`{"items":[{}]`, false},
		{`{"items":[{"x":1}]}`, false},
		{`{"items":[1]}`, false},
		{`{"items":["s"]}`, false},
		{`{"items":{"s":"x"}}`, false},
		{`{"in":[]}`, false},
		{`{"in":{"u":1}}}`, false},
		{`{"items":[]}]`, false},
		{`{"items":[{"u":1}]]}`, false},
		{`{"in":{"u":1]}`, false},
		{`{"items":[}`, false},
	}
	for _, c := range cases {
		got, ok := scanNested([]byte(c.in))
		if ok != c.accept {
			t.Errorf("scan(%q) accepted=%v, want %v", c.in, ok, c.accept)
		}
		if !ok {
			continue
		}
		var want nested
		dec := json.NewDecoder(bytes.NewReader([]byte(c.in)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&want); err != nil {
			t.Errorf("scan(%q) accepted what encoding/json refuses: %v", c.in, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("scan(%q) = %+v, encoding/json says %+v", c.in, got, want)
		}
	}
}

// TestScannerNestedDeclineIsSticky: a decline inside an array element
// stops the walk, and the enclosing object declines from then on.
func TestScannerNestedDeclineIsSticky(t *testing.T) {
	s := jsonenc.Scan([]byte(`{"items":[{"u":1},{"u":null},{"u":3}],"s":"x"}`))
	if got := s.Next(nestedKeys); got != 1 {
		t.Fatalf("Next = %d, want key 1", got)
	}
	s.Array()
	var items []flat
	for s.Elem() {
		var v flat
		s.Object()
		scanFlatFields(&s, &v)
		items = append(items, v)
	}
	if len(items) != 2 || items[0].U != 1 {
		t.Fatalf("walked %+v, want the first item and the declined second", items)
	}
	if s.Elem() || s.Next(nestedKeys) != jsonenc.Declined {
		t.Fatal("the walk went on after a decline")
	}
}
