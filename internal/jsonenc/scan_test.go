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
