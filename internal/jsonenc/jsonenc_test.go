package jsonenc_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"hetmem/internal/jsonenc"
)

// TestAppendStringMatchesEncodingJSON pins the escaping against the
// standard library (with HTML escaping off, which the daemon never
// relied on): whatever encoding/json would emit for a string, the
// zero-alloc encoder must emit byte-for-byte.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"",
		"plain",
		"with \"quotes\" and \\backslash",
		"newline\nreturn\rtab\t",
		"control \x00 \x01 \x1f bytes",
		"backspace \b formfeed \f",
		"unicode: héllo wörld ✓ 漢字",
		"invalid utf8: \xff\xfe",
		"DRAM#0+MCDRAM#4",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := jsonenc.AppendString(nil, s)
		if string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json says %s", s, got, want)
		}
		// And it must round-trip (invalid UTF-8 comes back as U+FFFD,
		// exactly as encoding/json would have it).
		var back string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("AppendString(%q) produced unparseable JSON %s: %v", s, got, err)
		}
		var wantBack string
		if err := json.Unmarshal(want, &wantBack); err != nil {
			t.Fatal(err)
		}
		if back != wantBack {
			t.Errorf("AppendString(%q) round-tripped to %q, encoding/json to %q", s, back, wantBack)
		}
	}
}

// TestAppendStringHTMLSetting: the two spellings differ only where
// encoding/json's SetEscapeHTML does, and the line separators are
// escaped under both.
func TestAppendStringHTMLSetting(t *testing.T) {
	for _, s := range []string{
		"<script>a && b</script>",
		"line\u2028sep para\u2029sep",
		"mixed <\u2028> & \xff",
		"plain",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonenc.AppendStringHTML(nil, s); string(got) != string(want) {
			t.Errorf("AppendStringHTML(%q) = %s, json.Marshal says %s", s, got, want)
		}
		var plain bytes.Buffer
		enc := json.NewEncoder(&plain)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		if got := jsonenc.AppendString(nil, s); string(got)+"\n" != plain.String() {
			t.Errorf("AppendString(%q) = %s, encoding/json without HTML escaping says %s", s, got, plain.String())
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, 3.25, 300, 1e-7, 2.5e21, 1e21, 9.999999e20,
		123456.789, 0.000001, 1e-6, 60.0, 0.1,
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got := jsonenc.AppendFloat(nil, f)
		if string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json says %s", f, got, want)
		}
	}
	// Non-finite values cannot appear in JSON; the encoder degrades to 0
	// instead of corrupting the stream.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := string(jsonenc.AppendFloat(nil, f)); got != "0" {
			t.Errorf("AppendFloat(%v) = %s, want 0", f, got)
		}
	}
}

func TestAppendKeySeparators(t *testing.T) {
	b := append([]byte(nil), '{')
	b = jsonenc.AppendKey(b, "a")
	b = jsonenc.AppendUint(b, 1)
	b = jsonenc.AppendKey(b, "b")
	b = jsonenc.AppendBool(b, true)
	b = append(b, '}')
	if string(b) != `{"a":1,"b":true}` {
		t.Fatalf("got %s", b)
	}
}

func TestAppendStringZeroAlloc(t *testing.T) {
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = jsonenc.AppendString(buf[:0], "a plain label with spaces")
		buf = jsonenc.AppendUint(buf, 12345)
		buf = jsonenc.AppendFloat(buf, 1.5)
	})
	if allocs != 0 {
		t.Fatalf("append helpers allocated %.1f times per run, want 0", allocs)
	}
}
