package promtext

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestLinesMatchFmt pins the package's promise: every line is the
// bytes fmt.Fprintf printed with %q labels and %d/%g values.
func TestLinesMatchFmt(t *testing.T) {
	var got, want strings.Builder
	w := NewWriter(&got)

	w.Series("a_total").Uint(math.MaxUint64)
	fmt.Fprintf(&want, "a_total %d\n", uint64(math.MaxUint64))
	w.Series("b").Int(-7)
	fmt.Fprintf(&want, "b %d\n", -7)
	w.Series("c").Label("node", `MCDRAM#4 "hot"`).Uint(3)
	fmt.Fprintf(&want, "c{node=%q} %d\n", `MCDRAM#4 "hot"`, 3)
	w.Series("d").Label("tenant", "é\x00").Label("kind", "DRAM").Int(0)
	fmt.Fprintf(&want, "d{tenant=%q,kind=%q} %d\n", "é\x00", "DRAM", 0)
	for _, v := range []float64{0, 1.5e-05, 0.25, 3, 1e21, math.Inf(1), math.NaN()} {
		w.Series("e").Label("le", "+Inf").Float(v)
		fmt.Fprintf(&want, "e{le=%q} %g\n", "+Inf", v)
	}

	if got.String() != want.String() {
		t.Fatalf("promtext lines differ from fmt:\n got %q\nwant %q", got.String(), want.String())
	}
}
