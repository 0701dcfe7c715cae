package memsim

import (
	"strings"
	"testing"
)

func TestUsageAndRender(t *testing.T) {
	m, _ := testRig(t)
	b, err := m.Alloc("workset", 10*gb, m.NodeByOS(0))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, pkg0Set())
	e.Phase("p", []Access{{Buffer: b, ReadBytes: 5 * gb, RandomReads: 1000000}})

	rows := m.Usage()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Allocated != 10*gb || rows[0].Available != 86*gb {
		t.Fatalf("row0 = %+v", rows[0])
	}
	if rows[0].BytesRead == 0 || rows[0].RandomReads == 0 {
		t.Fatal("traffic counters missing from usage")
	}
	if rows[1].Allocated != 0 {
		t.Fatalf("row1 allocated = %d", rows[1].Allocated)
	}

	out := m.RenderUsage(b)
	for _, want := range []string{"P#0", "DRAM", "NVDIMM", "10GB", "86GB", "live buffers:", "workset"} {
		if !strings.Contains(out, want) {
			t.Errorf("usage render missing %q:\n%s", want, out)
		}
	}
	m.Free(b)
	if strings.Contains(m.RenderUsage(b), "live buffers:") {
		t.Error("freed buffer still listed")
	}
}
