package tenant

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestParseClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Class
	}{
		{"guaranteed", Guaranteed},
		{"burstable", Burstable},
		{"best-effort", BestEffort},
	} {
		got, err := ParseClass(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseClass(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("round trip: %v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseClass("platinum"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
}

func TestChargeQuotaBoundary(t *testing.T) {
	r := NewRegistry()
	tn := r.Define("capped", BestEffort, map[string]uint64{"DRAM": 100, "HBM": 0})

	// Exactly consuming the quota is allowed.
	if err := tn.Charge("DRAM", 100); err != nil {
		t.Fatalf("charge to exact quota: %v", err)
	}
	if got := tn.Used("DRAM"); got != 100 {
		t.Fatalf("used = %d, want 100", got)
	}
	if rem, limited := tn.Remaining("DRAM"); !limited || rem != 0 {
		t.Fatalf("remaining = %d,%v, want 0,true", rem, limited)
	}

	// One more byte is rejected with a QuotaError naming tenant, kind,
	// and limit, and changes nothing.
	err := tn.Charge("DRAM", 1)
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over-quota charge: %v, want ErrOverQuota", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("error %T is not *QuotaError", err)
	}
	if qe.Tenant != "capped" || qe.Kind != "DRAM" || qe.Limit != 100 {
		t.Fatalf("QuotaError = %+v", qe)
	}
	for _, want := range []string{"capped", "DRAM", "100"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if got := tn.Used("DRAM"); got != 100 {
		t.Fatalf("failed charge mutated usage: %d", got)
	}
	if got := tn.QuotaRejects.Load(); got != 1 {
		t.Fatalf("quota rejects = %d, want 1", got)
	}

	// A zero quota forbids the kind entirely.
	if err := tn.Charge("HBM", 1); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("zero-quota kind admitted: %v", err)
	}
	// Unlimited kinds always charge.
	if err := tn.Charge("NVDIMM", 1<<40); err != nil {
		t.Fatalf("unlimited kind rejected: %v", err)
	}

	// Refund floors at zero.
	tn.Refund("DRAM", 40)
	tn.Refund("DRAM", 1000)
	if got := tn.Used("DRAM"); got != 0 {
		t.Fatalf("refund floor: used = %d", got)
	}

	// ForceCharge ignores the limit (migration/replay accounting).
	tn.ForceCharge("HBM", 7)
	if got := tn.Used("HBM"); got != 7 {
		t.Fatalf("force charge: used = %d", got)
	}
}

func TestChargeConcurrent(t *testing.T) {
	r := NewRegistry()
	tn := r.Define("c", Burstable, map[string]uint64{"DRAM": 1000})
	var wg sync.WaitGroup
	var admitted sync.Map
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if tn.Charge("DRAM", 10) == nil {
					admitted.Store([2]int{i, j}, struct{}{})
				}
			}
		}(i)
	}
	wg.Wait()
	n := 0
	admitted.Range(func(_, _ any) bool { n++; return true })
	// Quota 1000 at 10 bytes each: exactly 100 charges can succeed.
	if n != 100 {
		t.Fatalf("admitted %d charges, want 100", n)
	}
	if got := tn.Used("DRAM"); got != 1000 {
		t.Fatalf("used = %d, want 1000", got)
	}
}

func TestRegistryAutoRegister(t *testing.T) {
	r := NewRegistry()
	// Empty name resolves to the default tenant.
	if got := r.Get(""); got.Name != Default {
		t.Fatalf("Get(\"\") = %q", got.Name)
	}
	// Unknown names auto-register with the default class, no quotas.
	tn := r.Get("walk-in")
	if tn.Class != Burstable || tn.Limited() {
		t.Fatalf("auto-registered tenant = class %v limited %v", tn.Class, tn.Limited())
	}
	if again := r.Get("walk-in"); again != tn {
		t.Fatal("auto-registration is not stable")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != Default || names[1] != "walk-in" {
		t.Fatalf("names = %v", names)
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	doc := `{
  "default_class": "best-effort",
  "tenants": {
    "gold":  {"class": "guaranteed"},
    "noise": {"class": "best-effort", "quotas": {"DRAM": 1048576, "HBM": 0}}
  }
}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.Load(path); err != nil {
		t.Fatalf("load: %v", err)
	}
	if got := r.Get("gold").Class; got != Guaranteed {
		t.Fatalf("gold class = %v", got)
	}
	noise := r.Get("noise")
	if lim, ok := noise.Quota("DRAM"); !ok || lim != 1048576 {
		t.Fatalf("noise DRAM quota = %d,%v", lim, ok)
	}
	// default_class applies to auto-registered walk-ins.
	if got := r.Get("stranger").Class; got != BestEffort {
		t.Fatalf("walk-in class = %v, want best-effort", got)
	}

	// Bad class never half-applies.
	r2 := NewRegistry()
	err := r2.LoadBytes([]byte(`{"tenants": {"a": {"class": "guaranteed"}, "b": {"class": "nope"}}}`))
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("bad class: %v", err)
	}
	if len(r2.Names()) != 1 { // just "default"
		t.Fatalf("bad config half-applied: %v", r2.Names())
	}
	// Unknown fields are rejected (config typos must not silently noop).
	if err := r2.LoadBytes([]byte(`{"tenants": {"a": {"class": "burstable", "quota": {}}}}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := r2.Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWriteMetricsDeterministic(t *testing.T) {
	r := NewRegistry()
	g := r.Define("gold", Guaranteed, nil)
	g.ForceCharge("DRAM", 64)
	g.ForceCharge("HBM", 32)
	g.Sheds.Add(0)
	n := r.Define("noise", BestEffort, map[string]uint64{"DRAM": 100})
	if err := n.Charge("DRAM", 100); err != nil {
		t.Fatal(err)
	}
	n.Charge("DRAM", 1) // rejected
	var a, b bytes.Buffer
	r.WriteMetrics(&a)
	r.WriteMetrics(&b)
	if a.String() != b.String() {
		t.Fatal("WriteMetrics is not deterministic")
	}
	for _, want := range []string{
		`hetmemd_tenant_bytes{tenant="gold",kind="DRAM"} 64`,
		`hetmemd_tenant_bytes{tenant="gold",kind="HBM"} 32`,
		`hetmemd_tenant_bytes{tenant="noise",kind="DRAM"} 100`,
		`hetmemd_tenant_quota_rejects_total{tenant="noise"} 1`,
		`hetmemd_tenant_sheds_total{tenant="default"} 0`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, a.String())
		}
	}
}

func TestSnapshotAndTotals(t *testing.T) {
	r := NewRegistry()
	g := r.Define("g", Guaranteed, nil)
	g.ForceCharge("DRAM", 10)
	g.ForceCharge("NVDIMM", 5)
	totals := r.TotalBytes()
	if totals["g"] != 15 {
		t.Fatalf("totals = %v", totals)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != Default || snap[1].Name != "g" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[1].Bytes["DRAM"] != 10 || snap[1].Class != "guaranteed" {
		t.Fatalf("snapshot[g] = %+v", snap[1])
	}
}
