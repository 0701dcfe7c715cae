// Package tenant is hetmemd's multi-tenant QoS registry: named tenants
// with a priority class (guaranteed / burstable / best-effort) and
// per-memory-kind byte quotas (DRAM/HBM/NVDIMM/...), plus the per-tenant
// usage accounting and QoS counters the admission path and /metrics
// report from.
//
// The registry is the single source of truth for "who may use how much
// of which kind". Charging is atomic per (tenant, kind): a Charge that
// would exceed the quota fails with a *QuotaError (errors.Is-able via
// ErrOverQuota) and changes nothing. ForceCharge bypasses the limit and
// is reserved for accounting moves that must not fail — journal replay,
// migration, and evacuation — where the bytes already exist and the
// books must follow them.
package tenant

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"hetmem/internal/promtext"
)

// Class is a tenant's priority class. Ordering matters: a higher class
// degrades later under overload.
type Class int

const (
	// BestEffort tenants shed first: they get the plain watermark with
	// no queueing and no headroom.
	BestEffort Class = iota
	// Burstable tenants queue behind a bounded deadline-aware wait
	// before shedding.
	Burstable
	// Guaranteed tenants admit into reserved headroom above the shed
	// watermark and are never queued.
	Guaranteed
)

// String renders the class in config-file spelling.
func (c Class) String() string {
	switch c {
	case Guaranteed:
		return "guaranteed"
	case Burstable:
		return "burstable"
	case BestEffort:
		return "best-effort"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ParseClass parses the config-file spelling of a priority class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "guaranteed":
		return Guaranteed, nil
	case "burstable":
		return Burstable, nil
	case "best-effort":
		return BestEffort, nil
	}
	return 0, fmt.Errorf("tenant: unknown class %q (want guaranteed, burstable, or best-effort)", s)
}

// Default is the tenant charged when a request carries no
// X-Hetmem-Tenant header.
const Default = "default"

// ErrOverQuota is the errors.Is target for quota rejections.
var ErrOverQuota = errors.New("tenant: over quota")

// QuotaError reports a Charge that would exceed a tenant's per-kind
// quota. It carries the tenant, kind, and limit so the API error
// message can name all three.
type QuotaError struct {
	Tenant    string
	Kind      string
	Limit     uint64
	Used      uint64
	Requested uint64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %q over %s quota: %d bytes requested with %d of limit %d in use",
		e.Tenant, e.Kind, e.Requested, e.Used, e.Limit)
}

// Unwrap makes errors.Is(err, ErrOverQuota) work.
func (e *QuotaError) Unwrap() error { return ErrOverQuota }

// Tenant is one named tenant: immutable identity (Name, Class, quotas)
// plus atomic usage accounting and QoS counters.
type Tenant struct {
	Name  string
	Class Class

	// quotas maps memory kind -> byte limit. A kind absent from the map
	// is unlimited; a kind present with limit 0 is forbidden. Immutable
	// after registration.
	quotas map[string]uint64

	mu    sync.RWMutex
	usage map[string]*atomic.Uint64 // bytes in use by kind

	// QoS counters, exported on /metrics with a tenant label.
	Sheds         atomic.Uint64 // admissions rejected by the watermark
	QueueWaits    atomic.Uint64 // burstable admissions that waited in the queue
	QueueTimeouts atomic.Uint64 // burstable waits that timed out
	QuotaRejects  atomic.Uint64 // charges rejected by a per-kind quota
	Evictions     atomic.Uint64 // leases reaped (TTL expiry) for this tenant
}

func newTenant(name string, class Class, quotas map[string]uint64) *Tenant {
	t := &Tenant{
		Name:   name,
		Class:  class,
		quotas: make(map[string]uint64, len(quotas)),
		usage:  make(map[string]*atomic.Uint64, len(quotas)),
	}
	for k, v := range quotas {
		t.quotas[k] = v
		t.usage[k] = new(atomic.Uint64)
	}
	return t
}

// counter returns the usage counter for a kind, creating it on first
// touch. The fast path is one RLock'd map read.
func (t *Tenant) counter(kind string) *atomic.Uint64 {
	t.mu.RLock()
	c := t.usage[kind]
	t.mu.RUnlock()
	if c != nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c = t.usage[kind]; c == nil {
		c = new(atomic.Uint64)
		t.usage[kind] = c
	}
	return c
}

// Limited reports whether the tenant has any per-kind quota at all.
func (t *Tenant) Limited() bool { return len(t.quotas) > 0 }

// Quota returns the byte limit for a kind and whether one is set.
func (t *Tenant) Quota(kind string) (uint64, bool) {
	lim, ok := t.quotas[kind]
	return lim, ok
}

// Used returns the bytes currently charged against a kind.
func (t *Tenant) Used(kind string) uint64 { return t.counter(kind).Load() }

// UsedTotal returns the bytes charged across all kinds.
func (t *Tenant) UsedTotal() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var sum uint64
	for _, c := range t.usage {
		sum += c.Load()
	}
	return sum
}

// Remaining returns the unused quota for a kind and whether the kind is
// limited at all. Unlimited kinds report (0, false).
func (t *Tenant) Remaining(kind string) (uint64, bool) {
	lim, ok := t.quotas[kind]
	if !ok {
		return 0, false
	}
	used := t.counter(kind).Load()
	if used >= lim {
		return 0, true
	}
	return lim - used, true
}

// Charge atomically adds n bytes of kind to the tenant's usage,
// failing with a *QuotaError — and changing nothing — if the kind's
// quota would be exceeded. Exactly consuming the quota is allowed.
func (t *Tenant) Charge(kind string, n uint64) error {
	c := t.counter(kind)
	lim, limited := t.quotas[kind]
	for {
		cur := c.Load()
		if limited && cur+n > lim {
			t.QuotaRejects.Add(1)
			return &QuotaError{Tenant: t.Name, Kind: kind, Limit: lim, Used: cur, Requested: n}
		}
		if c.CompareAndSwap(cur, cur+n) {
			return nil
		}
	}
}

// ForceCharge adds n bytes of kind to the tenant's usage without a
// quota check. Used where the bytes already moved and the accounting
// must follow: journal replay, migration, and evacuation.
func (t *Tenant) ForceCharge(kind string, n uint64) { t.counter(kind).Add(n) }

// Refund subtracts n bytes of kind, flooring at zero so a stray
// double-refund cannot wrap the counter.
func (t *Tenant) Refund(kind string, n uint64) {
	c := t.counter(kind)
	for {
		cur := c.Load()
		d := n
		if d > cur {
			d = cur
		}
		if c.CompareAndSwap(cur, cur-d) {
			return
		}
	}
}

// BytesByKind snapshots the tenant's usage map.
func (t *Tenant) BytesByKind() map[string]uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]uint64, len(t.usage))
	for k, c := range t.usage {
		out[k] = c.Load()
	}
	return out
}

// Registry holds every known tenant. Unknown tenant names
// auto-register on first use with the default class and no quotas, so
// accounting and metrics cover clients that never appeared in the
// config file.
type Registry struct {
	mu           sync.RWMutex
	tenants      map[string]*Tenant
	defaultClass Class
}

// NewRegistry returns a registry whose default (and auto-registered)
// class is burstable, with the Default tenant pre-created.
func NewRegistry() *Registry {
	r := &Registry{tenants: make(map[string]*Tenant), defaultClass: Burstable}
	r.tenants[Default] = newTenant(Default, Burstable, nil)
	return r
}

// Define registers (or replaces) a tenant spec. Replacing resets the
// tenant's usage and counters, so define tenants before serving.
func (r *Registry) Define(name string, class Class, quotas map[string]uint64) *Tenant {
	t := newTenant(name, class, quotas)
	r.mu.Lock()
	r.tenants[name] = t
	r.mu.Unlock()
	return t
}

// Get returns the tenant for name, auto-registering an unknown name
// with the default class and no quotas. An empty name means Default.
func (r *Registry) Get(name string) *Tenant {
	if name == "" {
		name = Default
	}
	r.mu.RLock()
	t := r.tenants[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.tenants[name]; t == nil {
		t = newTenant(name, r.defaultClass, nil)
		r.tenants[name] = t
	}
	return t
}

// Names returns the registered tenant names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.tenants))
	for n := range r.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalBytes returns each tenant's bytes in use summed across kinds.
func (r *Registry) TotalBytes() map[string]uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]uint64, len(r.tenants))
	for n, t := range r.tenants {
		out[n] = t.UsedTotal()
	}
	return out
}

// Stats is one tenant's observable state, for harnesses and tests.
type Stats struct {
	Name          string            `json:"name"`
	Class         string            `json:"class"`
	Bytes         map[string]uint64 `json:"bytes_by_kind"`
	Sheds         uint64            `json:"sheds"`
	QueueWaits    uint64            `json:"queue_waits"`
	QueueTimeouts uint64            `json:"queue_timeouts"`
	QuotaRejects  uint64            `json:"quota_rejects"`
	Evictions     uint64            `json:"evictions"`
}

// Snapshot returns per-tenant stats sorted by name.
func (r *Registry) Snapshot() []Stats {
	r.mu.RLock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
	out := make([]Stats, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, Stats{
			Name:          t.Name,
			Class:         t.Class.String(),
			Bytes:         t.BytesByKind(),
			Sheds:         t.Sheds.Load(),
			QueueWaits:    t.QueueWaits.Load(),
			QueueTimeouts: t.QueueTimeouts.Load(),
			QuotaRejects:  t.QuotaRejects.Load(),
			Evictions:     t.Evictions.Load(),
		})
	}
	return out
}

// WriteMetrics emits the per-tenant Prometheus series, deterministic
// (sorted by tenant then kind). The tenant label always comes first so
// rollup consumers can prefix-match `{tenant="name"`.
func (r *Registry) WriteMetrics(w io.Writer) {
	t := promtext.NewWriter(w)
	for _, st := range r.Snapshot() {
		kinds := make([]string, 0, len(st.Bytes))
		for k := range st.Bytes {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			t.Series("hetmemd_tenant_bytes").Label("tenant", st.Name).Label("kind", k).Uint(st.Bytes[k])
		}
		t.Series("hetmemd_tenant_sheds_total").Label("tenant", st.Name).Uint(st.Sheds)
		t.Series("hetmemd_tenant_queue_waits_total").Label("tenant", st.Name).Uint(st.QueueWaits)
		t.Series("hetmemd_tenant_queue_timeouts_total").Label("tenant", st.Name).Uint(st.QueueTimeouts)
		t.Series("hetmemd_tenant_quota_rejects_total").Label("tenant", st.Name).Uint(st.QuotaRejects)
		t.Series("hetmemd_tenant_evictions_total").Label("tenant", st.Name).Uint(st.Evictions)
	}
}

// fileSpec is one tenant's entry in the -tenants config file.
type fileSpec struct {
	Class  string            `json:"class"`
	Quotas map[string]uint64 `json:"quotas,omitempty"`
}

// fileConfig is the -tenants config file:
//
//	{
//	  "default_class": "burstable",
//	  "tenants": {
//	    "gold":  {"class": "guaranteed"},
//	    "noise": {"class": "best-effort", "quotas": {"DRAM": 134217728}}
//	  }
//	}
type fileConfig struct {
	DefaultClass string              `json:"default_class,omitempty"`
	Tenants      map[string]fileSpec `json:"tenants"`
}

// Load reads a -tenants config file into the registry.
func (r *Registry) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	return r.LoadBytes(data)
}

// LoadBytes parses a -tenants config document (strict: unknown fields
// are rejected) and defines every tenant in it.
func (r *Registry) LoadBytes(data []byte) error {
	var cfg fileConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return fmt.Errorf("tenant: parsing config: %w", err)
	}
	if cfg.DefaultClass != "" {
		dc, err := ParseClass(cfg.DefaultClass)
		if err != nil {
			return fmt.Errorf("tenant: default_class: %w", err)
		}
		r.mu.Lock()
		r.defaultClass = dc
		r.mu.Unlock()
	}
	// Validate everything before defining anything, so a bad file
	// cannot half-apply.
	classes := make(map[string]Class, len(cfg.Tenants))
	for name, spec := range cfg.Tenants {
		if name == "" {
			return errors.New("tenant: config has a tenant with an empty name")
		}
		c, err := ParseClass(spec.Class)
		if err != nil {
			return fmt.Errorf("tenant: %q: %w", name, err)
		}
		classes[name] = c
	}
	for name, spec := range cfg.Tenants {
		r.Define(name, classes[name], spec.Quotas)
	}
	return nil
}
