package main

// The workload table and the seeded request generator. A workload is a
// deployment shape (transport, journal, single daemon or cluster) plus
// a traffic mix; the generator turns (workload, seed, client index)
// into a deterministic stream of abstract ops, and the daemon under
// test sees only the requests built from that stream.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// opKind is one client-visible request type.
type opKind uint8

const (
	opAlloc opKind = iota
	opFree
	opBatch
	opRenew
	opMigrate
	opRead // GET /v1/leases/{id}
	opScan // GET /v1/leases (summary)
	opMetrics
	opAttrs
	nOpKinds
)

var opNames = [nOpKinds]string{"alloc", "free", "batch", "renew", "migrate", "read", "scan", "metrics", "attrs"}

func (k opKind) String() string { return opNames[k] }

// onLease reports whether the request names a lease the client holds.
func (k opKind) onLease() bool {
	return k == opFree || k == opRenew || k == opMigrate || k == opRead
}

// batchItems is the size of every /v1/alloc/batch request.
const batchItems = 16

// mixEntry gives one op kind its share of a random mix, in percent.
type mixEntry struct {
	kind  opKind
	share int
}

// workload describes one benchmark workload. The four entries of
// workloads are the whole definition; nothing else in the package
// branches on a workload's name.
type workload struct {
	name string
	why  string
	// transport is how clients reach the service: "uds" (one shared
	// multiplexed unix:// connection) or "http" (one client, and so one
	// connection, per goroutine).
	transport string
	// platforms lists the daemons: one entry is a single hetmemd, more
	// are cluster members behind a router.
	platforms []string
	// journal runs the daemon with a group-committed WAL on the real
	// filesystem and makes the restart phase replay a crash image.
	journal bool
	// standing is the lease population created in set-up and held for
	// the whole run.
	standing int
	// window bounds the leases each client holds at once.
	window int
	// mix is the random traffic mix; nil means the fixed cycle "alloc,
	// then free the oldest lease once the window is full".
	mix []mixEntry
	// initiator is the cpuset of the fixed-cycle allocations ("" means
	// the whole machine, which is valid on every platform).
	initiator string
	// tenants, when set, are stamped round-robin on the clients.
	tenants []string
}

var attrNames = []string{"Bandwidth", "Latency", "Capacity"}

// commonCpusets are the initiators half of the mixed allocations use,
// so their rankings stay in the candidate cache; the other half draw a
// fresh sparse set and miss it.
var commonCpusets = []string{"0-19", "20-39", "0-39", "0-9"}

// xeonPUs is the PU count of the xeon platform the sparse sets draw from.
const xeonPUs = 40

var workloads = []workload{
	{
		name:      "uds_hot",
		why:       "cache-hit allocs over one unix socket, no disk: wire framing and the server decode-place-encode chain do nearly all the work",
		transport: "uds",
		platforms: []string{"xeon"},
		standing:  20000,
		window:    64,
		initiator: "0-19",
	},
	{
		name:      "wal_durable",
		why:       "uds_hot traffic with a group-committed journal on the real disk, then cold opens of a crash image: journal append, fsync and replay dominate",
		transport: "uds",
		platforms: []string{"xeon"},
		journal:   true,
		standing:  20000,
		window:    64,
		initiator: "0-19",
	},
	{
		name:      "http_mixed",
		why:       "HTTP/JSON mix with about half ranking-cache misses, three tenants and snapshot reads between writes: ranking, tenant charge and epoch rebuilds are on the path",
		transport: "http",
		platforms: []string{"xeon"},
		standing:  5000,
		window:    256,
		// The shares keep the window balanced in expectation: leases
		// enter at 29 + 16*1 per 100 ops and leave at 45.
		mix: []mixEntry{
			{opAlloc, 29}, {opBatch, 1}, {opFree, 45}, {opRenew, 10}, {opMigrate, 3},
			{opRead, 6}, {opScan, 3}, {opMetrics, 2}, {opAttrs, 1},
		},
		tenants: []string{"gold", "silver", "bronze"},
	},
	{
		name:      "cluster_uds",
		why:       "uds_hot traffic through a router in front of four heterogeneous members: isolates the rendezvous pick and the router-to-member forward",
		transport: "uds",
		platforms: []string{"xeon", "knl-snc4-flat", "fictitious", "xeon-snc2"},
		standing:  4000,
		window:    64,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// allocSpec is the generated part of one allocation request.
type allocSpec struct {
	size      uint64
	attr      string
	initiator string
	remote    bool
}

// op is one generated request. slot picks the lease an op on an
// existing lease applies to, as an index into the client's window.
type op struct {
	kind   opKind
	slot   int
	allocs []allocSpec // one for opAlloc, batchItems for opBatch
	salt   uint32      // makes buffer names differ between seeds
}

// generator produces one client's op stream. It is driven by the
// length of the client's window and by nothing else the daemon
// returns, so the stream is a function of (workload, seed, client).
type generator struct {
	wl  *workload
	rng *rand.Rand
	buf [batchItems]allocSpec
}

func newGenerator(wl *workload, seed int64, client int) *generator {
	return &generator{wl: wl, rng: rand.New(rand.NewSource(seed + int64(client)))}
}

// next returns the op to issue when the client holds live leases. The
// returned op's allocs alias the generator and are valid until the
// following call.
func (g *generator) next(live int) op {
	o := op{salt: g.rng.Uint32()}
	if g.wl.mix == nil {
		if live >= g.wl.window {
			o.kind = opFree // slot 0: the oldest
			return o
		}
		g.buf[0] = allocSpec{size: 1 << 20, attr: "Bandwidth", initiator: g.wl.initiator}
		o.allocs = g.buf[:1]
		return o
	}
	o.kind = g.pick()
	switch o.kind {
	case opAlloc, opBatch:
		n := 1
		if o.kind == opBatch {
			n = batchItems
		}
		if live+n > g.wl.window {
			o.kind = opFree
			o.slot = g.rng.Intn(live)
			return o
		}
		for i := 0; i < n; i++ {
			g.buf[i] = mixedAlloc(g.rng)
		}
		o.allocs = g.buf[:n]
	case opFree, opRenew, opMigrate, opRead:
		if live == 0 {
			o.kind = opAlloc
			g.buf[0] = mixedAlloc(g.rng)
			o.allocs = g.buf[:1]
			return o
		}
		o.slot = g.rng.Intn(live)
		if o.kind == opMigrate {
			g.buf[0] = allocSpec{attr: attrNames[g.rng.Intn(len(attrNames))]}
			o.allocs = g.buf[:1]
		}
	}
	return o
}

func (g *generator) pick() opKind {
	n := g.rng.Intn(100)
	for _, m := range g.wl.mix {
		if n < m.share {
			return m.kind
		}
		n -= m.share
	}
	panic("benchmark: mix shares do not sum to 100")
}

// mixedAlloc draws one allocation of the mixed workload: attribute
// uniform, size log-uniform over 64 KiB..16 MiB, initiator half common
// and half a sparse set of up to four PUs, one in ten remote.
func mixedAlloc(rng *rand.Rand) allocSpec {
	a := allocSpec{
		attr:   attrNames[rng.Intn(len(attrNames))],
		size:   uint64(float64(64<<10) * math.Pow(256, rng.Float64())),
		remote: rng.Intn(10) == 0,
	}
	if rng.Intn(2) == 0 {
		a.initiator = commonCpusets[rng.Intn(len(commonCpusets))]
		return a
	}
	// Four draws with replacement: one to four distinct PUs, nearly
	// always a set no earlier request used.
	var pus [4]int
	for i := range pus {
		pus[i] = rng.Intn(xeonPUs)
	}
	var sb strings.Builder
	for i, pu := range pus {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(pu))
	}
	a.initiator = sb.String()
	return a
}
