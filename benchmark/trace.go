package main

// Tracing from outside the product: the benchmark wraps the boundaries
// a caller can already inject — the client call, the wire.Handler or
// http.Handler handed to the listener, a server.Backend decorator, the
// member http.Handler in a cluster, and Config.FS — and records one
// span per crossing. Spans of one request share its id.
//
// The id travels in data the product already carries: every request
// gets an id from its client, and an allocation's buffer name embeds it
// ("b<id>-<salt>"). Nothing else a request carries reaches every
// boundary — a cluster member sees its own lease ids, not the router's
// — so only single-item allocations are traced, and the layer self
// times are theirs.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hetmem/internal/server"
	"hetmem/internal/wire"
)

type layer uint8

const (
	layerClient  layer = iota // around the server.Client call
	layerHandler              // the wire.Handler / http.Handler behind the listener
	layerBackend              // the server.Backend decorator
	layerMember               // a cluster member's http.Handler
	layerFSWrite              // Config.FS: File.Write
	layerFSSync               // Config.FS: File.Sync
	nLayers
)

var layerNames = [nLayers]string{"client", "handler", "backend", "member", "fs.write", "fs.sync"}

// span is one crossing of a boundary by a single-item allocation (id
// is its request's), or one call into the filesystem (id 0). Times are
// nanoseconds since the tracer's epoch.
type span struct {
	id         uint64
	start, end int64
	layer      layer
	member     int8 // member index on layerMember, else -1
}

// tracer collects spans in memory while enabled. The wrappers stay
// mounted for the whole traced run and pass straight through while it
// is off, so the untraced and the traced repetition of that run differ
// by the recording alone.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) on() bool   { return t != nil && t.enabled.Load() }
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	s.end = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// bufferName builds the name of the buffer request id allocates.
func bufferName(id uint64, item int, salt uint32) string {
	b := make([]byte, 0, 40)
	b = append(b, 'b')
	b = strconv.AppendUint(b, id, 10)
	if item > 0 {
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(item), 10)
	}
	b = append(b, '-')
	b = strconv.AppendUint(b, uint64(salt), 16)
	return string(b)
}

func idFromName(name string) uint64 {
	if len(name) < 2 || name[0] != 'b' {
		return 0
	}
	return leadingUint(name[1:])
}

func leadingUint[S string | []byte](s S) uint64 {
	var n uint64
	for i := 0; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		n = n*10 + uint64(s[i]-'0')
	}
	return n
}

var nameField = []byte(`"name":"b`)

// idFromBody finds an allocation's request id in its JSON body without
// decoding it.
func idFromBody(body []byte) uint64 {
	if i := bytes.Index(body, nameField); i >= 0 {
		return leadingUint(body[i+len(nameField):])
	}
	return 0
}

// --- wire.Handler boundary ---

type tracedWire struct {
	next wire.Handler
	tr   *tracer
}

func (h tracedWire) ServeWire(ctx context.Context, op wire.Op, tenant string, body, dst []byte) (int, []byte) {
	if op != wire.OpAlloc || !h.tr.on() {
		return h.next.ServeWire(ctx, op, tenant, body, dst)
	}
	s := span{layer: layerHandler, member: -1, id: idFromBody(body), start: h.tr.now()}
	status, out := h.next.ServeWire(ctx, op, tenant, body, dst)
	h.tr.add(s)
	return status, out
}

// --- http.Handler boundary (daemon listener, and cluster members) ---

type tracedHTTP struct {
	next   http.Handler
	tr     *tracer
	member int8 // -1 for the client-facing listener
}

func (h tracedHTTP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/alloc" || !h.tr.on() {
		h.next.ServeHTTP(w, r)
		return
	}
	s := span{layer: layerHandler, member: h.member, start: h.tr.now()}
	if h.member >= 0 {
		s.layer = layerMember
	}
	// The product decodes the body itself; read it first to find the id
	// and hand the handler the same bytes.
	if body, err := io.ReadAll(io.LimitReader(r.Body, server.MaxRequestBytes+1)); err == nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
		s.id = idFromBody(body)
	}
	h.next.ServeHTTP(w, r)
	h.tr.add(s)
}

// --- server.Backend boundary ---

// tracedBackend decorates the Backend (a daemon's Server or the
// cluster Router) mounted through server.NewWireBackend. It does not
// forward the optional server.LeaseDetailer: no workload reads a single
// lease over the wire protocol.
type tracedBackend struct {
	server.Backend
	tr *tracer
}

func (b tracedBackend) Alloc(ctx context.Context, req server.AllocRequest) (server.AllocResponse, error) {
	if !b.tr.on() {
		return b.Backend.Alloc(ctx, req)
	}
	s := span{layer: layerBackend, member: -1, id: idFromName(req.Name), start: b.tr.now()}
	resp, err := b.Backend.Alloc(ctx, req)
	b.tr.add(s)
	return resp, err
}

// --- analysis ---

// layerTimes is what the traced repetition says about single-item
// allocations: the p50 of each layer's self time, in microseconds.
// A layer the workload does not cross reads 0.
type layerTimes struct {
	clientSpan    float64 // p50 of the client span
	transportSelf float64 // client span - handler span
	handlerSpan   float64
	codecSelf     float64 // handler span - backend span
	backendSpan   float64
	backendSelf   float64 // backend span - member span - FS time inside it
	memberSpan    float64
	fsInBackend   float64 // FS write+sync time overlapping the backend span
	fsWrite       float64 // p50 of one File.Write
	fsSync        float64 // p50 of one File.Sync
	unaccounted   float64 // client span p50 - sum of the self-time p50s
}

// analyze matches the spans of each traced allocation and takes the
// p50 of every layer's self time: a span's duration minus the part of
// it its child spans cover.
func (t *tracer) analyze() layerTimes {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()

	type request struct{ sp [layerMember + 1]*span }
	reqs := make(map[uint64]*request)
	var fs []span
	var writes, syncs []float64
	for i := range spans {
		s := &spans[i]
		switch s.layer {
		case layerFSWrite:
			fs = append(fs, *s)
			writes = append(writes, float64(s.end-s.start)/1e3)
		case layerFSSync:
			fs = append(fs, *s)
			syncs = append(syncs, float64(s.end-s.start)/1e3)
		default:
			if s.id == 0 {
				continue
			}
			r := reqs[s.id]
			if r == nil {
				r = &request{}
				reqs[s.id] = r
			}
			r.sp[s.layer] = s
		}
	}
	// A background checkpoint writes beside the WAL, so FS calls can
	// overlap: merge them into disjoint intervals first. The time they
	// cover inside [a, b) is then the sum of the clipped intervals.
	sort.Slice(fs, func(i, j int) bool { return fs[i].start < fs[j].start })
	merged := fs[:0]
	for _, s := range fs {
		if n := len(merged); n > 0 && s.start <= merged[n-1].end {
			merged[n-1].end = max(merged[n-1].end, s.end)
			continue
		}
		merged = append(merged, s)
	}
	fs = merged
	fsCover := func(a, b int64) int64 {
		i := sort.Search(len(fs), func(i int) bool { return fs[i].end > a })
		var sum int64
		for ; i < len(fs) && fs[i].start < b; i++ {
			sum += min(fs[i].end, b) - max(fs[i].start, a)
		}
		return sum
	}

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var client, transport, handler, codec, backend, backendSelf, member, fsIn []float64
	for _, r := range reqs {
		c, h, b, m := r.sp[layerClient], r.sp[layerHandler], r.sp[layerBackend], r.sp[layerMember]
		if c == nil || h == nil {
			continue
		}
		cd, hd := c.end-c.start, h.end-h.start
		client = append(client, us(cd))
		handler = append(handler, us(hd))
		transport = append(transport, us(cd-hd))
		if b == nil {
			continue
		}
		bd := b.end - b.start
		backend = append(backend, us(bd))
		codec = append(codec, us(hd-bd))
		var md int64
		if m != nil {
			md = m.end - m.start
			member = append(member, us(md))
		}
		cover := fsCover(b.start, b.end)
		fsIn = append(fsIn, us(cover))
		backendSelf = append(backendSelf, us(bd-md-cover))
	}
	lt := layerTimes{
		clientSpan:    median(client),
		transportSelf: median(transport),
		handlerSpan:   median(handler),
		codecSelf:     median(codec),
		backendSpan:   median(backend),
		backendSelf:   median(backendSelf),
		memberSpan:    median(member),
		fsInBackend:   median(fsIn),
		fsWrite:       median(writes),
		fsSync:        median(syncs),
	}
	accounted := lt.transportSelf + lt.codecSelf + lt.backendSelf + lt.memberSpan + lt.fsInBackend
	if len(backend) == 0 {
		// No seam below the handler (a daemon's own http.Handler): the
		// handler span is the innermost thing seen.
		accounted = lt.transportSelf + lt.handlerSpan
	}
	lt.unaccounted = lt.clientSpan - accounted
	return lt
}

// spanRecord is one line of the -trace-out file.
type spanRecord struct {
	Span    int     `json:"span"`
	Parent  int     `json:"parent"` // 0: none, or not matched from outside
	Request uint64  `json:"request"`
	Layer   string  `json:"layer"`
	Member  string  `json:"member,omitempty"` // "m0".."m3" on member spans
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// writeTo writes every span as one JSON line. A span's parent is the
// span of the same request one boundary further out; FS spans belong
// to whichever requests wait on the journal at the time and have none.
func (t *tracer) writeTo(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	type key struct {
		id uint64
		l  layer
	}
	index := make(map[key]int, len(spans))
	for i, s := range spans {
		if s.id != 0 && s.layer <= layerMember {
			index[key{s.id, s.layer}] = i + 1
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := spanRecord{
			Span: i + 1, Request: s.id, Layer: layerNames[s.layer],
			StartUs: float64(s.start) / 1e3, EndUs: float64(s.end) / 1e3,
		}
		if s.layer == layerMember {
			rec.Member = "m" + strconv.Itoa(int(s.member))
		}
		if s.id != 0 {
			for l := s.layer; l > layerClient && l <= layerMember; l-- {
				if p, ok := index[key{s.id, l - 1}]; ok {
					rec.Parent = p
					break
				}
			}
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
