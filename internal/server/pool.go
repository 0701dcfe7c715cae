package server

// Hot-path object pools. A placement daemon under 32-client load used
// to pay a fresh request buffer, response buffer, lease object, and
// parsed initiator bitmap per request; all four now come from pools
// (or an intern cache), and the hot request shapes are scanned in
// place (types.go), so the steady-state request path allocates the
// strings a request carries and little else. The budgets in
// alloc_budget_test.go pin the result.

import (
	"sync"
	"sync/atomic"

	"hetmem/internal/bitmap"
)

// respBufPool recycles response encode buffers (see encode.go).
var respBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

func getRespBuf() *[]byte  { return respBufPool.Get().(*[]byte) }
func putRespBuf(b *[]byte) { *b = (*b)[:0]; respBufPool.Put(b) }

// maxPooledResp caps the response buffer a request may hand back grown:
// a metrics text fits, a lease listing of a large daemon does not and
// is left to the collector.
const maxPooledResp = 64 << 10

// reqBufPool recycles request body read buffers (see readRequest).
var reqBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getReqBuf() *[]byte  { return reqBufPool.Get().(*[]byte) }
func putReqBuf(b *[]byte) { *b = (*b)[:0]; reqBufPool.Put(b) }

// iniCacheMax bounds the initiator intern cache; a daemon sees a small
// closed set of cpuset strings (one per client pool), so the bound only
// guards against an adversarial stream of unique lists.
const iniCacheMax = 4096

var (
	iniCache     sync.Map // cpuset list string -> *internedIni
	iniCacheSize atomic.Int64
)

// internedIni is one intern cache entry: the list string the cache is
// keyed by, and its parsed bitmap.
type internedIni struct {
	list string
	bm   *bitmap.Bitmap
}

// internInitiator parses a cpuset list through a process-wide intern
// cache: the same list string yields the same immutable bitmap, parsed
// once, and the same string — the cache's own key, which a long-lived
// holder such as a lease keeps instead of the request's copy. Safe to
// share because no consumer mutates parsed initiators — the
// allocator's candidate cache copies before storing and otherwise only
// reads. Callers that race on a new list all get the entry that won
// the insert; only that insert counts against iniCacheMax.
func internInitiator(s string) (string, *bitmap.Bitmap, error) {
	if v, ok := iniCache.Load(s); ok {
		e := v.(*internedIni)
		return e.list, e.bm, nil
	}
	b, err := bitmap.ParseList(s)
	if err != nil {
		return "", nil, err
	}
	// Reserve a slot first, so racing inserts never overshoot the bound.
	if iniCacheSize.Add(1) > iniCacheMax {
		iniCacheSize.Add(-1)
		return s, b, nil
	}
	v, loaded := iniCache.LoadOrStore(s, &internedIni{list: s, bm: b})
	if loaded {
		iniCacheSize.Add(-1) // another caller's insert won
	}
	e := v.(*internedIni)
	return e.list, e.bm, nil
}
