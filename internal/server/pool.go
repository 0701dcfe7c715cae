package server

// Hot-path object pools. A placement daemon under 32-client load used
// to pay a fresh request buffer, response buffer, lease object, and
// parsed initiator bitmap per request; all four now come from pools
// (or the daemon's intern table), and the hot request shapes are scanned in
// place (types.go), so the steady-state request path allocates the
// strings a request carries and little else. The budgets in
// alloc_budget_test.go pin the result.

import (
	"sync"

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

// iniCacheMax bounds a daemon's intern table. A daemon sees a small
// closed set of cpuset lists (one per client pool), so the bound only
// guards against a stream of one-off lists: an insert that finds the
// table full empties it, and a hot list dropped that way costs one
// ParseList when it is next used.
const iniCacheMax = 4096

// initiators is a daemon's intern table of cpuset lists: one entry per
// list, with its immutable bitmap parsed once, which a lease points at
// (and keeps after the table empties). No consumer mutates a parsed
// initiator: the allocator's candidate cache copies before storing.
type initiators struct {
	mu sync.RWMutex
	m  map[string]*internedIni
}

// internedIni is one intern table entry: the list string the table is
// keyed by, and its parsed bitmap.
type internedIni struct {
	list string
	bm   *bitmap.Bitmap
}

// cpus returns the entry's bitmap, or for a journaled list the daemon
// refuses (see replay) the parse error an alloc naming it would get.
func (e *internedIni) cpus() (*bitmap.Bitmap, error) {
	if e.bm == nil {
		return nil, initiatorError(e.list, bitmap.CheckList(e.list))
	}
	return e.bm, nil
}

// intern returns the table's entry for the non-empty list s. A hit
// takes only the read lock and allocates nothing; callers that race on
// a new list all get the entry that won the insert.
func (t *initiators) intern(s string) (*internedIni, error) {
	t.mu.RLock()
	e, ok := t.m[s]
	t.mu.RUnlock()
	if ok {
		return e, nil
	}
	b, err := bitmap.ParseList(s)
	if err = initiatorError(s, err); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.m[s]; ok {
		return e, nil
	}
	if len(t.m) >= iniCacheMax || t.m == nil {
		t.m = make(map[string]*internedIni)
	}
	e = &internedIni{list: s, bm: b}
	t.m[s] = e
	return e, nil
}
