package wire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
)

// Handler answers one decoded request. The implementation appends the
// response body (JSON, same as the /v1 surface) to dst and returns the
// HTTP-equivalent status plus the extended slice — the server reserves
// the frame header around it, so the whole response is built in one
// pooled buffer with zero copies.
//
// body aliases a per-request buffer owned by the caller for the
// duration of the call; implementations must not retain it.
type Handler interface {
	ServeWire(ctx context.Context, op Op, tenant string, body, dst []byte) (status int, out []byte)
}

// Server speaks the binary protocol on any net.Listener — the daemon
// mounts one on a Unix socket (-uds) and one on TCP (-tcp-bin), both
// dispatching into the same Handler. Connections are persistent and
// multiplexed: request frames are dispatched onto a per-connection
// pool of reusable handler goroutines (spilling to fresh ones under
// burst), and each handler goroutine writes its own response through
// the connection's frameWriter, where responses finished together
// share one flush the way journal group commit shares fsyncs.
type Server struct {
	h     Handler
	stats *Stats

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a server dispatching into h. stats may be nil.
func NewServer(h Handler, stats *Stats) *Server {
	if stats == nil {
		stats = &Stats{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		h:      h,
		stats:  stats,
		ctx:    ctx,
		cancel: cancel,
		lns:    make(map[net.Listener]struct{}),
		conns:  make(map[*serverConn]struct{}),
	}
}

// Serve accepts connections on ln until Close (returning nil) or a
// listener error. The caller usually runs it in a goroutine, one per
// mounted listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sc := &serverConn{
			c:        c,
			fw:       newFrameWriter(c),
			idle:     make(chan chan dispatchWork, 64),
			done:     make(chan struct{}),
			inflight: make(map[uint64]struct{}),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(sc)
	}
}

// Close stops accepting, closes every live connection, and waits for
// in-flight request goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	// Connections first: a handler that returns because its context
	// was canceled must not get an answer onto a connection that is
	// about to be closed under it. To the client this is one drop,
	// mid-request, never a late success racing the hang-up.
	for _, sc := range conns {
		sc.close()
	}
	s.cancel()
	s.wg.Wait()
	return nil
}

// serverConn is one accepted connection: a reader (the serveConn
// goroutine), the dispatch workers that run its requests and write
// their own responses through fw, and the in-flight request-ID set
// that rejects duplicates. It runs no other goroutine.
type serverConn struct {
	c    net.Conn
	fw   *frameWriter
	idle chan chan dispatchWork
	done chan struct{}
	once sync.Once

	mu       sync.Mutex
	inflight map[uint64]struct{}
}

// close tears the connection down exactly once: the done channel
// retires the parked dispatch workers, and closing the conn unblocks
// the reader and any handler goroutine blocked writing its response.
func (sc *serverConn) close() {
	sc.once.Do(func() {
		close(sc.done)
		sc.c.Close()
	})
}

func (sc *serverConn) beginRequest(id uint64) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, dup := sc.inflight[id]; dup {
		return false
	}
	sc.inflight[id] = struct{}{}
	return true
}

func (sc *serverConn) endRequest(id uint64) {
	sc.mu.Lock()
	delete(sc.inflight, id)
	sc.mu.Unlock()
}

func (s *Server) serveConn(sc *serverConn) {
	defer s.wg.Done()
	s.stats.ActiveConns.Add(1)
	defer s.stats.ActiveConns.Add(-1)
	defer func() {
		sc.close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()

	br := bufio.NewReaderSize(sc.c, connBufSize)
	for {
		bp := getBuf()
		payload, buf, err := readFrame(br, (*bp)[:0], MaxRequestFrame)
		*bp = buf[:0]
		if err != nil {
			putBuf(bp)
			if err != io.EOF {
				// Anything but a clean close at a frame boundary means the
				// stream is untrustworthy; count it and hang up.
				select {
				case <-sc.done:
					// The error is our own teardown racing the read, not
					// undecodable client input.
				default:
					s.stats.DecodeErrors.Add(1)
				}
			}
			return
		}
		*bp = buf // the payload's backing array, owned by the request now
		s.stats.BytesRx.Add(uint64(frameHeaderSize + len(payload)))
		req, err := DecodeRequest(payload)
		if err != nil {
			putBuf(bp)
			s.stats.DecodeErrors.Add(1)
			return
		}
		if !sc.beginRequest(req.ID) {
			// A request ID reused while still in flight: the client's
			// mux bookkeeping is broken and its responses can no longer
			// be correlated. Protocol error; hang up.
			putBuf(bp)
			s.stats.DecodeErrors.Add(1)
			return
		}
		s.stats.Requests.Add(1)
		s.handOff(sc, dispatchWork{req: req, buf: bp})
	}
}

// dispatchWork is one decoded request on its way to a handler
// goroutine; buf backs req.Body.
type dispatchWork struct {
	req Request
	buf *[]byte
}

// handOff gives the request to a parked dispatch worker when one is
// idle and spawns a fresh goroutine otherwise. The pool is an upper
// bound on reuse, not a cap on concurrency: a handler that blocks
// (admission queues park for seconds) occupies its worker only, and
// the next request simply spawns past it. The pool stays because a
// goroutine per request screened worse on uds_hot (alloc p50 1.12x,
// p95 1.14x, 0 of 6 pairs); the cause of that loss is unverified.
func (s *Server) handOff(sc *serverConn, w dispatchWork) {
	select {
	case inbox := <-sc.idle:
		inbox <- w
	default:
		s.wg.Add(1)
		go s.dispatchWorker(sc, w)
	}
}

// dispatchWorker runs requests for one connection, parking between
// them instead of exiting: goroutine stack growth through the handler
// call tree is paid once per worker, not once per request.
func (s *Server) dispatchWorker(sc *serverConn, w dispatchWork) {
	defer s.wg.Done()
	// Buffered so a hand-off that claimed this worker never blocks,
	// even if teardown wins the race below.
	inbox := make(chan dispatchWork, 1)
	for {
		s.dispatch(sc, w.req, w.buf)
		select {
		case sc.idle <- inbox:
		default:
			return // pool full; retire
		}
		select {
		case w = <-inbox:
		case <-sc.done:
			// A hand-off may have claimed our inbox just before
			// teardown; the connection is dying either way, so any
			// such request is dropped with it.
			return
		}
	}
}

// dispatch runs one request to completion and writes its response
// frame on this goroutine; a failed write closes the connection.
// reqBuf backs req.Body and is recycled here. The wg slot is the worker's.
func (s *Server) dispatch(sc *serverConn, req Request, reqBuf *[]byte) {
	rb := getBuf()
	out, start := beginFrame((*rb)[:0])
	out = appendResponseEnvelope(out, req.ID, 0)
	status, out := s.h.ServeWire(s.ctx, req.Op, req.Tenant, req.Body, out)
	putBuf(reqBuf)
	// The status is only known after the handler ran; its slot in the
	// envelope has a fixed offset, so patch it in place.
	statusOff := start + frameHeaderSize + 1 + 8
	out[statusOff] = byte(status)
	out[statusOff+1] = byte(status >> 8)
	sealed, err := finishFrame(out, start, MaxResponseFrame)
	if err != nil {
		// The response outgrew the frame cap. The request itself was
		// fine — answer 500 with an empty body rather than killing the
		// connection.
		sealed, _ = AppendResponse(out[:start], req.ID, 500, nil)
	}
	// Free the ID before its answer reaches the peer, which may reuse it.
	sc.endRequest(req.ID)
	n, err := sc.fw.write(sealed)
	s.stats.BytesTx.Add(uint64(n))
	*rb = sealed
	putBuf(rb)
	if err != nil {
		sc.close()
	}
}
