package server

// The client half of HTTP/1.1. An http:// or https:// base does not go
// through net/http's Transport: each exchange is one Write of the whole
// request from a per-connection buffer and a read of the response
// through a 4 KiB bufio.Reader, both on the calling goroutine, over a
// small pool of keep-alive connections. The attempt timeout is a
// connection deadline and the caller's context a context.AfterFunc that
// expires it, so no attempt derives a context or hands the request to
// another goroutine.
//
// The response parser reads what net/http's ReadResponse reads and
// agrees with it on status, Retry-After, keep-alive and body wherever
// ReadResponse accepts the bytes (FuzzHTTPResponse holds it to that);
// it accepts a little more, never less. A connection that saw an error,
// a deadline, a Connection: close or a byte past the response is closed
// instead of pooled, and an idle connection is peeked without blocking
// before reuse, so one the server has closed is redialled rather than
// written to.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// maxIdleConns caps the connections a Client keeps open between
	// requests: one per concurrent caller, up to this many.
	maxIdleConns = 128
	// maxHeaderBytes bounds a response's status line and headers, and
	// a chunked body's trailer.
	maxHeaderBytes = 1 << 20
	// max1xx bounds the informational responses skipped before the
	// final one.
	max1xx = 5
)

var (
	errHeaderTooLarge = errors.New("server: HTTP response header exceeds 1 MiB")
	// aLongTimeAgo is the deadline that fails a connection's pending
	// and future reads and writes at once.
	aLongTimeAgo = time.Unix(1, 0)
)

// httpTransport is a Client's HTTP/1.1 exchange with one daemon.
type httpTransport struct {
	err    error  // the base URL is unusable; every request fails with it
	addr   string // host:port to dial
	host   string // Host header
	prefix string // the base URL's path, put before every request path
	tls    *tls.Config

	mu   sync.Mutex
	idle []*httpConn // LIFO: the most recently used connection is warmest
}

func newHTTPTransport(base string) *httpTransport {
	u, err := url.Parse(base)
	if err != nil {
		return &httpTransport{err: err}
	}
	t := &httpTransport{host: u.Host, prefix: strings.TrimRight(u.EscapedPath(), "/")}
	port := u.Port()
	switch u.Scheme {
	case "http":
		if port == "" {
			port = "80"
		}
	case "https":
		if port == "" {
			port = "443"
		}
		t.tls = &tls.Config{ServerName: u.Hostname()}
	default:
		return &httpTransport{err: fmt.Errorf("server: unsupported base URL scheme %q (want http, https, unix or tcp+bin)", u.Scheme)}
	}
	if u.Hostname() == "" {
		return &httpTransport{err: fmt.Errorf("server: base URL %q has no host", base)}
	}
	t.addr = net.JoinHostPort(u.Hostname(), port)
	return t
}

// check refuses, before anything is dialled, a request that no attempt
// could send: an unusable base URL, or a tenant that would break out
// of its header line.
func (t *httpTransport) check(tenant string) error {
	if t.err != nil {
		return t.err
	}
	for i := 0; i < len(tenant); i++ {
		if c := tenant[i]; c < ' ' && c != '\t' || c == 0x7f {
			return fmt.Errorf("%w: tenant %q is not a valid %s header value", ErrBadRequest, tenant, TenantHeader)
		}
	}
	return nil
}

// roundTrip sends one request and reads its final response. timeout > 0
// bounds the whole attempt, dial included; ctx ends it early. A
// response that arrived whole is returned even when ctx ended just
// after it.
func (t *httpTransport) roundTrip(ctx context.Context, timeout time.Duration, rt *route, id uint64, tenant string, payload []byte) (httpResponse, error) {
	if err := ctx.Err(); err != nil {
		return httpResponse{}, err
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	pc, err := t.conn(ctx, deadline)
	if err != nil {
		return httpResponse{}, err
	}
	if err := pc.nc.SetDeadline(deadline); err != nil {
		pc.nc.Close()
		return httpResponse{}, err
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, pc.expire)
	}
	resp, err := pc.exchange(rt, id, t.prefix, t.host, tenant, payload)
	if stop != nil && !stop() {
		// The context ended mid-exchange and its deadline now poisons
		// the connection; a complete response still stands.
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		pc.nc.Close()
		return resp, err
	}
	if err != nil || !resp.keepAlive || pc.rr.br.Buffered() > 0 {
		pc.nc.Close()
		return resp, err
	}
	t.mu.Lock()
	if len(t.idle) < maxIdleConns {
		t.idle = append(t.idle, pc)
		pc = nil
	}
	t.mu.Unlock()
	if pc != nil {
		pc.nc.Close()
	}
	return resp, nil
}

// conn pops the warmest idle connection the server has not closed, or
// dials a new one.
func (t *httpTransport) conn(ctx context.Context, deadline time.Time) (*httpConn, error) {
	for {
		t.mu.Lock()
		n := len(t.idle)
		if n == 0 {
			t.mu.Unlock()
			break
		}
		pc := t.idle[n-1]
		t.idle[n-1] = nil
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		if pc.idleOK() {
			return pc, nil
		}
		pc.nc.Close()
	}
	d := net.Dialer{Timeout: 30 * time.Second, Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, err
	}
	pc := newHTTPConn(nc)
	if t.tls != nil {
		tc := tls.Client(nc, t.tls)
		err := nc.SetDeadline(deadline)
		if err == nil {
			err = tc.HandshakeContext(ctx)
		}
		if err != nil {
			nc.Close()
			return nil, err
		}
		pc.nc = tc
		pc.rr.br.Reset(tc)
	}
	return pc, nil
}

// closeIdle closes every pooled connection.
func (t *httpTransport) closeIdle() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, pc := range idle {
		pc.nc.Close()
	}
}

// httpConn is one keep-alive connection.
type httpConn struct {
	nc   net.Conn
	rr   respReader
	wbuf []byte
	// expire moves nc's deadline into the past; it is what the
	// caller's context.AfterFunc runs, built once per connection.
	expire func()
	idlePeek
}

func newHTTPConn(nc net.Conn) *httpConn {
	pc := &httpConn{nc: nc, rr: respReader{br: bufio.NewReaderSize(nc, 4<<10)}}
	pc.expire = func() { pc.nc.SetDeadline(aLongTimeAgo) }
	pc.idlePeek.init(nc)
	return pc
}

// exchange writes the request in one Write, its request line from the
// op's route, and reads the final response, skipping informational
// ones.
func (pc *httpConn) exchange(rt *route, id uint64, prefix, host, tenant string, payload []byte) (httpResponse, error) {
	b := append(pc.wbuf[:0], rt.method...)
	b = append(b, ' ')
	b = append(b, prefix...)
	b = rt.appendTarget(b, id)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	if payload != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(payload)), 10)
	}
	if tenant != "" {
		b = append(b, "\r\n"+TenantHeader+": "...)
		b = append(b, tenant...)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, payload...)
	_, err := pc.nc.Write(b)
	if cap(b) <= 64<<10 { // a batch's big buffer is not kept idle
		pc.wbuf = b
	}
	if err != nil {
		return httpResponse{}, err
	}
	for i := 0; ; i++ {
		resp, err := pc.rr.read()
		if err != nil || resp.status < 100 || resp.status > 199 {
			return resp, err
		}
		if resp.status == 101 || i == max1xx {
			return httpResponse{}, fmt.Errorf("server: unexpected HTTP %d response", resp.status)
		}
	}
}

// httpResponse is what the client keeps of one response.
type httpResponse struct {
	status     int
	keepAlive  bool   // the connection may carry another request
	retryAfter string // the first Retry-After value, "" when absent
	body       []byte
}

// respReader parses HTTP/1.x responses from br. Its scratch buffers
// are reused from one response to the next.
type respReader struct {
	br     *bufio.Reader
	long   []byte // a line longer than br's buffer
	line   []byte // a header line with its continuation lines
	cl     []byte // the first Content-Length value, trimmed
	budget int    // header bytes left for this response
}

var errMalformed = errors.New("server: malformed HTTP response")

// read parses one response, head and body, the way net/http's
// ReadResponse does for a GET or POST.
func (r *respReader) read() (httpResponse, error) {
	var resp httpResponse
	r.budget = maxHeaderBytes
	line, err := r.readLine()
	if err != nil {
		return resp, err
	}
	// HTTP-version SP status-code [SP reason]
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return resp, errMalformed
	}
	proto, code := line[:sp], bytes.TrimLeft(line[sp+1:], " ")
	if i := bytes.IndexByte(code, ' '); i >= 0 {
		code = code[:i]
	}
	if len(code) != 3 {
		return resp, errMalformed
	}
	if resp.status, err = strconv.Atoi(string(code)); err != nil || resp.status < 0 {
		return resp, errMalformed
	}
	major, minor, ok := http.ParseHTTPVersion(string(proto))
	if !ok {
		return resp, errMalformed
	}

	var h struct {
		te, cl              int  // Transfer-Encoding and Content-Length fields seen
		chunked, clConflict bool // the one TE field says chunked; the CLs differ
		close, keepAlive    bool // Connection tokens
		retryAfter          bool // a Retry-After field was seen
	}
	for {
		line, err := r.readLine()
		if err != nil {
			return resp, err
		}
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			return resp, errMalformed // a continuation with nothing to continue
		}
		r.line = append(r.line[:0], bytes.Trim(line, " \t")...)
		// obs-fold: a line that starts with white space continues the
		// field, joined by one space.
		for {
			next, err := r.br.Peek(1)
			if err != nil || next[0] != ' ' && next[0] != '\t' {
				break
			}
			cont, err := r.readLine()
			if err != nil {
				return resp, err
			}
			r.line = append(r.line, ' ')
			r.line = append(r.line, bytes.Trim(cont, " \t")...)
		}
		colon := bytes.IndexByte(r.line, ':')
		if colon < 0 {
			return resp, errMalformed
		}
		key, value := r.line[:colon], bytes.TrimLeft(r.line[colon+1:], " \t")
		switch {
		case asciiEqualFold(key, "content-length"):
			v := bytes.Trim(value, " \t\r\n")
			if h.cl == 0 {
				r.cl = append(r.cl[:0], v...)
			} else if !bytes.Equal(v, r.cl) {
				h.clConflict = true
			}
			h.cl++
		case asciiEqualFold(key, "transfer-encoding"):
			h.te++
			h.chunked = asciiEqualFold(value, "chunked")
		case asciiEqualFold(key, "connection"):
			h.close = h.close || hasToken(value, "close")
			h.keepAlive = h.keepAlive || hasToken(value, "keep-alive")
		case asciiEqualFold(key, "retry-after"):
			if !h.retryAfter {
				h.retryAfter = true
				resp.retryAfter = string(value)
			}
		}
	}

	// Keep-alive is HTTP/1.1's default, HTTP/1.0's by request.
	closing := major < 1 || h.close || major == 1 && minor == 0 && !h.keepAlive
	// Transfer-Encoding counts from HTTP/1.1 on ("HTTP/0.0" reads as
	// 1.1 there, as it does in net/http), and only as chunked.
	chunked := false
	if h.te > 0 && (major > 1 || major == 1 && minor >= 1 || major == 0 && minor == 0) {
		if h.te != 1 || !h.chunked {
			return resp, errMalformed
		}
		chunked = true
	}
	if !chunked && h.clConflict {
		return resp, errMalformed
	}
	switch {
	case resp.status/100 == 1 || resp.status == 204 || resp.status == 304:
		// no body
	case chunked:
		resp.body, err = r.readChunked()
	case h.cl > 0 && len(r.cl) > 0: // an empty value reads as none
		n, perr := strconv.ParseUint(string(r.cl), 10, 63)
		if perr != nil {
			return resp, errMalformed
		}
		resp.body, err = readFull(r.br, make([]byte, 0, min(n, 1<<20)), n)
	default:
		closing = true
		resp.body, err = io.ReadAll(r.br)
	}
	if err != nil {
		return httpResponse{}, err
	}
	resp.keepAlive = !closing
	return resp, nil
}

// readChunked reads a chunked body and its trailer.
func (r *respReader) readChunked() ([]byte, error) {
	var body []byte
	for {
		line, err := r.br.ReadSlice('\n')
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		line = bytes.TrimRight(line, " \t\r\n")
		if i := bytes.IndexByte(line, ';'); i >= 0 { // chunk extensions
			line = line[:i]
		}
		n, err := strconv.ParseUint(string(line), 16, 64)
		if err != nil {
			return nil, errMalformed
		}
		if n == 0 {
			break
		}
		if body, err = readFull(r.br, body, n); err != nil {
			return nil, err
		}
		var crlf [2]byte
		if _, err := io.ReadFull(r.br, crlf[:]); err != nil {
			return nil, io.ErrUnexpectedEOF
		}
		if crlf != [2]byte{'\r', '\n'} {
			return nil, errMalformed
		}
	}
	for { // the trailer: fields up to an empty line, all ignored
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			return body, nil
		}
	}
}

// readLine returns the next line without its "\n" and one "\r" before
// it, as bufio.Reader.ReadLine does. The slice is valid until the next
// read from r.br.
func (r *respReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull && len(r.long) <= r.budget {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if r.budget -= len(line); r.budget < 0 {
		return nil, errHeaderTooLarge
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// readFull appends exactly n bytes from br to b. It grows b as the
// bytes arrive, so a length no bytes back is never allocated up front.
func readFull(br *bufio.Reader, b []byte, n uint64) ([]byte, error) {
	for n > 0 {
		step := int(min(n, 1<<20))
		b = slices.Grow(b, step)
		got, err := io.ReadFull(br, b[len(b):len(b)+step])
		b = b[:len(b)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		n -= uint64(step)
	}
	return b, nil
}

// hasToken reports whether a comma-separated header value lists token,
// ASCII case-insensitively.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		item := v
		if i := bytes.IndexByte(v, ','); i >= 0 {
			item, v = v[:i], v[i+1:]
		} else {
			v = nil
		}
		if asciiEqualFold(bytes.Trim(item, " \t"), token) {
			return true
		}
	}
	return false
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if lowerASCII(b[i]) != lowerASCII(s[i]) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}
