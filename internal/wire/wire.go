// Package wire is hetmemd's binary protocol: the /v1 request set over
// a persistent, multiplexed byte stream (Unix domain socket or TCP)
// instead of one HTTP exchange per call. The HTTP surface remains the
// stable compat API; this is the hot path for clients that allocate at
// allocator-call granularity, where HTTP/1.1 framing and header
// parsing dominate the request cost.
//
// # Frame layout
//
// Every message — request or response — travels in the journal's frame
// shape (see internal/journal/encode.go): a fixed 8-byte header
// followed by the payload.
//
//	offset  size  field
//	0       4     payload length N (uint32, little-endian)
//	4       4     CRC32-IEEE of the payload (uint32, little-endian)
//	8       N     payload
//
// A request payload is
//
//	ver(1) | op(1) | request id (uint64 LE) | tenant len(1) | tenant | body
//
// and a response payload is
//
//	ver(1) | request id (uint64 LE) | status (uint16 LE) | body
//
// where status carries the same HTTP status code the /v1 surface would
// have answered, and body is the same JSON the /v1 surface would have
// sent (response object or v1 error envelope) — the two transports
// share one wire vocabulary, so a client can switch schemes without
// reinterpreting anything.
//
// One connection carries many in-flight requests: the client tags each
// with a 64-bit request ID and the server may answer out of order.
// Reusing a request ID while it is still in flight is a protocol error
// and closes the connection. A Client spreads concurrent callers over
// a few such connections (see Client).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
)

// Version is the protocol version stamped on every payload. A peer
// speaking a different version is rejected at decode.
const Version = 1

// frameHeaderSize is the fixed length+CRC prefix on every frame.
const frameHeaderSize = 8

// connBufSize is a connection's read and write buffer, net/http's size;
// bufio moves a larger frame straight to or from its own buffer.
const connBufSize = 4 << 10

// MaxRequestFrame bounds a request payload: the /v1 body limit plus
// the request envelope. Anything larger is a decode error and closes
// the connection before the daemon buffers it.
const MaxRequestFrame = 1<<20 + 512

// MaxResponseFrame bounds a response payload. Responses can outgrow
// requests by orders of magnitude (lease lists, /metrics text), so the
// cap is looser; a response the server cannot fit answers 500 instead.
const MaxResponseFrame = 8 << 20

// Op identifies one /v1 operation in a request payload.
type Op uint8

// The binary ops, mirroring the /v1 surface. Advisor control stays
// HTTP-only: it is an operator surface, not an allocation hot path.
const (
	OpTopology Op = iota + 1
	OpAttrs
	OpAlloc
	OpAllocBatch
	OpFree
	OpRenew
	OpMigrate
	OpLeases    // lease-table summary (no per-lease list)
	OpLeaseList // lease-table summary plus the per-lease list
	OpLeaseDetail
	OpHealth
	OpMetrics
	opSentinel // one past the last valid op
)

var opNames = [opSentinel]string{
	0:             "invalid",
	OpTopology:    "topology",
	OpAttrs:       "attrs",
	OpAlloc:       "alloc",
	OpAllocBatch:  "alloc_batch",
	OpFree:        "free",
	OpRenew:       "renew",
	OpMigrate:     "migrate",
	OpLeases:      "leases",
	OpLeaseList:   "lease_list",
	OpLeaseDetail: "lease_detail",
	OpHealth:      "health",
	OpMetrics:     "metrics",
}

func (o Op) String() string {
	if o == 0 || o >= opSentinel {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opNames[o]
}

// Valid reports whether the op is one this version speaks.
func (o Op) Valid() bool { return o >= OpTopology && o < opSentinel }

// Decode and protocol errors. ErrBadFrame covers everything that makes
// the byte stream untrustworthy — truncation, CRC mismatch, a
// malformed envelope — after which the only safe move is closing the
// connection: framing is lost and every later byte is suspect.
var (
	ErrBadFrame      = errors.New("wire: bad frame")
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
)

// Request is a decoded request payload. Body aliases the decoded
// buffer; it is valid until the buffer is reused.
type Request struct {
	Op     Op
	ID     uint64
	Tenant string
	Body   []byte
}

// Response is a decoded response payload. Body aliases the decoded
// buffer.
type Response struct {
	ID     uint64
	Status int
	Body   []byte
}

// bufPool recycles frame build/read buffers. Buffers start at 512
// bytes — enough for any single-lease exchange — and grow as payloads
// demand.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { *b = (*b)[:0]; bufPool.Put(b) }

// beginFrame reserves the 8-byte header and returns its offset;
// finishFrame seals it once the payload has been appended in place —
// the journal encoder's one-buffer-per-frame idiom.
func beginFrame(dst []byte) ([]byte, int) {
	start := len(dst)
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), start
}

func finishFrame(dst []byte, start, max int) ([]byte, error) {
	payload := dst[start+frameHeaderSize:]
	if len(payload) > max {
		return dst[:start], fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(payload), max)
	}
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// AppendRequest appends one framed request to dst.
func AppendRequest(dst []byte, op Op, id uint64, tenant string, body []byte) ([]byte, error) {
	if !op.Valid() {
		return dst, fmt.Errorf("%w: invalid op %d", ErrBadFrame, uint8(op))
	}
	if len(tenant) > 255 {
		return dst, fmt.Errorf("%w: tenant name over 255 bytes", ErrBadFrame)
	}
	dst, start := beginFrame(dst)
	dst = append(dst, Version, byte(op))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, byte(len(tenant)))
	dst = append(dst, tenant...)
	dst = append(dst, body...)
	return finishFrame(dst, start, MaxRequestFrame)
}

// AppendResponse appends one framed response to dst.
func AppendResponse(dst []byte, id uint64, status int, body []byte) ([]byte, error) {
	dst, start := beginFrame(dst)
	dst = appendResponseEnvelope(dst, id, status)
	dst = append(dst, body...)
	return finishFrame(dst, start, MaxResponseFrame)
}

// responseEnvelopeSize is ver + request id + status.
const responseEnvelopeSize = 1 + 8 + 2

func appendResponseEnvelope(dst []byte, id uint64, status int) []byte {
	dst = append(dst, Version)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return binary.LittleEndian.AppendUint16(dst, uint16(status))
}

// DecodeRequest parses a request payload (the bytes after the frame
// header). The returned Body aliases payload.
func DecodeRequest(payload []byte) (Request, error) {
	// ver + op + id + tenant len
	if len(payload) < 1+1+8+1 {
		return Request{}, fmt.Errorf("%w: request payload of %d bytes", ErrBadFrame, len(payload))
	}
	if payload[0] != Version {
		return Request{}, fmt.Errorf("%w: %d", ErrBadVersion, payload[0])
	}
	op := Op(payload[1])
	if !op.Valid() {
		return Request{}, fmt.Errorf("%w: unknown op %d", ErrBadFrame, payload[1])
	}
	id := binary.LittleEndian.Uint64(payload[2:10])
	tlen := int(payload[10])
	if len(payload) < 11+tlen {
		return Request{}, fmt.Errorf("%w: truncated tenant field", ErrBadFrame)
	}
	var tenant string
	if tlen > 0 {
		tenant = string(payload[11 : 11+tlen])
	}
	return Request{Op: op, ID: id, Tenant: tenant, Body: payload[11+tlen:]}, nil
}

// DecodeResponse parses a response payload. The returned Body aliases
// payload.
func DecodeResponse(payload []byte) (Response, error) {
	if len(payload) < responseEnvelopeSize {
		return Response{}, fmt.Errorf("%w: response payload of %d bytes", ErrBadFrame, len(payload))
	}
	if payload[0] != Version {
		return Response{}, fmt.Errorf("%w: %d", ErrBadVersion, payload[0])
	}
	return Response{
		ID:     binary.LittleEndian.Uint64(payload[1:9]),
		Status: int(binary.LittleEndian.Uint16(payload[9:11])),
		Body:   payload[responseEnvelopeSize:],
	}, nil
}

// readFrame reads one frame from br into buf (which is grown as
// needed) and returns the CRC-verified payload, aliasing buf. io.EOF
// at the frame boundary is a clean end of stream; a partial header or
// payload is ErrBadFrame.
func readFrame(br *bufio.Reader, buf []byte, max int) (payload, newBuf []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, buf, io.EOF
		}
		return nil, buf, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n == 0 {
		return nil, buf, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if n > max {
		return nil, buf, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, n, max)
	}
	if cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, buf, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, buf, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	return payload, buf, nil
}

// frameWriter writes whole frames to one connection from many
// goroutines: a client's callers, or a server connection's handlers.
// net.Conn does not make concurrent Writes atomic, and one interleaved
// frame corrupts the stream, so frames go in under mu. They
// group-commit: a writer that sees another already committed to mu
// (pending > 0 after its own decrement) leaves its frame in the buffer,
// and the last writer of a burst flushes them all in one syscall. Only
// the flushing writer sees a failed flush; its caller fails the
// connection, which is how the writers it flushed for learn of it.
type frameWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer // written under mu
	pending atomic.Int32  // writers that have committed to taking mu
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{bw: bufio.NewWriterSize(w, connBufSize)}
}

// write buffers one frame and flushes unless another writer is queued
// behind it. n counts the frame's bytes that were accepted.
func (fw *frameWriter) write(frame []byte) (n int, err error) {
	fw.pending.Add(1)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	n, err = fw.bw.Write(frame)
	// The observed writer increments pending before taking mu, so it (or
	// a later writer, inductively) reaches the flush below.
	if fw.pending.Add(-1) > 0 || err != nil {
		return n, err
	}
	return n, fw.bw.Flush()
}
