// Package journal is the placement daemon's write-ahead lease log: an
// append-only file of framed, checksummed records from which a
// restarted daemon reconstructs its lease table and per-node byte
// accounting exactly.
//
// # Format
//
// A journal starts with the 6-byte magic "HMWJ1\n" followed by zero or
// more frames:
//
//	[4-byte little-endian payload length][4-byte CRC32 (IEEE) of payload][payload]
//
// The payload is one JSON-encoded Record. The CRC covers only the
// payload, so a torn write (a crash mid-append) is detected as a
// length/checksum mismatch on the final frame.
//
// A WAL file may run up to walReserve zero bytes past its last frame:
// the Store extends the file ahead of its appends (see writeLocked),
// so a frame never starts with eight zero bytes, and an all-zero
// frame header — or an all-zero remainder shorter than one — is the
// clean end of the log, not a torn tail. A file of zeros alone is an
// empty journal: a store killed before its magic reached the disk can
// leave one.
//
// # Recovery
//
// Replay never panics on corrupt input. It decodes frames until the
// clean end or the first truncated or corrupt frame, returns every
// record before it, and reports the clean recovery point (the byte
// offset up to which the file is intact). OpenStore truncates the WAL
// to that point, dropping a torn tail and the zero tail alike, so the
// daemon appends after the last good record — a crash costs at most
// the in-flight record, never the journal. A binary that predates the
// zero tail reads it as a dropped tail and truncates it the same way.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a journal file.
var Magic = []byte("HMWJ1\n")

// OriginAdvisor tags migrate records written by the daemon's tiering
// advisor (Record.Origin).
const OriginAdvisor = "advisor"

// MaxRecordBytes bounds a single record's payload; larger lengths in a
// frame header are treated as corruption.
const MaxRecordBytes = 1 << 20

// Errors returned by the journal.
var (
	// ErrNotJournal means the file does not start with the magic.
	ErrNotJournal = errors.New("journal: not a journal file (bad magic)")
	// ErrClosed means the journal was already closed.
	ErrClosed = errors.New("journal: closed")
)

// Op is a record's operation.
type Op uint8

// The journaled operations.
const (
	OpAlloc Op = iota + 1
	OpFree
	OpMigrate
	// OpCheckpoint anchors a WAL to a snapshot: as the first record of
	// a WAL it names the snapshot sequence the following records build
	// on. Snapshot files reuse the same record as their header (with
	// Count and NextLease filled in). Replay treats checkpoint records
	// appearing mid-stream as no-ops, so a crash between writing a
	// snapshot and rotating the WAL never changes replay semantics.
	OpCheckpoint
)

func (o Op) String() string {
	switch o {
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	case OpMigrate:
		return "migrate"
	case OpCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Segment is one placed part of a lease: bytes resident on a node.
type Segment struct {
	NodeOS int    `json:"node"`
	Bytes  uint64 `json:"bytes"`
}

// Record is one journaled lease event. Alloc records carry the full
// lease state; Migrate records carry the new placement; Free records
// carry only the lease ID.
type Record struct {
	Op    Op     `json:"op"`
	Lease uint64 `json:"lease"`
	// Name, Attr, Initiator, and Key describe an allocation: the
	// buffer's label, the requested attribute, the requester's cpuset,
	// and the client's idempotency key (if any).
	Name      string `json:"name,omitempty"`
	Attr      string `json:"attr,omitempty"`
	Initiator string `json:"initiator,omitempty"`
	Key       string `json:"key,omitempty"`
	Size      uint64 `json:"size,omitempty"`
	// Tenant is the owning tenant (alloc records; empty means the
	// default tenant, which also keeps pre-tenancy journals replayable).
	Tenant string `json:"tenant,omitempty"`
	// TTLMillis is the lease's granted time-to-live in milliseconds
	// (alloc records; 0 means the lease never expires).
	TTLMillis uint64 `json:"ttl_ms,omitempty"`
	// Segments is the placement (alloc and migrate records).
	Segments []Segment `json:"segments,omitempty"`
	// Origin names the subsystem that initiated a migrate record
	// (OriginAdvisor for moves made by the tiering advisor; empty for
	// client-requested and rebalancer moves). Replay uses it to restore
	// the advisor's promotion/demotion counters after a restart.
	Origin string `json:"origin,omitempty"`

	// Checkpoint-record fields. Seq is the snapshot sequence number
	// (always > 0 on a valid checkpoint record); Count is the number of
	// live-lease records that follow in a snapshot file; NextLease is
	// the lease-ID counter floor, so freed high IDs are never reissued
	// after a restart.
	Seq       uint64 `json:"seq,omitempty"`
	Count     int    `json:"count,omitempty"`
	NextLease uint64 `json:"next,omitempty"`
}

// Recovery describes what Replay found.
type Recovery struct {
	// Records is how many intact records were recovered.
	Records int
	// GoodBytes is the clean recovery point: the offset up to which
	// the file is intact (magic plus whole frames).
	GoodBytes int64
	// Truncated is true when data past GoodBytes was dropped (torn
	// write or corruption).
	Truncated bool
	// Reason describes the corruption when Truncated.
	Reason string
}

func (r Recovery) String() string {
	s := fmt.Sprintf("%d records, %d clean bytes", r.Records, r.GoodBytes)
	if r.Truncated {
		s += fmt.Sprintf(" (tail dropped: %s)", r.Reason)
	}
	return s
}

// Replay decodes a journal stream. It returns the records up to the
// clean end (EOF or a zero tail) or the first corruption, and a
// Recovery describing the clean prefix; it never panics on corrupt or
// truncated input. A stream not starting with the magic returns
// ErrNotJournal (with a zero recovery point), unless it is empty or
// all zeros: a fresh journal.
func Replay(r io.Reader) ([]Record, Recovery, error) {
	br := newByteCounter(r)
	magic := make([]byte, len(Magic))
	// The bytes read decide, not the error: a short or failed read
	// leaves a prefix that is neither the magic nor zeros to a clean EOF.
	n, _ := io.ReadFull(br, magic)
	if allZero(magic[:n]) && zeroToEOF(br) {
		return nil, Recovery{}, nil
	}
	if !bytes.Equal(magic[:n], Magic) {
		return nil, Recovery{}, ErrNotJournal
	}

	rec := Recovery{GoodBytes: int64(len(Magic))}
	var out []Record
	var hdr [8]byte
	for {
		n, err := io.ReadFull(br, hdr[:])
		readFailed := err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)
		if !readFailed && allZero(hdr[:n]) {
			return out, rec, nil // clean end: EOF or the zeroed reservation
		}
		if err != nil {
			rec.Truncated, rec.Reason = true, "truncated frame header"
			return out, rec, nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecordBytes {
			rec.Truncated, rec.Reason = true, fmt.Sprintf("frame length %d over limit", length)
			return out, rec, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			rec.Truncated, rec.Reason = true, "truncated payload"
			return out, rec, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			rec.Truncated, rec.Reason = true, "payload checksum mismatch"
			return out, rec, nil
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			rec.Truncated, rec.Reason = true, fmt.Sprintf("payload decode: %v", err)
			return out, rec, nil
		}
		if r.Op == OpCheckpoint {
			if r.Seq == 0 || r.Count < 0 {
				rec.Truncated, rec.Reason = true, fmt.Sprintf("invalid checkpoint record (seq=%d count=%d)", r.Seq, r.Count)
				return out, rec, nil
			}
		} else if r.Op < OpAlloc || r.Op > OpMigrate || r.Lease == 0 {
			rec.Truncated, rec.Reason = true, fmt.Sprintf("invalid record (op=%d lease=%d)", r.Op, r.Lease)
			return out, rec, nil
		}
		out = append(out, r)
		rec.Records++
		rec.GoodBytes = br.n
	}
}

// allZero reports whether b holds only zero bytes. A frame header
// never does, because every payload is a JSON object, so a zero header
// is the clean end of the log.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// zeroToEOF reports whether r holds nothing but zero bytes from here
// to a clean EOF.
func zeroToEOF(r io.Reader) bool {
	var buf [4096]byte
	for {
		n, err := r.Read(buf[:])
		if !allZero(buf[:n]) {
			return false
		}
		if err != nil {
			return errors.Is(err, io.EOF)
		}
	}
}

// byteCounter counts bytes consumed from the underlying reader.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}
