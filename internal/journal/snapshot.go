package journal

// Checkpointing and compaction. A Store manages a WAL plus a pair of
// snapshot files next to it:
//
//	<base>         the write-ahead log (magic + frames)
//	<base>.ckpt    the newest snapshot
//	<base>.ckpt.1  the previous snapshot (fallback for a torn .ckpt)
//
// A snapshot file reuses the WAL's frame format: magic, then an
// OpCheckpoint header record carrying the snapshot sequence, the
// live-record count, and the lease-ID floor, then one OpAlloc record
// per live lease. A compacted WAL starts with the same OpCheckpoint
// header (Seq only), anchoring its suffix to the snapshot it builds on.
//
// # Checkpoint protocol
//
// Checkpoint holds the append lock for the whole operation, so the
// captured state and the WAL agree exactly:
//
//	1. write the snapshot to <base>.ckpt.tmp, fsync, close
//	2. rotate <base>.ckpt to <base>.ckpt.1 (only when the current
//	   .ckpt is the anchor of the live WAL — a stale .ckpt left by an
//	   earlier failed checkpoint is simply overwritten)
//	3. rename the temp over <base>.ckpt   (snapshot published)
//	4. write a fresh WAL (magic + checkpoint header) to <base>.wal.tmp,
//	   fsync, and rename it over <base>    (WAL truncated)
//
// Every crash point leaves a recoverable pair: before step 3 the old
// snapshot and the full WAL are untouched; between 3 and 4 the WAL's
// anchor still names the previous snapshot, which step 2 preserved in
// .ckpt.1; after 4 the new pair is live. OpenStore picks the snapshot
// whose sequence matches the WAL's anchor, falling back from .ckpt to
// .ckpt.1, and normalizes the files so the invariant holds again.
import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"hetmem/internal/faults"
)

// Snapshot/WAL-related errors.
var (
	// ErrSnapshotMismatch means the WAL is anchored to a snapshot
	// sequence that no readable snapshot file provides — the state is
	// unrecoverable without operator intervention (restore a snapshot
	// or accept the loss by removing the WAL anchor).
	ErrSnapshotMismatch = errors.New("journal: no snapshot matches the WAL anchor")
	// ErrWALAnchorLost means the WAL decayed to zero records while a
	// valid snapshot exists: the anchor frame itself was destroyed.
	// Refusing to guess beats silently resurrecting freed leases.
	ErrWALAnchorLost = errors.New("journal: WAL anchor lost but a snapshot exists")
)

// Restored is what OpenStore recovered.
type Restored struct {
	// Records is the full logical history to fold: the snapshot's live
	// leases (as alloc records) followed by the WAL suffix. Checkpoint
	// records are stripped.
	Records []Record
	// SnapshotRecords is how many leading Records came from the
	// snapshot.
	SnapshotRecords int
	// Seq is the snapshot sequence in effect (0: no snapshot).
	Seq uint64
	// NextLease is the lease-ID floor from the snapshot header.
	NextLease uint64
	// UsedFallback is true when .ckpt was torn/corrupt/stale and the
	// previous snapshot (.ckpt.1) recovered the state.
	UsedFallback bool
	// WAL describes the WAL replay (torn-tail truncation etc).
	WAL Recovery
}

// Store is a compacting lease log: an appendable WAL anchored to the
// newest durable snapshot. All I/O goes through the injectable
// filesystem it was opened with.
type Store struct {
	base string
	fs   faults.FS

	// gc, when set, coalesces AppendDurable fsyncs (see groupcommit.go).
	gc *groupCommit

	mu      sync.Mutex
	f       faults.File
	seq     uint64 // snapshot sequence the live WAL is anchored to
	ckptSeq uint64 // sequence of the snapshot currently at .ckpt
	closed  bool
	// walBytes is written under mu; WALBytes reads it without, so a
	// request whose record is already durable never waits out the next
	// batch's fsync just to check the checkpoint trigger.
	walBytes atomic.Int64
}

func (s *Store) ckptPath() string { return s.base + ".ckpt" }
func (s *Store) prevPath() string { return s.base + ".ckpt.1" }

// readFile slurps one file through the store's filesystem.
func readFile(fsys faults.FS, path string) ([]byte, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// parseSnapshot validates snapshot bytes: a clean journal stream whose
// first record is a checkpoint header and whose body is exactly the
// promised number of alloc records. A big snapshot (one record per
// live lease) decodes across workers; ReplayParallel is byte-for-byte
// equivalent to sequential Replay, so the validation is too.
func parseSnapshot(data []byte, workers int) (header Record, body []Record, err error) {
	recs, rec, err := ReplayParallel(data, workers)
	if err != nil {
		return Record{}, nil, err
	}
	if rec.Truncated {
		return Record{}, nil, fmt.Errorf("journal: snapshot torn: %s", rec.Reason)
	}
	if len(recs) == 0 || recs[0].Op != OpCheckpoint {
		return Record{}, nil, errors.New("journal: snapshot missing checkpoint header")
	}
	header, body = recs[0], recs[1:]
	if header.Count != len(body) {
		return Record{}, nil, fmt.Errorf("journal: snapshot promises %d records, holds %d", header.Count, len(body))
	}
	for i, r := range body {
		if r.Op != OpAlloc {
			return Record{}, nil, fmt.Errorf("journal: snapshot record %d is %s, want alloc", i, r.Op)
		}
	}
	return header, body, nil
}

// loadSnapshot reads and validates the snapshot at path against the
// wanted sequence.
func loadSnapshot(fsys faults.FS, path string, wantSeq uint64, workers int) (Record, []Record, error) {
	data, err := readFile(fsys, path)
	if err != nil {
		return Record{}, nil, err
	}
	header, body, err := parseSnapshot(data, workers)
	if err != nil {
		return Record{}, nil, err
	}
	if header.Seq != wantSeq {
		return Record{}, nil, fmt.Errorf("journal: snapshot seq %d, WAL anchored to %d", header.Seq, wantSeq)
	}
	return header, body, nil
}

// OpenStore opens (or creates) the compacting lease log rooted at
// base, recovering the newest consistent (snapshot, WAL-suffix) pair.
// Torn WAL tails are truncated; a torn or stale .ckpt falls back to
// .ckpt.1. The returned store is positioned for appending.
func OpenStore(base string, fsys faults.FS) (*Store, Restored, error) {
	return OpenStoreWorkers(base, fsys, 1)
}

// OpenStoreWorkers is OpenStore with the WAL and snapshot replay
// spread across workers goroutines (see ReplayParallel). workers <= 0
// means GOMAXPROCS; workers == 1 is the sequential streaming path.
// Recovery semantics are identical at any width.
func OpenStoreWorkers(base string, fsys faults.FS, workers int) (*Store, Restored, error) {
	if fsys == nil {
		fsys = faults.OS
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var res Restored

	f, err := fsys.OpenFile(base, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, res, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, res, err
	}
	s := &Store{base: base, fs: fsys, f: f}
	if st.Size() == 0 {
		if _, err := f.Write(Magic); err != nil {
			f.Close()
			return nil, res, err
		}
		s.walBytes.Store(int64(len(Magic)))
		return s, res, nil
	}

	walRecs, walRec, err := replayFile(f, st.Size(), workers)
	if err != nil {
		f.Close()
		return nil, res, fmt.Errorf("journal: replaying %s: %w", base, err)
	}
	res.WAL = walRec

	// The anchor is the WAL's first record, when it is a checkpoint.
	var suffix []Record
	var baseSeq uint64
	if len(walRecs) > 0 && walRecs[0].Op == OpCheckpoint {
		baseSeq = walRecs[0].Seq
		suffix = walRecs[1:]
	} else {
		suffix = walRecs
	}
	// Mid-stream checkpoint markers (possible after interrupted
	// compactions) carry no state; drop them.
	clean := suffix[:0]
	for _, r := range suffix {
		if r.Op != OpCheckpoint {
			clean = append(clean, r)
		}
	}
	suffix = clean

	if baseSeq > 0 {
		header, body, cerr := loadSnapshot(fsys, s.ckptPath(), baseSeq, workers)
		if cerr != nil {
			header, body, err = loadSnapshot(fsys, s.prevPath(), baseSeq, workers)
			if err != nil {
				f.Close()
				return nil, res, fmt.Errorf("%w: seq %d (.ckpt: %v; .ckpt.1: %v)",
					ErrSnapshotMismatch, baseSeq, cerr, err)
			}
			res.UsedFallback = true
			// Promote the fallback so the on-disk invariant — .ckpt
			// matches the WAL anchor — holds again.
			fsys.Remove(s.ckptPath())
			if err := fsys.Rename(s.prevPath(), s.ckptPath()); err != nil {
				f.Close()
				return nil, res, err
			}
		}
		res.Seq = baseSeq
		res.NextLease = header.NextLease
		res.SnapshotRecords = len(body)
		res.Records = append(body, suffix...)
		s.seq, s.ckptSeq = baseSeq, baseSeq
	} else {
		// No anchor: the whole WAL is the history. If the WAL decayed
		// to nothing while a valid snapshot sits next to it, the anchor
		// frame itself was destroyed — refuse to silently reset.
		if len(walRecs) == 0 && walRec.Truncated {
			if data, err := readFile(fsys, s.ckptPath()); err == nil {
				if _, _, perr := parseSnapshot(data, workers); perr == nil {
					f.Close()
					return nil, res, ErrWALAnchorLost
				}
			}
		}
		res.Records = suffix
	}

	// Drop any corrupt tail and position at the clean end.
	if err := f.Truncate(walRec.GoodBytes); err != nil {
		f.Close()
		return nil, res, err
	}
	if _, err := f.Seek(walRec.GoodBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, res, err
	}
	s.walBytes.Store(walRec.GoodBytes)
	return s, res, nil
}

// Base returns the store's WAL path.
func (s *Store) Base() string { return s.base }

// Seq returns the snapshot sequence the live WAL is anchored to.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// WALBytes returns the current WAL size, for size-triggered
// checkpoints.
func (s *Store) WALBytes() int64 { return s.walBytes.Load() }

// Append frames and writes one record to the WAL. Like
// Journal.Append, the write is process-crash durable; call Sync for
// power-failure durability.
//
// A failed write is rolled back: the WAL is truncated to the last
// whole frame, so one torn append cannot strand every later record
// behind an undecodable frame. When even the rollback fails, the torn
// bytes stay (replay truncates them on the next open) and the error
// reports both failures.
func (s *Store) Append(r Record) error {
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	buf, err := appendFrame(*bp, r)
	*bp = buf[:0]
	if err != nil {
		return err
	}
	_, err = s.writeBuf(buf, false)
	return err
}

// writeBuf writes one pre-framed buffer as one contiguous write under
// the append lock, with the same rollback-on-failure contract as
// Append, optionally followed by an fsync. An fsync failure is
// reported as a *syncError so callers can tell "in the file but
// unconfirmed" from "rolled back".
func (s *Store) writeBuf(buf []byte, sync bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeLocked(buf, sync)
}

// writeLocked is writeBuf for a caller that already holds s.mu (the
// group-commit leader claims its batch under the same hold).
func (s *Store) writeLocked(buf []byte, sync bool) (int, error) {
	if s.closed {
		return 0, ErrClosed
	}
	n, err := s.f.Write(buf)
	if err != nil {
		if n > 0 {
			if terr := s.f.Truncate(s.walBytes.Load()); terr != nil {
				s.walBytes.Add(int64(n))
				return n, fmt.Errorf("journal: torn append not rolled back (%v): %w", terr, err)
			}
			if _, serr := s.f.Seek(s.walBytes.Load(), io.SeekStart); serr != nil {
				return 0, fmt.Errorf("journal: seek after rollback (%v): %w", serr, err)
			}
		}
		return 0, err
	}
	s.walBytes.Add(int64(n))
	if sync {
		if err := s.f.Sync(); err != nil {
			return n, &syncError{err}
		}
	}
	return n, nil
}

// Sync flushes the WAL to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.f.Sync()
}

// Close syncs and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	serr := s.f.Sync()
	cerr := s.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// writeStream writes a fresh journal-format file at path: magic plus
// the given records, fsynced. The returned file is open for appending.
func (s *Store) writeStream(path string, recs []Record) (faults.File, error) {
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (faults.File, error) {
		f.Close()
		s.fs.Remove(path)
		return nil, err
	}
	if _, err := f.Write(Magic); err != nil {
		return fail(err)
	}
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	for _, r := range recs {
		frame, err := appendFrame((*bp)[:0], r)
		if err != nil {
			return fail(err)
		}
		if _, err := f.Write(frame); err != nil {
			return fail(err)
		}
		*bp = frame[:0]
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	return f, nil
}

// Checkpoint snapshots the live state and truncates the WAL. The
// caller supplies the live leases as alloc records plus the lease-ID
// floor; the capture callback runs under the store's append lock, so
// the snapshot and the WAL cannot disagree. On error the store keeps
// appending to the old WAL and the old snapshot pair stays
// recoverable; a later Checkpoint retries the whole protocol.
func (s *Store) Checkpoint(capture func() (live []Record, nextLease uint64, err error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	live, nextLease, err := capture()
	if err != nil {
		return err
	}
	seq := s.seq + 1
	header := Record{Op: OpCheckpoint, Seq: seq, Count: len(live), NextLease: nextLease}

	// 1. Durable snapshot at a temp name.
	tmp := s.base + ".ckpt.tmp"
	sf, err := s.writeStream(tmp, append([]Record{header}, live...))
	if err != nil {
		return fmt.Errorf("journal: writing snapshot: %w", err)
	}
	sf.Close()

	// 2. Preserve the WAL's current anchor snapshot, if .ckpt is it. A
	// stale .ckpt (left by a checkpoint that failed between publishing
	// the snapshot and truncating the WAL) is overwritten instead: the
	// fallback slot keeps the one that matches the live WAL.
	if s.ckptSeq == s.seq && s.seq > 0 {
		if _, err := s.fs.Stat(s.ckptPath()); err == nil {
			if err := s.fs.Rename(s.ckptPath(), s.prevPath()); err != nil {
				s.fs.Remove(tmp)
				return fmt.Errorf("journal: rotating snapshot: %w", err)
			}
		}
	}
	// 3. Publish.
	if err := s.fs.Rename(tmp, s.ckptPath()); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("journal: publishing snapshot: %w", err)
	}
	s.ckptSeq = seq

	// 4. Truncate the WAL: fresh file anchored to the new snapshot,
	// renamed over the old log. The open handle survives the rename.
	walTmp := s.base + ".wal.tmp"
	wf, err := s.writeStream(walTmp, []Record{{Op: OpCheckpoint, Seq: seq}})
	if err != nil {
		return fmt.Errorf("journal: writing compacted WAL: %w", err)
	}
	if err := s.fs.Rename(walTmp, s.base); err != nil {
		wf.Close()
		s.fs.Remove(walTmp)
		return fmt.Errorf("journal: swapping WAL: %w", err)
	}
	s.f.Close()
	s.f = wf
	s.seq = seq
	st, err := wf.Stat()
	if err != nil {
		return err
	}
	s.walBytes.Store(st.Size())
	return nil
}
