package journal

// Parallel WAL replay. Sequential Replay pays two reads and one
// payload allocation per frame and decodes JSON on one core; on a
// restart behind a large journal that decode is the whole wait. The
// parallel path splits the work by its real shape:
//
//	1. slurp the file once,
//	2. scan frame boundaries sequentially — headers are 8 bytes and
//	   the scan does no checksum or decode work, so this pass is
//	   memory-bandwidth cheap,
//	3. fan the frames out to workers that checksum + decode + validate
//	   each one against a payload slice of the original buffer (no
//	   per-frame copy),
//	4. merge verdicts in frame order, truncating at the FIRST failed
//	   frame exactly where sequential replay would have stopped.
//
// The merge is what keeps the two paths byte-for-byte equivalent: a
// worker may well decode garbage frames that sit past an earlier
// corruption (sequential replay would never have looked at them), but
// their verdicts are discarded — Records, GoodBytes, Truncated, and
// Reason come out identical to Replay on the same bytes.
// FuzzJournalReplay holds that equivalence over arbitrary input,
// including torn tails and mid-stream corruption.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
)

// frameRef locates one whole frame found by the boundary scan. The
// payload aliases the replay buffer; workers never copy it.
type frameRef struct {
	payload []byte
	sum     uint32 // CRC32 the header claims
	end     int64  // offset just past the payload — GoodBytes if this frame is good
}

// chunkFail is a worker's first failure in its chunk of frames: the
// frame index and the truncation reason sequential replay would have
// reported there. idx < 0 means the whole chunk decoded cleanly.
type chunkFail struct {
	idx    int
	reason string
}

// scanFrames walks whole frames from the byte after the magic. It
// stops at the clean end — the end of the buffer or a zero tail, as in
// Replay — or at the first structural problem — a short header, an
// over-limit length, or a payload running past the buffer — and
// returns the sequential-replay reason for it ("" for a clean end).
// Checksum, decode, and validation failures are the workers' to find.
func scanFrames(data []byte) (frames []frameRef, tailReason string) {
	off, n := int64(len(Magic)), int64(len(data))
	for off < n {
		if allZero(data[off:min(off+8, n)]) {
			return frames, ""
		}
		if n-off < 8 {
			return frames, "truncated frame header"
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > MaxRecordBytes {
			return frames, fmt.Sprintf("frame length %d over limit", length)
		}
		if n-off-8 < length {
			return frames, "truncated payload"
		}
		frames = append(frames, frameRef{
			payload: data[off+8 : off+8+length],
			sum:     sum,
			end:     off + 8 + length,
		})
		off += 8 + length
	}
	return frames, ""
}

// decodeFrame runs the per-frame half of sequential replay — checksum,
// JSON decode, and record validation, with the same reason strings —
// writing the record in place so no worker result is ever copied.
func decodeFrame(fr frameRef, r *Record) (reason string) {
	if crc32.ChecksumIEEE(fr.payload) != fr.sum {
		return "payload checksum mismatch"
	}
	if err := json.Unmarshal(fr.payload, r); err != nil {
		return fmt.Sprintf("payload decode: %v", err)
	}
	if r.Op == OpCheckpoint {
		if r.Seq == 0 || r.Count < 0 {
			return fmt.Sprintf("invalid checkpoint record (seq=%d count=%d)", r.Seq, r.Count)
		}
	} else if r.Op < OpAlloc || r.Op > OpMigrate || r.Lease == 0 {
		return fmt.Sprintf("invalid record (op=%d lease=%d)", r.Op, r.Lease)
	}
	return ""
}

// ReplayParallel decodes a journal held in memory across workers
// goroutines, producing exactly what Replay produces on the same
// bytes: the records before the first corruption and a Recovery with
// identical Records, GoodBytes, Truncated, and Reason. workers <= 0
// means GOMAXPROCS; workers == 1 delegates to sequential Replay.
func ReplayParallel(data []byte, workers int) ([]Record, Recovery, error) {
	if allZero(data) {
		return nil, Recovery{}, nil
	}
	if len(data) < len(Magic) || !bytes.Equal(data[:len(Magic)], Magic) {
		return nil, Recovery{}, ErrNotJournal
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return Replay(bytes.NewReader(data))
	}

	frames, tailReason := scanFrames(data)
	// Contiguous chunks, one per worker, decoding straight into one
	// pre-sized record slice: frame i's record lands in out[i], so the
	// merge below is deterministic regardless of which worker finishes
	// first, and nothing is copied afterwards. A worker abandons its
	// chunk at its first bad frame — everything after it is discarded
	// by the merge anyway.
	out := make([]Record, len(frames))
	chunk := (len(frames) + workers - 1) / workers
	fails := make([]chunkFail, 0, workers)
	var wg sync.WaitGroup
	for lo := 0; lo < len(frames); lo += chunk {
		hi := min(lo+chunk, len(frames))
		fails = append(fails, chunkFail{idx: -1})
		wg.Add(1)
		go func(fail *chunkFail, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if reason := decodeFrame(frames[i], &out[i]); reason != "" {
					fail.idx, fail.reason = i, reason
					return
				}
			}
		}(&fails[len(fails)-1], lo, hi)
	}
	wg.Wait()

	// Merge: the first chunk with a failure holds the globally first
	// bad frame (chunks are contiguous and in order), and it truncates
	// the result exactly where the sequential loop would have stopped.
	rec := Recovery{GoodBytes: int64(len(Magic))}
	n := len(frames)
	for _, f := range fails {
		if f.idx >= 0 {
			n = f.idx
			rec.Truncated, rec.Reason = true, f.reason
			break
		}
	}
	if !rec.Truncated && tailReason != "" {
		rec.Truncated, rec.Reason = true, tailReason
	}
	rec.Records = n
	if n > 0 {
		rec.GoodBytes = frames[n-1].end
	}
	if n == 0 {
		// Sequential replay returns a nil slice when nothing decoded;
		// match it exactly.
		return nil, rec, nil
	}
	return out[:n:n], rec, nil
}

// replayFile replays an open journal file of known size with the
// given parallelism. workers == 1 streams through sequential Replay;
// otherwise the file is slurped in one exact-size read (io.ReadAll's
// doubling would re-zero and re-copy the buffer a dozen times at WAL
// sizes) and decoded with ReplayParallel. A failed slurp falls back
// to streaming, which classifies mid-stream read failures as torn
// tails the way sequential recovery always has.
func replayFile(f io.ReadSeeker, size int64, workers int) ([]Record, Recovery, error) {
	if workers == 1 {
		return Replay(f)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		if _, serr := f.Seek(0, io.SeekStart); serr != nil {
			return nil, Recovery{}, serr
		}
		return Replay(f)
	}
	return ReplayParallel(data, workers)
}
