package journal_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hetmem/internal/journal"
)

// frame encodes one record the way Append does, for seeding the fuzzer.
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// FuzzJournalReplay feeds arbitrary bytes to the WAL decoder. Replay
// must never panic, must never report a recovery point past the input,
// and the clean prefix it reports must itself replay cleanly with the
// same record count — the invariant crash recovery depends on. At
// every input, ReplayParallel must agree with Replay byte for byte:
// same records, same Recovery (GoodBytes, Truncated, Reason), same
// error — the equivalence that lets a restart pick either decoder.
//
// The semantic oracle is the WAL's zero tail: an input that replays
// without a torn tail, followed by any run of zero bytes, replays to
// the same records and recovery point, still untorn, under both
// decoders — a reserved WAL reads exactly like the one it reserves for.
func FuzzJournalReplay(f *testing.F) {
	valid := append([]byte(nil), journal.Magic...)
	valid = append(valid, frame([]byte(`{"op":1,"lease":1,"name":"a","size":4096,"segments":[{"node":0,"bytes":4096}]}`))...)
	valid = append(valid, frame([]byte(`{"op":2,"lease":1}`))...)

	// A compacted WAL: checkpoint anchor record, then a suffix.
	compacted := append([]byte(nil), journal.Magic...)
	compacted = append(compacted, frame([]byte(`{"op":4,"seq":3}`))...)
	compacted = append(compacted, frame([]byte(`{"op":2,"lease":7}`))...)
	// A snapshot stream: checkpoint header with count and lease floor,
	// then the live-lease alloc records it promises.
	snapshot := append([]byte(nil), journal.Magic...)
	snapshot = append(snapshot, frame([]byte(`{"op":4,"seq":3,"count":1,"next":9}`))...)
	snapshot = append(snapshot, frame([]byte(`{"op":1,"lease":7,"size":4096,"segments":[{"node":0,"bytes":4096}]}`))...)

	zeros := func(b []byte, n int) []byte { return append(append([]byte(nil), b...), make([]byte, n)...) }

	f.Add([]byte{}, uint16(8))
	f.Add(append([]byte(nil), journal.Magic...), uint16(0))
	f.Add(valid, uint16(1))
	f.Add(valid[:len(valid)-5], uint16(8)) // torn tail
	// A short zero remainder: the clean end, not a torn header.
	f.Add(zeros(valid, 4), uint16(3))
	f.Add([]byte("HMWJ1\nnot a frame at all"), uint16(8))
	huge := append([]byte(nil), journal.Magic...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0) // absurd length
	f.Add(huge, uint16(8))
	f.Add(compacted, uint16(7))
	f.Add(compacted[:len(compacted)-3], uint16(8)) // torn compacted suffix
	f.Add(snapshot, uint16(9))
	badCkpt := append([]byte(nil), journal.Magic...)
	badCkpt = append(badCkpt, frame([]byte(`{"op":4}`))...) // checkpoint without a sequence
	f.Add(badCkpt, uint16(8))
	// Mid-checkpoint crash: a compaction that died between snapshot
	// publication and WAL truncation leaves a checkpoint marker
	// mid-stream with live frames after it.
	midCkpt := append(append([]byte(nil), valid...), frame([]byte(`{"op":4,"seq":5}`))...)
	midCkpt = append(midCkpt, frame([]byte(`{"op":1,"lease":9,"size":64,"segments":[{"node":1,"bytes":64}]}`))...)
	f.Add(midCkpt, uint16(8))
	// Corruption followed by VALID frames: a parallel decoder decodes
	// the tail frames happily, and only the in-order merge may keep
	// them out of the result.
	corruptMid := append([]byte(nil), midCkpt...)
	corruptMid[len(valid)+10] ^= 0x01
	f.Add(corruptMid, uint16(8))
	// Reserved WALs: records, then the zero tail.
	f.Add(zeros(valid, 8), uint16(4096))
	f.Add(zeros(valid, 3), uint16(5))
	f.Add(zeros(journal.Magic, 4096), uint16(1))
	f.Add(zeros(compacted, 64), uint16(8))

	f.Fuzz(func(t *testing.T, data []byte, zeroRun uint16) {
		recs, rec, err := journal.Replay(bytes.NewReader(data))

		// Parallel replay must agree exactly, at more than one width.
		for _, workers := range []int{2, 5} {
			precs, prec, perr := journal.ReplayParallel(data, workers)
			if (perr == nil) != (err == nil) {
				t.Fatalf("workers=%d error %v, sequential error %v", workers, perr, err)
			}
			if !reflect.DeepEqual(precs, recs) {
				t.Fatalf("workers=%d records diverged: %d vs %d", workers, len(precs), len(recs))
			}
			if prec != rec {
				t.Fatalf("workers=%d recovery diverged: %+v vs %+v", workers, prec, rec)
			}
		}

		if err != nil {
			// Only the not-a-journal error is allowed, and it must come
			// with an empty result.
			if len(recs) != 0 {
				t.Fatalf("error %v with %d records", err, len(recs))
			}
			return
		}
		if rec.GoodBytes > int64(len(data)) {
			t.Fatalf("recovery point %d past input length %d", rec.GoodBytes, len(data))
		}
		if rec.Records != len(recs) {
			t.Fatalf("recovery reports %d records, replay returned %d", rec.Records, len(recs))
		}
		if len(recs) > 0 && rec.GoodBytes <= int64(len(journal.Magic)) {
			t.Fatalf("recovered %d records but recovery point %d is before any frame", len(recs), rec.GoodBytes)
		}
		// The reported clean prefix must replay cleanly and identically.
		recs2, rec2, err2 := journal.Replay(bytes.NewReader(data[:rec.GoodBytes]))
		if err2 != nil {
			t.Fatalf("clean prefix failed to replay: %v", err2)
		}
		if rec2.Truncated || len(recs2) != len(recs) || rec2.GoodBytes != rec.GoodBytes {
			t.Fatalf("clean prefix replay diverged: %+v vs %+v", rec2, rec)
		}

		if rec.Truncated {
			return
		}
		padded := zeros(data, int(zeroRun))
		for _, workers := range []int{1, 2, 5} {
			zrecs, zrec, zerr := journal.ReplayParallel(padded, workers)
			if zerr != nil || !reflect.DeepEqual(zrecs, recs) || zrec != rec {
				t.Fatalf("workers=%d: %d zero bytes changed the replay to %v (err %v); without them %v",
					workers, zeroRun, zrec, zerr, rec)
			}
		}
	})
}

// FuzzSnapshotRecovery throws arbitrary snapshot and WAL byte pairs at
// OpenStore. Opening must never panic, and whenever it succeeds, the
// open itself must have normalized the files: closing and reopening
// yields the same state with nothing left to repair.
func FuzzSnapshotRecovery(f *testing.F) {
	wal := func(frames ...[]byte) []byte {
		out := append([]byte(nil), journal.Magic...)
		for _, fr := range frames {
			out = append(out, frame(fr)...)
		}
		return out
	}
	allocJSON := []byte(`{"op":1,"lease":7,"size":4096,"segments":[{"node":0,"bytes":4096}]}`)
	snap := wal([]byte(`{"op":4,"seq":2,"count":1,"next":9}`), allocJSON)
	anchored := wal([]byte(`{"op":4,"seq":2}`), []byte(`{"op":2,"lease":7}`))
	plain := wal(allocJSON)

	f.Add([]byte{}, []byte{})
	f.Add(snap, anchored)
	f.Add(snap, anchored[:len(anchored)-4])      // torn WAL tail
	f.Add(snap[:len(snap)-6], anchored)          // torn snapshot
	f.Add([]byte{}, plain)                       // no snapshot at all
	f.Add(snap, plain)                           // stale snapshot beside an unanchored WAL
	f.Add(snap, wal([]byte(`{"op":4,"seq":9}`))) // anchor naming a missing sequence
	f.Add([]byte("garbage"), []byte("garbage"))

	f.Fuzz(func(t *testing.T, ckpt, walBytes []byte) {
		base := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(base, walBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(ckpt) > 0 {
			if err := os.WriteFile(base+".ckpt", ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, res, err := journal.OpenStore(base, nil)
		if err != nil {
			return // rejected is fine; panicking or succeeding inconsistently is not
		}
		seq, n, next := res.Seq, len(res.Records), res.NextLease
		if err := s.Close(); err != nil {
			t.Fatalf("close after successful open: %v", err)
		}

		s2, res2, err := journal.OpenStore(base, nil)
		if err != nil {
			t.Fatalf("reopen after successful open: %v", err)
		}
		defer s2.Close()
		if res2.WAL.Truncated {
			t.Fatal("first open left a torn tail behind")
		}
		if res2.UsedFallback {
			t.Fatal("first open left the fallback unpromoted")
		}
		if res2.Seq != seq || len(res2.Records) != n || res2.NextLease != next {
			t.Fatalf("reopen diverged: seq %d/%d, records %d/%d, next %d/%d",
				res2.Seq, seq, len(res2.Records), n, res2.NextLease, next)
		}
	})
}
