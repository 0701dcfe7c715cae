package journal_test

// Parallel replay equivalence: ReplayParallel must produce exactly
// what sequential Replay produces — records, GoodBytes, Truncated,
// and the Reason string — on clean streams, torn tails, and every
// mid-stream corruption class, at any worker count. The adversarial
// cases put VALID frames after the corruption: a parallel decoder
// happily decodes them, and only the in-order merge keeps them out of
// the result the way the sequential loop's early return does.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hetmem/internal/journal"
)

// stream builds a journal: magic plus one frame per payload.
func stream(payloads ...string) []byte {
	out := append([]byte(nil), journal.Magic...)
	for _, p := range payloads {
		out = append(out, frame([]byte(p))...)
	}
	return out
}

func replayCases() map[string][]byte {
	alloc := `{"op":1,"lease":%d,"name":"b","size":4096,"segments":[{"node":0,"bytes":4096}]}`
	many := make([]string, 0, 300)
	for i := 1; i <= 300; i++ {
		many = append(many, fmt.Sprintf(alloc, i))
	}

	corruptCRC := stream(fmt.Sprintf(alloc, 1), fmt.Sprintf(alloc, 2), fmt.Sprintf(alloc, 3))
	corruptCRC[len(journal.Magic)+8+1] ^= 0x40 // flip a payload bit in frame 1 of 3

	overLimit := stream(fmt.Sprintf(alloc, 1))
	bad := frame([]byte("x"))
	binary.LittleEndian.PutUint32(bad[0:4], 1<<21) // length over MaxRecordBytes
	overLimit = append(overLimit, bad...)
	overLimit = append(overLimit, frame([]byte(fmt.Sprintf(alloc, 2)))...)

	return map[string][]byte{
		"empty":             {},
		"magic_only":        append([]byte(nil), journal.Magic...),
		"bad_magic":         []byte("NOTJRNL\n"),
		"partial_magic":     journal.Magic[:3],
		"clean":             stream(fmt.Sprintf(alloc, 1), `{"op":2,"lease":1}`, fmt.Sprintf(alloc, 2)),
		"many_records":      stream(many...),
		"torn_header":       append(stream(fmt.Sprintf(alloc, 1)), 0x10, 0x00, 0x00),
		"torn_payload":      stream(fmt.Sprintf(alloc, 1), fmt.Sprintf(alloc, 2))[:len(journal.Magic)+30],
		"crc_mid_stream":    corruptCRC,
		"over_limit_mid":    overLimit,
		"bad_json_mid":      stream(fmt.Sprintf(alloc, 1), `{"op":`, fmt.Sprintf(alloc, 2)),
		"bad_op_mid":        stream(fmt.Sprintf(alloc, 1), `{"op":9,"lease":5}`, fmt.Sprintf(alloc, 2)),
		"zero_lease_mid":    stream(fmt.Sprintf(alloc, 1), `{"op":2,"lease":0}`, fmt.Sprintf(alloc, 2)),
		"bad_checkpoint":    stream(`{"op":4,"seq":3}`, `{"op":4}`, fmt.Sprintf(alloc, 2)),
		"anchored_wal":      stream(`{"op":4,"seq":3}`, `{"op":2,"lease":7}`),
		"snapshot_stream":   stream(`{"op":4,"seq":3,"count":1,"next":9}`, fmt.Sprintf(alloc, 7)),
		"empty_payload":     stream(fmt.Sprintf(alloc, 1), ""), // an all-zero header: the clean end
		"zero_tail":         append(stream(fmt.Sprintf(alloc, 1)), make([]byte, 4096)...),
		"short_zero_tail":   append(stream(fmt.Sprintf(alloc, 1)), 0, 0, 0),
		"zeros_only":        make([]byte, 4096),
		"zeros_then_frame":  append(make([]byte, 14), frame([]byte(fmt.Sprintf(alloc, 1)))...),
		"garbage_after_mag": append(append([]byte(nil), journal.Magic...), []byte("not a frame at all")...),
	}
}

func TestReplayParallelMatchesSequential(t *testing.T) {
	for name, data := range replayCases() {
		t.Run(name, func(t *testing.T) {
			want, wantRec, wantErr := journal.Replay(bytes.NewReader(data))
			for _, workers := range []int{0, 1, 2, 3, 7, 16} {
				got, gotRec, gotErr := journal.ReplayParallel(data, workers)
				if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, journal.ErrNotJournal)) {
					t.Fatalf("workers=%d: err %v, sequential %v", workers, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: %d records, sequential %d", workers, len(got), len(want))
				}
				if gotRec != wantRec {
					t.Fatalf("workers=%d: recovery %+v, sequential %+v", workers, gotRec, wantRec)
				}
			}
		})
	}
}

// TestOpenStoreWorkersEquivalence proves the whole recovery stack —
// WAL replay, snapshot parse, torn-tail truncation — restores the
// same state at any parallelism, including through a checkpoint and
// with a torn tail appended.
func TestOpenStoreWorkersEquivalence(t *testing.T) {
	build := func(t *testing.T, tear bool) string {
		base := filepath.Join(t.TempDir(), "wal")
		s, _, err := journal.OpenStore(base, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 50; i++ {
			rec := journal.Record{Op: journal.OpAlloc, Lease: i, Name: "b", Size: 4096,
				Segments: []journal.Segment{{NodeOS: 0, Bytes: 4096}}}
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		err = s.Checkpoint(func() ([]journal.Record, uint64, error) {
			live := make([]journal.Record, 0, 50)
			for i := uint64(1); i <= 50; i++ {
				live = append(live, journal.Record{Op: journal.OpAlloc, Lease: i, Name: "b", Size: 4096,
					Segments: []journal.Segment{{NodeOS: 0, Bytes: 4096}}})
			}
			return live, 51, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 20; i++ {
			if err := s.Append(journal.Record{Op: journal.OpFree, Lease: i}); err != nil {
				t.Fatal(err)
			}
		}
		end := s.WALBytes()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if tear {
			// A torn frame where the next append would have gone: at the
			// records' end, inside the zero tail.
			f, err := os.OpenFile(base, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}, end); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		return base
	}

	for _, tear := range []bool{false, true} {
		name := "clean"
		if tear {
			name = "torn_tail"
		}
		t.Run(name, func(t *testing.T) {
			// Sequential reference open. It truncates the torn tail, so
			// copy the damaged file first for the parallel opens.
			base := build(t, tear)
			raw, err := os.ReadFile(base)
			if err != nil {
				t.Fatal(err)
			}
			seq, seqRes, err := journal.OpenStoreWorkers(base, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			seq.Close()
			if seqRes.WAL.Truncated != tear {
				t.Fatalf("sequential recovery %v, want torn tail %v", seqRes.WAL, tear)
			}
			for _, workers := range []int{0, 2, 4} {
				pbase := filepath.Join(t.TempDir(), "wal")
				if err := os.WriteFile(pbase, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				if data, err := os.ReadFile(base + ".ckpt"); err == nil {
					if err := os.WriteFile(pbase+".ckpt", data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				par, parRes, err := journal.OpenStoreWorkers(pbase, nil, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				par.Close()
				if !reflect.DeepEqual(parRes.Records, seqRes.Records) {
					t.Fatalf("workers=%d: %d records, sequential %d", workers, len(parRes.Records), len(seqRes.Records))
				}
				if parRes.Seq != seqRes.Seq || parRes.NextLease != seqRes.NextLease ||
					parRes.SnapshotRecords != seqRes.SnapshotRecords || parRes.WAL != seqRes.WAL {
					t.Fatalf("workers=%d: restored %+v, sequential %+v", workers, parRes, seqRes)
				}
			}
		})
	}
}
