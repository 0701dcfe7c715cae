package journal_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hetmem/internal/journal"
)

func sampleRecords() []journal.Record {
	return []journal.Record{
		{Op: journal.OpAlloc, Lease: 1, Name: "hot", Attr: "Bandwidth", Initiator: "0-15", Key: "k1",
			Size: 1 << 30, Segments: []journal.Segment{{NodeOS: 4, Bytes: 1 << 30}}},
		{Op: journal.OpAlloc, Lease: 2, Name: "big", Attr: "Capacity",
			Size: 3 << 30, Segments: []journal.Segment{{NodeOS: 0, Bytes: 1 << 30}, {NodeOS: 1, Bytes: 2 << 30}}},
		{Op: journal.OpMigrate, Lease: 1, Segments: []journal.Segment{{NodeOS: 0, Bytes: 1 << 30}}},
		{Op: journal.OpFree, Lease: 2},
	}
}

// writeSample appends sampleRecords to a fresh store at path and
// closes it, returning the bytes of its records (the file runs on
// into the zero tail).
func writeSample(t *testing.T, path string) int64 {
	t.Helper()
	s, _, err := journal.OpenStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	end := s.WALBytes()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return end
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s, res, err := journal.OpenStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 || res.WAL.Records != 0 {
		t.Fatalf("fresh journal replayed %d records", len(res.Records))
	}
	want := sampleRecords()
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(journal.Record{Op: journal.OpFree, Lease: 1}); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}

	s2, res2, err := journal.OpenStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(res2.Records, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", res2.Records, want)
	}
	if res2.WAL.Records != len(want) || res2.WAL.Truncated {
		t.Fatalf("recovery: %+v", res2.WAL)
	}
}

func TestTornTailIsDroppedCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	end := writeSample(t, path)

	// Simulate a torn final write: cut the last record short. The file
	// runs on into the zero tail, so the cut goes at the records' end.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:end-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, res, err := journal.OpenStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WAL.Truncated {
		t.Fatalf("recovery not marked truncated: %+v", res.WAL)
	}
	if len(res.Records) != len(sampleRecords())-1 {
		t.Fatalf("recovered %d records, want %d", len(res.Records), len(sampleRecords())-1)
	}
	// The journal must be appendable again after tail truncation, and
	// the new record must survive a reopen.
	extra := journal.Record{Op: journal.OpFree, Lease: 1}
	if err := s2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, res3, err := journal.OpenStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if res3.WAL.Truncated || len(res3.Records) != len(sampleRecords()) {
		t.Fatalf("after repair+append: %d records, recovery %+v", len(res3.Records), res3.WAL)
	}
	if got := res3.Records[len(res3.Records)-1]; !reflect.DeepEqual(got, extra) {
		t.Fatalf("last record = %+v, want %+v", got, extra)
	}
}

func TestCorruptPayloadStopsReplayAtCleanPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	end := writeSample(t, path)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the last record's payload.
	data[end-2] ^= 0xff
	recs, rec, err := journal.Replay(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated || rec.Reason == "" {
		t.Fatalf("corruption not reported: %+v", rec)
	}
	if len(recs) != len(sampleRecords())-1 {
		t.Fatalf("replayed %d records past corruption, want %d", len(recs), len(sampleRecords())-1)
	}
	// Replaying just the clean prefix must be... clean.
	recs2, rec2, err := journal.Replay(bytes.NewReader(data[:rec.GoodBytes]))
	if err != nil || rec2.Truncated || len(recs2) != len(recs) {
		t.Fatalf("clean prefix replay: %d records, %+v, err %v", len(recs2), rec2, err)
	}
}

func TestNotAJournal(t *testing.T) {
	if _, _, err := journal.Replay(bytes.NewReader([]byte("GARBAGE FILE"))); !errors.Is(err, journal.ErrNotJournal) {
		t.Fatalf("garbage replay: %v, want ErrNotJournal", err)
	}
	// Empty input is a fresh journal, not an error.
	recs, rec, err := journal.Replay(bytes.NewReader(nil))
	if err != nil || len(recs) != 0 || rec.Truncated {
		t.Fatalf("empty replay: %v %+v", err, rec)
	}
}
