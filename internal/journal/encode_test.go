package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
)

// encodeTestRecords exercises every field combination the daemon
// journals: allocs (full state, with/without TTL, key, multi-segment),
// frees (lease only), migrates, and checkpoint headers/anchors.
var encodeTestRecords = []Record{
	{Op: OpAlloc, Lease: 1, Name: "buf-a", Attr: "bandwidth", Initiator: "0-3",
		Size: 4096, Segments: []Segment{{NodeOS: 0, Bytes: 4096}}},
	{Op: OpAlloc, Lease: 42, Name: "multi", Attr: "latency", Initiator: "0",
		Key: "idem-key-1", Size: 1 << 20, TTLMillis: 30000,
		Segments: []Segment{{NodeOS: 0, Bytes: 512 << 10}, {NodeOS: 4, Bytes: 512 << 10}}},
	{Op: OpAlloc, Lease: 7, Name: `weird "name"\with\escapes` + "\n\t\x01", Attr: "capacity",
		Initiator: "0-63", Size: 1, Segments: []Segment{{NodeOS: 12, Bytes: 1}}},
	{Op: OpAlloc, Lease: 9, Name: "tenanted", Attr: "capacity", Tenant: "team-a",
		Size: 4096, Segments: []Segment{{NodeOS: 2, Bytes: 4096}}},
	{Op: OpFree, Lease: 42},
	{Op: OpMigrate, Lease: 7, Segments: []Segment{{NodeOS: 2, Bytes: 1}}},
	{Op: OpMigrate, Lease: 7, Attr: "Latency", Origin: OriginAdvisor,
		Segments: []Segment{{NodeOS: 0, Bytes: 1}}},
	{Op: OpCheckpoint, Seq: 3, Count: 17, NextLease: 99},
	{Op: OpCheckpoint, Seq: 5},
	{Op: OpAlloc, Lease: ^uint64(0), Name: "max", Size: ^uint64(0),
		Segments: []Segment{{NodeOS: -1, Bytes: ^uint64(0)}}},
}

// TestAppendRecordJSONMatchesMarshal pins the hand-rolled record
// encoding against encoding/json byte-for-byte: any divergence would
// change the on-disk WAL format.
func TestAppendRecordJSONMatchesMarshal(t *testing.T) {
	for _, r := range encodeTestRecords {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := appendRecordJSON(nil, r)
		if string(got) != string(want) {
			t.Errorf("record %+v:\n  hand: %s\n  json: %s", r, got, want)
		}
	}
}

// TestAppendRecordJSONCoversEveryField sets every exported field of
// Record and Segment to its own non-zero value by reflection, so a
// field added to Record without a branch in appendRecordJSON's
// hand-kept list fails here instead of silently vanishing from the WAL.
func TestAppendRecordJSONCoversEveryField(t *testing.T) {
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					fill(v.Field(i))
				}
			}
		case reflect.String:
			v.SetString(fmt.Sprintf("v%d", n))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(uint64(n))
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		default:
			t.Fatalf("Record holds a %s field: teach this test and appendRecordJSON about it", v.Kind())
		}
	}
	var r Record
	fill(reflect.ValueOf(&r).Elem())
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendRecordJSON(nil, r); string(got) != string(want) {
		t.Fatalf("every field set:\n  hand: %s\n  json: %s", got, want)
	}
}

func TestAppendFrameRoundTrip(t *testing.T) {
	for _, r := range encodeTestRecords {
		frame, err := appendFrame(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		payload := frame[8:]
		if int(length) != len(payload) {
			t.Fatalf("frame length %d, payload %d", length, len(payload))
		}
		if crc32.ChecksumIEEE(payload) != sum {
			t.Fatalf("frame CRC mismatch for %+v", r)
		}
		var back Record
		if err := json.Unmarshal(payload, &back); err != nil {
			t.Fatalf("payload does not decode: %v", err)
		}
	}
}

func TestAppendFrameZeroAlloc(t *testing.T) {
	r := Record{Op: OpAlloc, Lease: 12345, Name: "bench-buf", Attr: "bandwidth",
		Initiator: "0-31", Size: 1 << 20, TTLMillis: 60000,
		Segments: []Segment{{NodeOS: 0, Bytes: 1 << 20}}}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		f, err := appendFrame(buf[:0], r)
		if err != nil {
			t.Fatal(err)
		}
		buf = f[:0]
	})
	if allocs != 0 {
		t.Fatalf("appendFrame allocated %.1f times per run, want 0", allocs)
	}
}
