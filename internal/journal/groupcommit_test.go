package journal_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetmem/internal/faults"
	"hetmem/internal/journal"
)

// gateFS counts WAL writes and fsyncs and parks every Sync on a
// channel, so a test decides which appends pile up behind which flush.
type gateFS struct {
	faults.FS
	entered chan struct{} // one token per Sync that reached the disk
	release chan struct{} // one token (or close) lets a parked Sync return
	writes  atomic.Int32
	syncs   atomic.Int32
}

func newGateFS(inner faults.FS) *gateFS {
	// entered is sized past any test's flush count so Sync never blocks
	// on a test that stopped listening.
	return &gateFS{FS: inner, entered: make(chan struct{}, 256), release: make(chan struct{})}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	faults.File
	g *gateFS
}

func (f *gateFile) Write(p []byte) (int, error) {
	f.g.writes.Add(1)
	return f.File.Write(p)
}

func (f *gateFile) Sync() error {
	f.g.syncs.Add(1)
	f.g.entered <- struct{}{}
	<-f.g.release
	return f.File.Sync()
}

// gcResult is one AppendDurable outcome.
type gcResult struct {
	appended bool
	err      error
}

// parkedRun is a group-commit store whose first flush (lease 1) is
// parked in Sync with k more appends (leases 2..k+1, enqueued in that
// order) pending behind it.
type parkedRun struct {
	s       *journal.Store
	g       *gateFS
	base    string
	results []gcResult // by lease-1, valid after wg.Wait
	wg      sync.WaitGroup

	mu    sync.Mutex
	sizes []int // onFlush observations, in flush order
}

func startParked(t *testing.T, inner faults.FS, maxBatch, k int) *parkedRun {
	t.Helper()
	r := &parkedRun{g: newGateFS(inner), base: filepath.Join(t.TempDir(), "wal"), results: make([]gcResult, k+1)}
	s, _, err := journal.OpenStore(r.base, r.g)
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
	r.g.writes.Store(0) // the magic
	s.EnableGroupCommit(maxBatch, 0, func(n int) {
		r.mu.Lock()
		r.sizes = append(r.sizes, n)
		r.mu.Unlock()
	})
	appendOne := func(lease int) {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			appended, err := s.AppendDurable(allocRec(uint64(lease), 4096))
			r.results[lease-1] = gcResult{appended, err}
		}()
	}
	appendOne(1)
	<-r.g.entered
	for i := 1; i <= k; i++ {
		appendOne(i + 1)
		for deadline := time.Now().Add(10 * time.Second); s.GroupPending() < i; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("append %d never enqueued behind the parked flush", i+1)
			}
		}
	}
	return r
}

// finish opens the gate for good, waits for every append, closes the
// store and returns what a reopen replays.
func (r *parkedRun) finish(t *testing.T) []journal.Record {
	t.Helper()
	close(r.g.release)
	r.wg.Wait()
	if err := r.s.Close(); err != nil {
		t.Fatal(err)
	}
	_, res, err := journal.OpenStore(r.base, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Records
}

func wantLeases(t *testing.T, recs []journal.Record, want ...uint64) {
	t.Helper()
	got := make([]uint64, len(recs))
	for i, r := range recs {
		got[i] = r.Lease
	}
	if !slices.Equal(got, want) {
		t.Fatalf("replayed leases %v, want %v", got, want)
	}
}

func seq(from, to uint64) []uint64 {
	var out []uint64
	for i := from; i <= to; i++ {
		out = append(out, i)
	}
	return out
}

// TestGroupCommitCoalesces: everything that arrives while a flush's
// fsync is in flight rides the next flush — one more write, one more
// fsync, however many records — and replays in arrival order.
func TestGroupCommitCoalesces(t *testing.T) {
	const k = 16
	r := startParked(t, faults.OS, journal.DefaultGroupBatch, k)
	r.g.release <- struct{}{} // flush 1 returns
	<-r.g.entered             // flush 2 parked: it must already hold all k
	if n := r.s.GroupPending(); n != 0 {
		t.Fatalf("%d records still pending while flush 2 is in flight", n)
	}
	recs := r.finish(t)
	if !slices.Equal(r.sizes, []int{1, k}) {
		t.Fatalf("flush sizes %v, want [1 %d]", r.sizes, k)
	}
	// Close syncs once more; the appends cost two writes and two fsyncs.
	if w, s := r.g.writes.Load(), r.g.syncs.Load(); w != 2 || s != 3 {
		t.Fatalf("%d writes, %d fsyncs (incl. Close) for %d records, want 2 and 3", w, s, k+1)
	}
	for i, res := range r.results {
		if !res.appended || res.err != nil {
			t.Fatalf("lease %d: appended=%v err=%v", i+1, res.appended, res.err)
		}
	}
	wantLeases(t, recs, seq(1, k+1)...)
}

// TestGroupCommitBatchCapDrains: records the cap leaves behind are
// flushed by follow-up rounds that start on their own — no new arrival
// is needed to elect a leader.
func TestGroupCommitBatchCapDrains(t *testing.T) {
	r := startParked(t, faults.OS, 4, 10)
	recs := r.finish(t) // nothing arrives after the gate opens
	if !slices.Equal(r.sizes, []int{1, 4, 4, 2}) {
		t.Fatalf("flush sizes %v, want [1 4 4 2]", r.sizes)
	}
	wantLeases(t, recs, seq(1, 11)...)
}

// TestGroupCommitLoneWriter: a single writer pays exactly one fsync per
// append and never waits for a second writer. With a mean flush of an
// hour, one wait would stall it for minutes. The clock is read only
// where the leader times its flush and bounds its wait.
func TestGroupCommitLoneWriter(t *testing.T) {
	r := startParked(t, faults.OS, 0, 0)
	close(r.g.release)
	r.wg.Wait()
	r.s.SetGroupFlush(time.Hour)
	const n = 20
	done := make(chan error, 1)
	go func() {
		for i := 2; i <= n; i++ {
			if appended, err := r.s.AppendDurable(allocRec(uint64(i), 4096)); !appended || err != nil {
				done <- fmt.Errorf("append %d: appended=%v err=%v", i, appended, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("a lone writer waited for a second writer that is not coming")
	}
	if seen := r.s.GroupSeen(); seen != 1 {
		t.Fatalf("a lone writer's flush saw %d writers, want 1", seen)
	}
	if w, s := r.g.writes.Load(), r.g.syncs.Load(); w != n || s != n {
		t.Fatalf("%d writes, %d fsyncs for %d lone appends, want %d each", w, s, n, n)
	}
	for _, size := range r.sizes {
		if size != 1 {
			t.Fatalf("flush sizes %v, want all 1", r.sizes)
		}
	}

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	clockFuncs := map[string]bool{"lead": true, "await": true}
	clockTypes := map[string]bool{"Duration": true, "Timer": true}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" && !clockTypes[sel.Sel.Name] &&
						(fn == nil || !clockFuncs[fn.Name.Name]) {
						t.Errorf("package journal uses time.%s outside the group-commit leader", sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
}

// closedLoop appends count records with leases first, first+step, …,
// each one roundTrip after the last one is durable, and records each
// append's latency.
func closedLoop(t *testing.T, s *journal.Store, wg *sync.WaitGroup, first uint64, step, count int, lat []time.Duration) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < count; i++ {
			start := time.Now()
			if appended, err := s.AppendDurable(allocRec(first+uint64(i*step), 4096)); !appended || err != nil {
				t.Errorf("lease %d: appended=%v err=%v", first+uint64(i*step), appended, err)
				return
			}
			if lat != nil {
				lat[i] = time.Since(start)
			}
			time.Sleep(roundTrip)
		}
	}()
}

// roundTrip stands for the time a client takes to receive its answer
// and send its next request. Without it an in-process writer requeues
// before the next leader even looks, and pairs by luck.
const roundTrip = 2 * time.Millisecond

// pairedStore opens a gated group-commit store with the given mean
// flush, parks writer A's first flush (lease 1) and queues writer B's
// first record (lease 2) behind it. A writes aCount records with odd
// leases, B bCount with even ones. Nothing is released yet.
func pairedStore(t *testing.T, flush time.Duration, aCount, bCount int, aLat []time.Duration) (*journal.Store, *gateFS, *sync.WaitGroup, *[]int) {
	t.Helper()
	g := newGateFS(faults.OS)
	s, _, err := journal.OpenStore(filepath.Join(t.TempDir(), "wal"), g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g.writes.Store(0) // the magic
	var mu sync.Mutex
	sizes := new([]int)
	s.EnableGroupCommit(0, 0, func(n int) {
		mu.Lock()
		*sizes = append(*sizes, n)
		mu.Unlock()
	})
	s.SetGroupFlush(flush)
	var wg sync.WaitGroup
	closedLoop(t, s, &wg, 1, 2, aCount, aLat)
	<-g.entered
	closedLoop(t, s, &wg, 2, 2, bCount, nil)
	for deadline := time.Now().Add(10 * time.Second); s.GroupPending() < 1; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("writer B never queued behind the parked flush")
		}
	}
	return s, g, &wg, sizes
}

// TestGroupCommitPairsClosedLoopWriters: two writers that each wait
// for their last record before sending the next share every flush after
// the first, instead of alternating one-record flushes. The mean flush
// is a minute, so no returning writer can miss the leader's wait.
func TestGroupCommitPairsClosedLoopWriters(t *testing.T) {
	const n = 20
	_, g, wg, sizes := pairedStore(t, time.Minute, n+1, n, nil)
	close(g.release)
	wg.Wait()
	want := []int{1}
	for i := 0; i < n; i++ {
		want = append(want, 2)
	}
	if !slices.Equal(*sizes, want) {
		t.Fatalf("flush sizes %v, want %v", *sizes, want)
	}
	if w, fs := g.writes.Load(), g.syncs.Load(); w != n+1 || fs != n+1 {
		t.Fatalf("%d writes, %d fsyncs for %d records, want %d each", w, fs, 2*n+1, n+1)
	}
}

// TestGroupCommitWaitsOnceForAWriterNotComing: when one of two paired
// writers stops, the other's next flush waits at most half a measured
// flush for it, and no flush after that waits at all.
func TestGroupCommitWaitsOnceForAWriterNotComing(t *testing.T) {
	const aCount = 6
	lat := make([]time.Duration, aCount)
	flush := 3 * time.Second
	s, g, wg, sizes := pairedStore(t, flush, aCount, 1, lat)
	close(g.release)
	wg.Wait()
	if want := []int{1, 2, 1, 1, 1, 1}; !slices.Equal(*sizes, want) {
		t.Fatalf("flush sizes %v, want %v", *sizes, want)
	}
	if seen := s.GroupSeen(); seen != 1 {
		t.Fatalf("the last flush saw %d writers, want 1", seen)
	}
	// lat[2] is A's first record without B: its leader waits out B.
	if lat[2] > flush {
		t.Fatalf("the wait for a writer not coming took %v, want at most half the mean flush (%v)", lat[2], flush)
	}
	for i := 3; i < aCount; i++ {
		if lat[i] > flush/4 {
			t.Fatalf("lone append %d took %v after the wait had already timed out once", i, lat[i])
		}
	}
}

// TestGroupCommitSyncFailure: when the shared fsync fails, every
// waiter in the batch must see appended=true (the records are in the
// file and will replay) plus the sync error.
func TestGroupCommitSyncFailure(t *testing.T) {
	ffs := faults.NewFaultFS(faults.OS, 1)
	r := startParked(t, ffs, 8, 3)
	r.g.release <- struct{}{}
	<-r.g.entered // the batch of 3 is written; fail its fsync only
	ffs.FailSyncs(1)
	recs := r.finish(t)
	if res := r.results[0]; !res.appended || res.err != nil {
		t.Fatalf("flush 1 shares nothing with the failed batch: appended=%v err=%v", res.appended, res.err)
	}
	for i, res := range r.results[1:] {
		if !errors.Is(res.err, faults.ErrInjectedSync) {
			t.Fatalf("waiter %d: err = %v, want injected sync failure", i, res.err)
		}
		if !res.appended {
			t.Fatalf("waiter %d: appended=false after a sync-only failure: the record IS in the file", i)
		}
	}
	wantLeases(t, recs, 1, 2, 3, 4)
}

// TestGroupCommitWriteFailure: a failed write must roll the whole
// batch back — appended=false for every waiter and nothing replays.
func TestGroupCommitWriteFailure(t *testing.T) {
	ffs := faults.NewFaultFS(faults.OS, 1)
	r := startParked(t, ffs, 8, 3)
	ffs.FailWrites(1) // flush 1 is already written; the batch's write fails
	recs := r.finish(t)
	for i, res := range r.results[1:] {
		if res.err == nil {
			t.Fatalf("waiter %d: write failure must surface an error", i)
		}
		if res.appended {
			t.Fatalf("waiter %d: appended=true after a failed write: the record is NOT in the file", i)
		}
	}
	wantLeases(t, recs, 1)
}

// TestGroupCommitInterleavesWithCheckpoint: durable appends racing a
// checkpoint/compaction must lose no records.
func TestGroupCommitInterleavesWithCheckpoint(t *testing.T) {
	base := filepath.Join(t.TempDir(), "wal")
	s, _, err := journal.OpenStore(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableGroupCommit(journal.DefaultGroupBatch, 0, nil)

	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lease := uint64(w*perWriter + i + 1)
				if _, err := s.AppendDurable(allocRec(lease, 4096)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			// Checkpoint an empty live set: compaction rewrites the base
			// and truncates the WAL; appends in flight must survive into
			// either the snapshot or the fresh WAL.
			if err := s.Checkpoint(func() ([]journal.Record, uint64, error) {
				return nil, 0, nil
			}); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing asserts the exact surviving count: checkpoints were taken
	// with an empty live set, deliberately discarding already-appended
	// records. What must hold is that the store reopens cleanly and the
	// records appended AFTER the last checkpoint replay in order.
	_, res, err := journal.OpenStore(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, r := range res.Records {
		if seen[r.Lease] {
			t.Fatalf("lease %d replayed twice", r.Lease)
		}
		seen[r.Lease] = true
	}
}

// TestAppendBatch: one call persists every record in order with a
// single write, and a reopened store replays them all.
func TestAppendBatch(t *testing.T) {
	base := filepath.Join(t.TempDir(), "wal")
	s, _, err := journal.OpenStore(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]journal.Record, 10)
	for i := range recs {
		recs[i] = allocRec(uint64(i+1), 4096)
	}
	appended, err := s.AppendBatch(recs, true)
	if err != nil || !appended {
		t.Fatalf("AppendBatch: appended=%v err=%v", appended, err)
	}
	if appended, err := s.AppendBatch(nil, true); appended || err != nil {
		t.Fatalf("empty batch: appended=%v err=%v, want false/nil", appended, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, res, err := journal.OpenStore(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(res.Records), len(recs))
	}
	for i, r := range res.Records {
		if r.Lease != uint64(i+1) {
			t.Fatalf("record %d: lease %d, want %d (order must be preserved)", i, r.Lease, i+1)
		}
	}
}

// TestAppendBatchTornWrite: a torn batch write must roll back to the
// last whole frame — recovery replays a prefix of the batch, never a
// corrupt tail.
func TestAppendBatchTornWrite(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "wal")
			ffs := faults.NewFaultFS(faults.OS, seed)
			s, _, err := journal.OpenStore(base, ffs)
			if err != nil {
				t.Fatal(err)
			}
			recs := make([]journal.Record, 8)
			for i := range recs {
				recs[i] = allocRec(uint64(i+1), 4096)
			}
			ffs.ShortWrites(1)
			appended, err := s.AppendBatch(recs, true)
			if err == nil {
				t.Fatalf("torn write must error")
			}
			if appended {
				t.Fatalf("appended=true after a torn write that was rolled back")
			}
			s.Close()

			_, res, err := journal.OpenStore(base, faults.OS)
			if err != nil {
				t.Fatal(err)
			}
			// The store rolls a torn batch back to the pre-batch length,
			// so recovery must see an empty, uncorrupted journal.
			if len(res.Records) != 0 {
				t.Fatalf("seed %d: torn batch left %d records", seed, len(res.Records))
			}
		})
	}
}
