package journal

// Group commit: concurrent durable appends coalesce into one
// write+fsync. N racing /alloc requests each need their record on
// stable storage before the daemon may answer; paying N fsyncs
// serializes the hot path on the disk. Batches form on the in-flight
// fsync: a flush holds the store's append lock across its write+fsync,
// the next arrival becomes the next batch leader and waits for that
// lock, and everything that enqueues meanwhile rides the leader's
// flush. All waiters of a batch share the outcome.
//
// Closed-loop writers send their next record only once the last one is
// durable, so at two of them the leader that takes the lock finds only
// itself queued: the writer whose flush just returned is still on its
// way back, and the two would alternate one-record flushes. So a leader
// holding the lock waits until as many records are queued as the last
// flush saw writers (its batch plus the records that queued behind it),
// for at most half the mean flush time. A writer that returns within
// that rides along; one that is not coming costs the leader at most
// half a flush. A lone writer's flush saw only itself, so it never
// waits.
//
// The WAL invariants survive unchanged: frames from one flush are one
// contiguous write, a failed write is rolled back to the last whole
// frame exactly like Append, and a torn tail is still truncated on
// replay. Journal-before-visible holds because AppendDurable returns
// only after the shared fsync. Lock order is s.mu then gc.mu, never the
// reverse (Checkpoint and AppendBatch take s.mu).

import (
	"sync"
	"time"
)

// DefaultGroupBatch bounds the records of one flush; batch sizes < 1
// are clamped to it.
const DefaultGroupBatch = 64

// gcWaiter is one enqueued record waiting for the shared flush.
type gcWaiter struct {
	frame    []byte
	appended bool
	err      error
	// wake receives true once the record's flush is over, or false
	// first when the batch cap left this waiter at the head of the
	// queue and it must lead the next round. Each is sent at most once
	// and the false is consumed before the true, so one slot suffices.
	wake chan bool
}

// groupCommit is the leader/follower batcher attached to a Store.
type groupCommit struct {
	maxBatch int
	onFlush  func(batched int) // observability hook (metrics histogram), called under s.mu

	mu      sync.Mutex
	pending []*gcWaiter
	leader  bool // someone is about to claim pending
	// want is the queue length a waiting leader needs (0: nobody
	// waits). The enqueue that reaches it clears it and sends on
	// arrived, so arrived holds at most one token.
	want    int
	arrived chan struct{}

	// Only the leader touches these, under s.mu.
	seen  int           // writers the last flush saw
	flush time.Duration // moving mean of write+fsync time
	timer *time.Timer   // bounds the wait; stopped or drained between waits
}

// EnableGroupCommit turns on group commit for AppendDurable: records
// arriving while a flush is in flight share the next one, up to
// maxBatch (default 64) per fsync. onFlush, if non-nil, observes every
// flush's batch size, in flush order; it runs under the append lock, so
// it must be cheap. Call before serving traffic; not safe to toggle
// concurrently with appends.
//
// The duration was the linger and is unused; benchmark/probes.go still
// passes one.
func (s *Store) EnableGroupCommit(maxBatch int, _ time.Duration, onFlush func(batched int)) {
	if maxBatch < 1 {
		maxBatch = DefaultGroupBatch
	}
	s.gc = &groupCommit{maxBatch: maxBatch, onFlush: onFlush, arrived: make(chan struct{}, 1)}
}

// AppendDurable appends one record and returns once it is on stable
// storage. With group commit enabled the fsync is shared with every
// concurrently appending goroutine; without it this is one write+fsync.
//
// Like Server-facing Append semantics: appended=false means the record
// never reached the WAL (the write was rolled back), appended=true
// with a non-nil error means the record is in the file but its
// durability is unconfirmed (the fsync failed) — it will replay.
func (s *Store) AppendDurable(r Record) (appended bool, err error) {
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	frame, err := appendFrame(*bp, r)
	*bp = frame[:0]
	if err != nil {
		return false, err
	}
	gc := s.gc
	if gc == nil {
		if _, err := s.writeBuf(frame, true); err != nil {
			return s.frameInFile(err), err
		}
		return true, nil
	}

	// The waiter's frame aliases this goroutine's pooled buffer; the
	// leader is done reading it before it signals w.wake, so returning
	// the buffer to the pool after the wait is safe.
	w := &gcWaiter{frame: frame, wake: make(chan bool, 1)}
	gc.mu.Lock()
	gc.pending = append(gc.pending, w)
	if len(gc.pending) == gc.want {
		gc.want = 0
		gc.arrived <- struct{}{}
	}
	lead := !gc.leader
	gc.leader = true
	gc.mu.Unlock()
	if lead {
		s.lead(gc)
	}
	for !<-w.wake {
		s.lead(gc)
	}
	return w.appended, w.err
}

// lead runs one group-commit round: wait out the flush in flight (it
// holds s.mu), give the writers the last flush saw a moment to queue,
// claim what piled up, flush, wake everyone.
func (s *Store) lead(gc *groupCommit) {
	s.mu.Lock()
	gc.mu.Lock()
	if len(gc.pending) < gc.seen {
		gc.want = gc.seen
		gc.mu.Unlock()
		gc.await(gc.flush / 2)
		gc.mu.Lock()
	}
	batch := gc.pending
	if len(batch) > gc.maxBatch {
		// The cap leaves records behind: their head leads the next
		// round now, without waiting for a new arrival to elect itself
		// (the send cannot block, see gcWaiter.wake).
		batch, gc.pending = batch[:gc.maxBatch:gc.maxBatch], batch[gc.maxBatch:]
		gc.pending[0].wake <- false
	} else {
		gc.pending, gc.leader = nil, false
	}
	gc.mu.Unlock()

	bp := getFrameBuf()
	buf := *bp
	for _, w := range batch {
		buf = append(buf, w.frame...)
	}
	*bp = buf[:0]
	start := time.Now()
	_, err := s.writeLocked(buf, true)
	if d := time.Since(start); gc.flush == 0 {
		gc.flush = d
	} else {
		gc.flush += (d - gc.flush) / 8
	}
	gc.mu.Lock()
	gc.seen = min(len(batch)+len(gc.pending), gc.maxBatch)
	gc.mu.Unlock()
	// Observed under s.mu, so the hook sees flushes in the order they
	// reached the file; the next leader waits on s.mu.
	if gc.onFlush != nil {
		gc.onFlush(len(batch))
	}
	s.mu.Unlock()
	putFrameBuf(bp)

	appended := err == nil || s.frameInFile(err)
	for _, w := range batch {
		w.appended, w.err = appended, err
		w.wake <- true
	}
}

// await parks the leader until the queue reaches gc.want or d passes.
func (gc *groupCommit) await(d time.Duration) {
	if gc.timer == nil {
		gc.timer = time.NewTimer(d)
	} else {
		gc.timer.Reset(d)
	}
	select {
	case <-gc.arrived:
		// A timer that fired as the queue filled may hold a tick (Go
		// before 1.23 buffers it); drop it so the next Reset starts clean.
		if !gc.timer.Stop() {
			select {
			case <-gc.timer.C:
			default:
			}
		}
	case <-gc.timer.C:
		gc.mu.Lock()
		gc.want = 0
		// The queue may have filled as the timer fired.
		select {
		case <-gc.arrived:
		default:
		}
		gc.mu.Unlock()
	}
}

// frameInFile reports whether a failed appendFrames left the frames in
// the WAL (only the fsync failed) rather than rolled back.
func (s *Store) frameInFile(err error) bool {
	_, ok := err.(*syncError)
	return ok
}

// syncError marks an appendFrames failure where the write landed but
// the fsync did not: the records are in the file and will replay.
type syncError struct{ err error }

func (e *syncError) Error() string { return "journal: sync: " + e.err.Error() }
func (e *syncError) Unwrap() error { return e.err }

// AppendBatch frames and writes many records as one contiguous write,
// optionally followed by a single fsync — the journal side of the
// /v1/alloc/batch endpoint: one batch, one write, one fsync, no matter
// how many placements it carries. Same appended semantics as
// AppendDurable; all-or-nothing on the write (a failed write rolls the
// whole batch back).
func (s *Store) AppendBatch(recs []Record, sync bool) (appended bool, err error) {
	if len(recs) == 0 {
		return false, nil
	}
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	buf := *bp
	for _, r := range recs {
		var err error
		buf, err = appendFrame(buf, r)
		if err != nil {
			*bp = buf[:0]
			return false, err
		}
	}
	*bp = buf[:0]
	if _, err := s.writeBuf(buf, sync); err != nil {
		return s.frameInFile(err), err
	}
	return true, nil
}
