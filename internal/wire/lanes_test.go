package wire

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// gateHandler parks every request until release is closed, announcing
// each arrival, then answers 200 with the request body.
type gateHandler struct {
	arrived chan struct{}
	release chan struct{}
}

func newGate() *gateHandler {
	// Room for every arrival a test causes, so the handler never waits
	// on the test to count it.
	return &gateHandler{arrived: make(chan struct{}, 64), release: make(chan struct{})}
}

func (h *gateHandler) ServeWire(ctx context.Context, _ Op, _ string, body, dst []byte) (int, []byte) {
	h.arrived <- struct{}{}
	select {
	case <-h.release:
	case <-ctx.Done(): // server closing under a failed test
	}
	return 200, append(dst, body...)
}

// tripResult is what one background RoundTrip came back with.
type tripResult struct {
	status int
	body   string
	err    error
}

// park starts one RoundTrip carrying body and returns once its request
// is parked in the gate, so callers started one after another find the
// earlier ones in flight.
func park(t *testing.T, cl *Client, h *gateHandler, body string) <-chan tripResult {
	t.Helper()
	done := make(chan tripResult, 1)
	go func() {
		status, resp, err := cl.RoundTrip(context.Background(), 0, OpHealth, "", []byte(body))
		done <- tripResult{status, string(resp), err}
	}()
	select {
	case <-h.arrived:
	case r := <-done:
		t.Fatalf("request %q returned before reaching the handler: %+v", body, r)
	case <-time.After(5 * time.Second):
		t.Fatalf("request %q never reached the handler", body)
	}
	return done
}

// await returns what the round trip started by park came back with.
func await(t *testing.T, done <-chan tripResult, body string) tripResult {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("request %q never returned", body)
		return tripResult{}
	}
}

func wantEcho(t *testing.T, done <-chan tripResult, body string) {
	t.Helper()
	if r := await(t, done, body); r.err != nil || r.status != 200 || r.body != body {
		t.Errorf("request %q: got %d %q %v", body, r.status, r.body, r.err)
	}
}

func wantDropped(t *testing.T, done <-chan tripResult, body string) {
	t.Helper()
	if r := await(t, done, body); !errors.Is(r.err, ErrConnDropped) {
		t.Errorf("request %q: got %d %q %v, want ErrConnDropped", body, r.status, r.body, r.err)
	}
}

// current reads the lane's connection slot as RoundTrip does.
func current(l *lane) *clientConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cc
}

// inflight reads every lane's count of round trips in progress.
func inflight(cl *Client) []int32 {
	out := make([]int32, len(cl.lanes))
	for i := range cl.lanes {
		out[i] = cl.lanes[i].inflight.Load()
	}
	return out
}

func wantIdle(t *testing.T, cl *Client, after string) {
	t.Helper()
	for i, n := range inflight(cl) {
		if n != 0 {
			t.Errorf("after %s lane %d still counts %d in flight: it would look busy forever", after, i, n)
		}
	}
}

// eventually polls for a state the server reaches on its own time (it
// learns of a closed connection from its reader).
func eventually(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLoneCallerOpensOneLane: a caller whose requests never overlap
// always finds lane 0 idle, so it dials once however many lanes the
// client has.
func TestLoneCallerOpensOneLane(t *testing.T) {
	var stats Stats
	path, _ := startUDS(t, echoHandler{}, &stats)
	cl := withLanes(NewClient("unix", path), 4)
	defer cl.Close()
	body := []byte("x")
	for i := 0; i < 10000; i++ {
		if _, _, err := cl.RoundTrip(context.Background(), time.Minute, OpHealth, "", body); err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.ActiveConns.Load(); got != 1 {
		t.Fatalf("active conns %d after 10000 sequential round trips, want 1", got)
	}
	wantIdle(t, cl, "sequential round trips")
}

// TestConcurrentCallersSpread: k callers in flight at once use
// min(k, lanes) connections, no lane carries two requests while
// another carries none, and every caller gets its own answer.
func TestConcurrentCallersSpread(t *testing.T) {
	const lanes = 4
	for _, k := range []int{1, 2, 3, 4, 7} {
		t.Run(fmt.Sprintf("callers=%d", k), func(t *testing.T) {
			var stats Stats
			h := newGate()
			path, _ := startUDS(t, h, &stats)
			cl := withLanes(NewClient("unix", path), lanes)
			defer cl.Close()

			done := make([]<-chan tripResult, k)
			for i := range done {
				done[i] = park(t, cl, h, strconv.Itoa(i))
			}
			if got, want := stats.ActiveConns.Load(), int64(min(k, lanes)); got != want {
				t.Errorf("active conns %d with %d callers parked, want %d", got, k, want)
			}
			lo, hi := int32(k), int32(0)
			for _, n := range inflight(cl) {
				lo, hi = min(lo, n), max(hi, n)
			}
			if hi-lo > 1 {
				t.Errorf("in flight per lane %v: not spread evenly", inflight(cl))
			}
			close(h.release)
			for i := range done {
				wantEcho(t, done[i], strconv.Itoa(i))
			}
			wantIdle(t, cl, "every answer")
		})
	}
}

// TestLaneDropFailsOnlyItsRequests kills one lane's connection with
// requests parked on both lanes: that lane's requests fail as
// mid-request drops, the other lane's are answered, and the next
// round trip re-dials the dead lane.
func TestLaneDropFailsOnlyItsRequests(t *testing.T) {
	var stats Stats
	h := newGate()
	path, _ := startUDS(t, h, &stats)
	cl := withLanes(NewClient("unix", path), 2)
	defer cl.Close()

	// Started one by one, the callers land on lanes 0, 1, 0, 1.
	a0 := park(t, cl, h, "a0")
	b1 := park(t, cl, h, "b1")
	c0 := park(t, cl, h, "c0")
	d1 := park(t, cl, h, "d1")
	if got := inflight(cl); got[0] != 2 || got[1] != 2 {
		t.Fatalf("in flight per lane %v, want [2 2]", got)
	}

	dead := current(&cl.lanes[0])
	dead.c.Close() // the lane's reader sees the error and fails the connection

	wantDropped(t, a0, "a0")
	wantDropped(t, c0, "c0")
	if got := inflight(cl); got[0] != 0 || got[1] != 2 {
		t.Fatalf("in flight per lane %v after lane 0 dropped, want [0 2]", got)
	}
	close(h.release)
	wantEcho(t, b1, "b1")
	wantEcho(t, d1, "d1")

	// Lane 0 is idle and lowest-numbered, so this request takes it and
	// finds the connection dead.
	status, body, err := cl.RoundTrip(context.Background(), 0, OpHealth, "", []byte("again"))
	if err != nil || status != 200 || string(body) != "again" {
		t.Fatalf("round trip after the drop: %d %q %v", status, body, err)
	}
	if cc := current(&cl.lanes[0]); cc == nil || cc == dead {
		t.Fatal("lane 0 was not re-dialled")
	}
	eventually(t, "the server to count two connections again", func() bool { return stats.ActiveConns.Load() == 2 })
	wantIdle(t, cl, "drop and re-dial")
}

// TestCloseDropsEveryLane: Close fails what is in flight on all lanes,
// and the client dials again on the next use.
func TestCloseDropsEveryLane(t *testing.T) {
	var stats Stats
	h := newGate()
	path, _ := startUDS(t, h, &stats)
	cl := withLanes(NewClient("unix", path), 3)
	defer cl.Close()

	var done []<-chan tripResult
	for i := 0; i < 3; i++ {
		done = append(done, park(t, cl, h, strconv.Itoa(i)))
	}
	if got := stats.ActiveConns.Load(); got != 3 {
		t.Fatalf("active conns %d with three callers parked, want 3", got)
	}
	cl.Close()
	for i, d := range done {
		wantDropped(t, d, strconv.Itoa(i))
	}
	wantIdle(t, cl, "Close")
	eventually(t, "the server to see every connection closed", func() bool { return stats.ActiveConns.Load() == 0 })

	close(h.release)
	status, body, err := cl.RoundTrip(context.Background(), 0, OpHealth, "", []byte("reopened"))
	if err != nil || status != 200 || string(body) != "reopened" {
		t.Fatalf("round trip after Close: %d %q %v", status, body, err)
	}
	if got := stats.ActiveConns.Load(); got != 1 {
		t.Fatalf("active conns %d after one round trip on a closed client, want 1", got)
	}
}

// TestInflightCountSurvivesEveryExit walks RoundTrip's failing exits —
// dial failure, a frame that cannot be built, attempt timeout,
// cancelled context — and checks each leaves no lane counted busy.
func TestInflightCountSurvivesEveryExit(t *testing.T) {
	nowhere := withLanes(NewClient("unix", filepath.Join(t.TempDir(), "nothing-here.sock")), 2)
	if _, _, err := nowhere.RoundTrip(context.Background(), 0, OpHealth, "", nil); !errors.Is(err, ErrNotSent) {
		t.Fatalf("dial failure: got %v, want ErrNotSent", err)
	}
	wantIdle(t, nowhere, "a failed dial")

	h := newGate()
	path, _ := startUDS(t, h, nil)
	cl := withLanes(NewClient("unix", path), 2)
	defer cl.Close()

	if _, _, err := cl.RoundTrip(context.Background(), 0, OpHealth, strings.Repeat("t", 256), nil); !errors.Is(err, ErrNotSent) {
		t.Fatalf("overlong tenant: got %v, want ErrNotSent", err)
	}
	wantIdle(t, cl, "an unbuildable frame")

	if _, _, err := cl.RoundTrip(context.Background(), 20*time.Millisecond, OpHealth, "", []byte("silent")); err != context.DeadlineExceeded {
		t.Fatalf("attempt timeout: got %v, want context.DeadlineExceeded", err)
	}
	wantIdle(t, cl, "an attempt timeout")

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-h.arrived // the timed-out request
		<-h.arrived // this one
		cancel()
	}()
	if _, _, err := cl.RoundTrip(ctx, 0, OpHealth, "", []byte("cancelled")); err != context.Canceled {
		t.Fatalf("cancelled context: got %v, want context.Canceled", err)
	}
	wantIdle(t, cl, "a cancelled context")

	// Both abandoned requests still sit in the gate; a caller that
	// starts now must find lane 0 free, not queue behind their ghosts.
	close(h.release)
	status, body, err := cl.RoundTrip(context.Background(), time.Second, OpHealth, "", []byte("ok"))
	if err != nil || status != 200 || string(body) != "ok" {
		t.Fatalf("round trip after the failed ones: %d %q %v", status, body, err)
	}
	if current(&cl.lanes[1]) != nil {
		t.Fatal("lane 1 was dialled by sequential requests: a failed exit left lane 0 counted busy")
	}
}
