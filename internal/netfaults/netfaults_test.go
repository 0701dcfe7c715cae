package netfaults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// startEcho serves a trivial HTTP endpoint and returns its host:port.
func startEcho(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "pong pong pong pong pong pong pong pong")
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func startProxy(t *testing.T, target string) *Proxy {
	t.Helper()
	p, err := NewProxy(target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// fetch does one GET through the proxy with a short overall deadline,
// on a fresh connection (no pooling — each call exercises the proxy's
// accept path).
func fetch(p *Proxy, timeout time.Duration) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+p.Addr()+"/", nil)
	cl := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := cl.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func TestProxyTransparentWhenHealthy(t *testing.T) {
	p := startProxy(t, startEcho(t))
	body, err := fetch(p, 2*time.Second)
	if err != nil {
		t.Fatalf("healthy proxy failed: %v", err)
	}
	if !strings.Contains(body, "pong") {
		t.Fatalf("healthy proxy corrupted the body: %q", body)
	}
}

func TestSymmetricPartitionRefusesAndResets(t *testing.T) {
	p := startProxy(t, startEcho(t))
	p.SetPartition(true, false, false)
	if _, err := fetch(p, time.Second); err == nil {
		t.Fatal("request through a symmetric partition succeeded")
	}
	p.SetPartition(false, false, false)
	if _, err := fetch(p, 2*time.Second); err != nil {
		t.Fatalf("healed link still failing: %v", err)
	}
}

func TestAsymmetricPartitionHangsUntilDeadline(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in, out bool
	}{
		{"inbound-blackhole", true, false},
		{"outbound-blackhole", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := startProxy(t, startEcho(t))
			p.SetPartition(false, tc.in, tc.out)
			start := time.Now()
			_, err := fetch(p, 300*time.Millisecond)
			if err == nil {
				t.Fatal("request through a blackholed direction succeeded")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("blackhole should surface as a deadline, got: %v", err)
			}
			if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
				t.Fatalf("failed after %v; a blackhole must hang, not reset", elapsed)
			}
		})
	}
}

func TestLatencyInjection(t *testing.T) {
	p := startProxy(t, startEcho(t))
	base := time.Now()
	if _, err := fetch(p, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	nominal := time.Since(base)

	p.SetLatency(100 * time.Millisecond)
	start := time.Now()
	if _, err := fetch(p, 5*time.Second); err != nil {
		t.Fatalf("slow link failed outright: %v", err)
	}
	if d := time.Since(start); d < nominal+150*time.Millisecond {
		t.Fatalf("injected latency not observed: %v vs nominal %v", d, nominal)
	}
}

func TestDropAndTruncateMidBody(t *testing.T) {
	p := startProxy(t, startEcho(t))
	p.DropNextConns(1)
	if body, err := fetch(p, 2*time.Second); err == nil {
		t.Fatalf("mid-body drop delivered a clean response: %q", body)
	}
	// The armed burst drains: the next connection is clean.
	if _, err := fetch(p, 2*time.Second); err != nil {
		t.Fatalf("link still broken after drop burst drained: %v", err)
	}

	p.TruncateNextResponses(1)
	if body, err := fetch(p, 2*time.Second); err == nil {
		t.Fatalf("truncated response read cleanly: %q", body)
	}
	if _, err := fetch(p, 2*time.Second); err != nil {
		t.Fatalf("link still broken after truncate burst drained: %v", err)
	}
}

func TestInjectorFlapBeats(t *testing.T) {
	p := startProxy(t, startEcho(t))
	in := NewInjector([]*Proxy{p})
	if err := in.Apply(Event{Link: 0, Kind: Flap, Beat: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := fetch(p, 500*time.Millisecond); err == nil {
		t.Fatal("odd flap beat should partition the link")
	}
	if err := in.Apply(Event{Link: 0, Kind: Flap, Beat: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := fetch(p, 2*time.Second); err != nil {
		t.Fatalf("even flap beat should heal the link: %v", err)
	}
	if err := in.Apply(Event{Link: 3, Kind: Heal}); !errors.Is(err, ErrUnknownLink) {
		t.Fatalf("unknown link accepted: %v", err)
	}
}

func TestSetTargetRepoints(t *testing.T) {
	p := startProxy(t, startEcho(t))
	// Point at a dead port: new connections fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	p.SetTarget(dead)
	if _, err := fetch(p, time.Second); err == nil {
		t.Fatal("fetch through dead target succeeded")
	}
	p.SetTarget(startEcho(t))
	if _, err := fetch(p, 2*time.Second); err != nil {
		t.Fatalf("re-pointed proxy failed: %v", err)
	}
}

// The determinism contract seeded chaos runs depend on: the
// same seed yields byte-for-byte the same schedule, a different seed a
// different one, and the plan never cuts every link at once and always
// ends healed.
func TestRandomPlanDeterministicAndSafe(t *testing.T) {
	const links = 4
	a := RandomPlan(42, 60, links, RandomOptions{})
	b := RandomPlan(42, 60, links, RandomOptions{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if c := RandomPlan(43, 60, links, RandomOptions{}); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("empty plan")
	}

	// Replay the schedule's partition bookkeeping: at no step may every
	// link be down, and after the final heal step nothing is.
	down := map[int]bool{}
	for _, ev := range a.Events {
		switch ev.Kind {
		case PartitionSym, PartitionIn, PartitionOut:
			down[ev.Link] = true
		case Flap:
			if ev.Beat%2 == 1 {
				down[ev.Link] = true
			} else {
				delete(down, ev.Link)
			}
		case Heal:
			delete(down, ev.Link)
		}
		if len(down) >= links {
			t.Fatalf("plan cut every link at %v", ev)
		}
	}
	if len(down) != 0 {
		t.Fatalf("plan ended with %d links still down", len(down))
	}
}
