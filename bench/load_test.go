package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterRequests stalls one request of an open
// loop on a single connection: the requests that fell due during the
// stall must carry the wait in their latency (timed from due, not from
// send), show it as queue wait, and the scheduler's own lateness must be
// reported and small.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n        = 120
		interval = 5 * time.Millisecond
		stallAt  = 10
		stall    = 150 * time.Millisecond
	)
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	ops := make([]op, n)
	for i := range ops {
		ops[i] = func(ctx context.Context, c *http.Client) error {
			_, err := get(ctx, c, srv.URL)
			return err
		}
	}
	cs := clients(1)
	defer closeClients(cs)
	ss := openLoop(context.Background(), cs, time.Now(), interval, ops)
	if len(ss) != n {
		t.Fatalf("%d samples, want %d", len(ss), n)
	}
	for i, s := range ss {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
	}
	if got := ss[stallAt].latency(); got < stall {
		t.Errorf("stalled request latency %v, want ≥ %v", got, stall)
	}
	// The next request fell due one interval into the stall: it waited
	// for the connection almost the whole stall, and its latency says so
	// even though the server answered it at once.
	next := ss[stallAt+1]
	if min := stall - 2*interval; next.latency() < min || next.queueWait() < min {
		t.Errorf("request after the stall: latency %v, queue wait %v; want both ≥ %v",
			next.latency(), next.queueWait(), min)
	}
	if service := next.end.Sub(next.start); service >= stall/2 {
		t.Errorf("request after the stall took %v to serve; the test needs it fast", service)
	}
	m := measured{}
	loadgenMetrics(m, ss)
	late, ok := m["loadgen.late_p90_ms"]
	if !ok {
		t.Fatalf("no scheduler lateness reported: %v", m)
	}
	if late > 20 {
		t.Errorf("scheduler late by %vms at p90; it should only wait on its timer", late)
	}
	if _, ok := m["loadgen.queue_wait_p50_ms"]; !ok {
		t.Errorf("no queue wait reported: %v", m)
	}
}

// TestClosedLoopTimesFromSend checks that a closed loop's samples start
// when sent and that each sender waits for its previous reply.
func TestClosedLoopTimesFromSend(t *testing.T) {
	var inFlight, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := inFlight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
	}))
	defer srv.Close()
	cs := clients(2)
	defer closeClients(cs)
	ss := closedLoop(context.Background(), cs, time.Now().Add(100*time.Millisecond), func(w, k int) op {
		return func(ctx context.Context, c *http.Client) error {
			_, err := get(ctx, c, srv.URL)
			return err
		}
	})
	if len(ss) < 10 {
		t.Fatalf("only %d requests in 100ms", len(ss))
	}
	for _, s := range ss {
		if s.err != nil || s.due != s.start || s.latency() < 2*time.Millisecond {
			t.Fatalf("sample %+v: want no error, due == start, latency ≥ 2ms", s)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight at once from 2 closed-loop senders", p)
	}
}
