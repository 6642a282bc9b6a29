package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

// evictedTuple is what a "client evicted" log line says about a client.
type evictedTuple struct {
	Client     string  `json:"client"`
	Txns       int     `json:"transactions"`
	Boundaries int64   `json:"boundaries"`
	DownBytes  int64   `json:"down_bytes"`
	MeanDur    float64 `json:"mean_txn_seconds"`
	Class      string  `json:"class"`
}

// evictions parses every "client evicted" line logged so far.
func evictions(t *testing.T, logs *logBuffer) []evictedTuple {
	t.Helper()
	var out []evictedTuple
	for _, line := range logs.lines() {
		if line == "" {
			continue
		}
		var e struct {
			Msg string `json:"msg"`
			evictedTuple
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if e.Msg == "client evicted" {
			out = append(out, e.evictedTuple)
		}
	}
	return out
}

// feedIdleAndBusy delivers client A's six transactions over the first
// 300 s, then client B's, one a minute until the watermark stands 2 h
// past A's last activity.
func feedIdleAndBusy(s *service) {
	id := uint64(0)
	feed := func(client string, start float64) {
		id++
		r := s.record(id, client, "cdn-01.svc1.example", start, start+10, 400, 150_000)
		s.onConnOpen(r)
		deliver(s, r)
	}
	for at := 0.0; at <= 290; at += 58 {
		feed("10.70.0.1:5000", at)
	}
	for at := 0.0; at+10 <= 300+2*3600; at += 60 {
		feed("10.70.0.2:5000", at)
	}
}

// startServeLoop runs s.serveLoop on its own goroutine with the given
// tick channel and returns a func that stops it and waits for it.
func startServeLoop(t *testing.T, s *service, tick <-chan time.Time) (stop func()) {
	t.Helper()
	errStop := errors.New("test done")
	errCh := make(chan error, 1)
	done := make(chan error, 1)
	go func() { done <- s.serveLoop(errCh, tick, nil, func() {}, func() {}) }()
	return func() {
		errCh <- errStop
		if err := <-done; !errors.Is(err, errStop) {
			t.Errorf("serveLoop returned %v, want the stop error", err)
		}
	}
}

// waitEvicted waits until the service has logged n evictions.
func waitEvicted(t *testing.T, logs *logBuffer, n int, what string) []evictedTuple {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := evictions(t, logs)
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d clients evicted after 10s, want %d", what, len(got), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sweepSignalled reports (and consumes) a pending wake of the serve
// loop; the services here run no block passes, so a wake is a
// record-clock sweep request.
func sweepSignalled(s *service) bool {
	select {
	case <-s.wake:
		return true
	default:
		return false
	}
}

// TestEvictionFollowsRecordClock drives a file-source service through
// its ingest callbacks with no tick ever firing after the first: client
// A idles while client B's records move the watermark 2 h past A's last
// activity, with a 1 h TTL. The record clock alone must get A swept, and
// the sweep must log the same "client evicted" tuple a tick-driven sweep
// gives. B stays resident.
func TestEvictionFollowsRecordClock(t *testing.T) {
	est := trainSmallEstimator(t, 5, 8)
	opts := options{window: 0, clientTTL: time.Hour, classifyEvery: 500 * time.Millisecond, source: "squid"}

	var want, got []evictedTuple
	captureStdout(t, func() {
		ref, refLogs := newTestService(t, opts, est)
		tick := make(chan time.Time)
		stop := startServeLoop(t, ref, tick)
		feedIdleAndBusy(ref)
		tick <- time.Now()
		want = waitEvicted(t, refLogs, 1, "tick-driven sweep")
		stop()

		s, logs := newTestService(t, opts, est)
		// The first tick's sweep, before any record: it evicts nothing
		// and starts the record clock.
		s.evictIdle(s.sweepNow(time.Now()))
		stop = startServeLoop(t, s, nil)
		feedIdleAndBusy(s)
		got = waitEvicted(t, logs, 1, "record-clock sweep")
		stop()
	})
	if len(want) != 1 || want[0].Client != "10.70.0.1" || want[0].Class == "" {
		t.Fatalf("tick-driven sweep evicted %+v, want client 10.70.0.1 with a class", want)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("record-clock sweep evicted\n %+v\nwant %+v", got, want)
	}
}

// TestRecordClockSweepArming pins where the record-clock trigger is
// armed: only for a file source whose classify tick sweeps idle clients,
// and from the first committed record on, without waiting for a tick.
func TestRecordClockSweepArming(t *testing.T) {
	base := options{window: 0, clientTTL: time.Hour, classifyEvery: 500 * time.Millisecond, source: "squid"}
	for _, c := range []struct {
		name   string
		modify func(*options)
	}{
		{"client-ttl 0", func(o *options) { o.clientTTL = 0 }},
		{"classify-every 0", func(o *options) { o.classifyEvery = 0 }},
		{"live-proxy clock", func(o *options) { o.source = "proxy" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := base
			c.modify(&opts)
			s, _ := newTestService(t, opts, nil)
			// A first sweep, then a record 2 h past it on the same clock.
			ns := s.sweepNow(time.Now())
			s.evictIdle(ns)
			r := s.record(1, "10.70.0.2:5000", "cdn-01.svc1.example", ns, ns+2*3600, 400, 1000)
			s.onConnOpen(r)
			deliver(s, r)
			if sweepSignalled(s) {
				t.Fatal("a record-clock sweep was signalled")
			}
		})
	}

	t.Run("before the first tick's sweep", func(t *testing.T) {
		s, logs := newTestService(t, base, nil)
		feedIdleAndBusy(s)
		if !sweepSignalled(s) {
			t.Fatal("no record-clock sweep was signalled before the first tick's sweep")
		}
		// The first sweep, run only now, evicts A and sets the due clock;
		// the next batch TTL/8 of record time later signals.
		wm := s.sweepNow(time.Now())
		s.evictIdle(wm)
		if n := len(evictions(t, logs)); n != 1 {
			t.Fatalf("the first sweep evicted %d clients, want 1", n)
		}
		r := s.record(1000, "10.70.0.2:5000", "cdn-01.svc1.example", wm, wm+time.Hour.Seconds()/recordSweepsPerTTL-1, 400, 1000)
		s.onConnOpen(r)
		deliver(s, r)
		if sweepSignalled(s) {
			t.Fatal("signalled before the watermark reached the due clock")
		}
		r = s.record(1001, "10.70.0.2:5000", "cdn-01.svc1.example", wm, wm+time.Hour.Seconds()/recordSweepsPerTTL, 400, 1000)
		s.onConnOpen(r)
		deliver(s, r)
		if !sweepSignalled(s) {
			t.Fatal("no sweep signalled once the watermark reached the due clock")
		}
	})
}
