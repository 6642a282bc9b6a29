package main

import (
	"fmt"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blockClient names the c-th client of the block-pass tests.
func blockClient(c int) string { return fmt.Sprintf("10.80.0.%d", c+1) }

// feedBlockClients feeds one record each to clients first..first+n-1.
func feedBlockClients(s *service, first, n int) {
	for c := first; c < first+n; c++ {
		feedRecords(s, blockClient(c)+":5000", c+1, 1)
	}
}

// TestBlockPassFirstVerdicts runs the serve loop at -classify-every 1h,
// so no tick fires while it runs. A shard whose new clients fill one
// inference block must give each of them its first "classification"
// line from a block pass alone; the clients of a partial block wait for
// the deadline or the tick, and at 1h neither fires during the test, so
// they log none before shutdown.
func TestBlockPassFirstVerdicts(t *testing.T) {
	const block = 8
	est := trainSmallEstimator(t, 5, 8)
	// A -model path is what makes newService queue new clients, as run
	// does; the test stores the model itself.
	opts := options{modelPath: "model.json", classifyEvery: time.Hour, shards: 1, classifyBatch: block}
	var got []classLog
	var blockPasses, runs int64
	captureStdout(t, func() {
		s, logs := newTestService(t, opts, est)
		stop := startServeLoop(t, s, nil, nil)
		feedBlockClients(s, 0, block)
		waitFor(t, "a full block's first verdicts", func() bool { return len(classLogs(t, logs)) >= block })
		feedBlockClients(s, block, block-3)
		// A wake sent by the last commit has been taken once the channel
		// is empty, and stop returns only after the loop has handled it.
		waitFor(t, "the serve loop to take the last wake", func() bool { return len(s.wake) == 0 })
		stop()
		got = classLogs(t, logs)
		blockPasses, runs = s.mBlockPasses.Value(), s.mRuns.Value()
	})
	if len(got) != block {
		t.Fatalf("%d classification lines before shutdown, want %d (one full block): %+v", len(got), block, got)
	}
	for i, l := range got {
		if want := blockClient(i); l.Client != want || l.Class == "" || l.Previous != "" {
			t.Errorf("line %d is %+v, want the first verdict of %s", i, l, want)
		}
	}
	if blockPasses != 1 || runs != 1 {
		t.Errorf("%d block passes, %d classification runs; want 1 of each", blockPasses, runs)
	}
}

// TestDeadlinePassFirstVerdicts runs the serve loop at -classify-every
// 1h with an injected deadline channel. One deadline must give every
// client of a partial block its first "classification" line, and a
// deadline with no client waiting must run no pass.
func TestDeadlinePassFirstVerdicts(t *testing.T) {
	const block, partial = 8, 5
	est := trainSmallEstimator(t, 5, 8)
	opts := options{modelPath: "model.json", classifyEvery: time.Hour, shards: 1, classifyBatch: block}
	var got []classLog
	var blockPasses, runs [2]int64
	captureStdout(t, func() {
		s, logs := newTestService(t, opts, est)
		deadline := make(chan time.Time)
		stop := startServeLoop(t, s, nil, deadline)
		feedBlockClients(s, 0, partial)
		deadline <- time.Now()
		// score counts the pass before it logs the first line.
		waitFor(t, "the deadline pass's first verdicts", func() bool { return len(classLogs(t, logs)) >= partial })
		blockPasses[0], runs[0] = s.mBlockPasses.Value(), s.mRuns.Value()
		deadline <- time.Now() // the queue is empty now
		// The loop has taken the second deadline, and stop returns only
		// after it has handled it.
		stop()
		got = classLogs(t, logs)
		blockPasses[1], runs[1] = s.mBlockPasses.Value(), s.mRuns.Value()
	})
	if len(got) != partial {
		t.Fatalf("%d classification lines, want %d (one partial block): %+v", len(got), partial, got)
	}
	for i, l := range got {
		if want := blockClient(i); l.Client != want || l.Class == "" || l.Previous != "" {
			t.Errorf("line %d is %+v, want the first verdict of %s", i, l, want)
		}
	}
	if blockPasses[0] != 1 || runs[0] != 1 {
		t.Errorf("after the first deadline: %d block passes, %d classification runs; want 1 of each", blockPasses[0], runs[0])
	}
	if blockPasses[1] != blockPasses[0] || runs[1] != runs[0] {
		t.Errorf("a deadline with no client waiting moved block passes %d -> %d, classification runs %d -> %d",
			blockPasses[0], blockPasses[1], runs[0], runs[1])
	}
}
