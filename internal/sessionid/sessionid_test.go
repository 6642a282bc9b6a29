package sessionid

import (
	"testing"

	"droppackets/internal/capture"
)

// txn is a test shorthand.
func txn(start, end float64, sni string) capture.TLSTransaction {
	return capture.TLSTransaction{Start: start, End: end, SNI: sni}
}

func TestDetectHandCraftedBoundary(t *testing.T) {
	// Session 1 uses hosts a,b; at t=100 a new session bursts onto
	// hosts c,d,e within the window.
	stream := []Transaction{
		{Start: 0, End: 40, SNI: "a"},
		{Start: 1, End: 50, SNI: "b"},
		{Start: 30, End: 80, SNI: "a"},
		{Start: 100, End: 140, SNI: "c", First: true, SessionIdx: 1},
		{Start: 100.5, End: 130, SNI: "d", SessionIdx: 1},
		{Start: 101, End: 135, SNI: "e", SessionIdx: 1},
		{Start: 160, End: 200, SNI: "c", SessionIdx: 1},
	}
	pred := Detect(stream, PaperParams)
	if !pred[3] {
		t.Error("boundary at t=100 not detected")
	}
	for i, p := range pred {
		if p && i != 3 {
			t.Errorf("false positive at index %d", i)
		}
	}
}

func TestDetectNoBurstNoBoundary(t *testing.T) {
	// Sparse transactions on rotating hosts: no two starts within the
	// window, so nothing may fire even though hosts are fresh.
	stream := []Transaction{
		{Start: 0, End: 10, SNI: "a"},
		{Start: 20, End: 30, SNI: "b"},
		{Start: 40, End: 50, SNI: "c"},
		{Start: 60, End: 70, SNI: "d"},
	}
	for i, p := range Detect(stream, PaperParams) {
		if p {
			t.Errorf("false positive at %d without a burst", i)
		}
	}
}

func TestDetectKnownHostsSuppressDelta(t *testing.T) {
	// A burst onto hosts already seen in the session must not trigger.
	stream := []Transaction{
		{Start: 0, End: 10, SNI: "a"},
		{Start: 0.5, End: 10, SNI: "b"},
		{Start: 1, End: 10, SNI: "c"},
		{Start: 50, End: 60, SNI: "a"},
		{Start: 50.5, End: 60, SNI: "b"},
		{Start: 51, End: 60, SNI: "c"},
	}
	pred := Detect(stream, PaperParams)
	for i := 3; i < 6; i++ {
		if pred[i] {
			t.Errorf("burst onto known hosts flagged new at %d", i)
		}
	}
}

func TestDetectWindowAbsorbed(t *testing.T) {
	// After a detected boundary, the windowed transactions must not
	// re-trigger (they belong to the new session).
	stream := []Transaction{
		{Start: 0, End: 5, SNI: "x"},
		{Start: 0.5, End: 5, SNI: "y"},
		{Start: 1, End: 5, SNI: "z"},
		{Start: 1.5, End: 5, SNI: "w"},
	}
	pred := Detect(stream, PaperParams)
	fired := 0
	for _, p := range pred {
		if p {
			fired++
		}
	}
	if fired > 1 {
		t.Errorf("boundary cascade: %d triggers for one burst", fired)
	}
}

func TestConcatOffsetsAndOverlap(t *testing.T) {
	s1 := []capture.TLSTransaction{
		txn(0, 130, "cdn-1"), // lingers past the 120 s session
		txn(1, 40, "api"),
	}
	s2 := []capture.TLSTransaction{
		txn(0, 50, "cdn-2"),
		txn(1, 30, "other"),
	}
	stream, _ := Concat([][]capture.TLSTransaction{s1, s2}, []float64{120, 100})
	if len(stream) != 4 {
		t.Fatalf("stream has %d txns, want 4", len(stream))
	}
	// Session 2's transactions are shifted by 120 s.
	var cdn2 *Transaction
	for i := range stream {
		if stream[i].SNI == "cdn-2" {
			cdn2 = &stream[i]
		}
	}
	if cdn2 == nil || cdn2.Start != 120 {
		t.Fatalf("cdn-2 not shifted: %+v", cdn2)
	}
	// Overlap: cdn-1 (ends 130) overlaps session 2's first transaction
	// (starts 120) — exactly the §2.2 challenge.
	firsts := 0
	for _, x := range stream {
		if x.First {
			firsts++
		}
	}
	if firsts != 2 {
		t.Errorf("%d session starts, want 2", firsts)
	}
}

func TestConcatMergesCrossSessionReuse(t *testing.T) {
	// Session 1's api connection is still open (End 140 > offset 120)
	// when session 2 contacts the same host at t=121: the device reuses
	// it, so the merged stream has one api transaction spanning both.
	s1 := []capture.TLSTransaction{txn(0, 140, "api"), txn(0.5, 30, "cdn-1")}
	s2 := []capture.TLSTransaction{txn(1, 35, "api"), txn(0, 40, "cdn-2")}
	for i, x := range [][]capture.TLSTransaction{s1, s2} {
		for j := range x {
			x[j].UpBytes, x[j].DownBytes = int64(10*i+j+1), int64(1000*(10*i+j+1))
		}
	}
	stream, bytes := Concat([][]capture.TLSTransaction{s1, s2}, []float64{120, 90})
	if len(bytes) != len(stream) {
		t.Fatalf("%d byte counts for %d transactions", len(bytes), len(stream))
	}
	apiCount := 0
	for i, x := range stream {
		if x.SNI == "api" {
			apiCount++
			if x.SessionIdx != 0 {
				t.Error("merged api txn should belong to session 0")
			}
			if x.End != 155 { // session-2 api txn [1,35] shifts to [121,155]
				t.Errorf("merged api txn End = %g, want 155", x.End)
			}
			// The reused connection carries both sessions' api bytes.
			if want := (Bytes{Up: 1 + 11, Down: 1000 + 11000}); bytes[i] != want {
				t.Errorf("merged api txn bytes = %+v, want %+v", bytes[i], want)
			}
		}
	}
	if apiCount != 1 {
		t.Errorf("api transactions after merge: %d, want 1", apiCount)
	}
	// Session 2's first transaction is now its cdn-2 connection.
	for _, x := range stream {
		if x.SessionIdx == 1 && x.First && x.SNI != "cdn-2" {
			t.Errorf("session 2 first txn is %s, want cdn-2", x.SNI)
		}
	}
}

func TestConcatNoMergeWithinSession(t *testing.T) {
	// Two overlapping connections to the same host within ONE session
	// are distinct sockets and must not merge.
	s1 := []capture.TLSTransaction{txn(0, 50, "cdn-1"), txn(10, 60, "cdn-1")}
	stream, _ := Concat([][]capture.TLSTransaction{s1}, []float64{100})
	if len(stream) != 2 {
		t.Errorf("within-session merge happened: %d txns", len(stream))
	}
}

func TestEvaluateAndRecovered(t *testing.T) {
	stream := []Transaction{
		{Start: 0, End: 10, SNI: "a", First: true},
		{Start: 0.5, End: 10, SNI: "b"},
		{Start: 1, End: 10, SNI: "c"},
		{Start: 100, End: 110, SNI: "d", First: true, SessionIdx: 1},
		{Start: 100.5, End: 110, SNI: "e", SessionIdx: 1},
		{Start: 101, End: 110, SNI: "f", SessionIdx: 1},
	}
	conf := Evaluate(stream, PaperParams)
	if conf.Total() != 6 {
		t.Errorf("evaluated %d txns", conf.Total())
	}
	correct, total := SessionsRecovered(stream, PaperParams)
	if total != 2 {
		t.Errorf("total sessions %d, want 2", total)
	}
	if correct != 2 {
		t.Errorf("recovered %d/2", correct)
	}
}

func TestDetectParamsSensitivity(t *testing.T) {
	// A 2-transaction burst passes Nmin=1 but not Nmin=3.
	stream := []Transaction{
		{Start: 0, End: 5, SNI: "a"},
		{Start: 50, End: 60, SNI: "b", First: true, SessionIdx: 1},
		{Start: 50.5, End: 60, SNI: "c", SessionIdx: 1},
		{Start: 51, End: 60, SNI: "d", SessionIdx: 1},
	}
	loose := Params{WindowSec: 3, MinCount: 1, MinNewFrac: 0.5}
	strict := Params{WindowSec: 3, MinCount: 3, MinNewFrac: 0.5}
	if got := Detect(stream, loose); !got[1] {
		t.Error("loose params missed the boundary")
	}
	if got := Detect(stream, strict); got[1] {
		t.Error("strict params should require 3 followers")
	}
	// Wider window captures later transactions.
	wide := Params{WindowSec: 60, MinCount: 3, MinNewFrac: 0.5}
	if got := Detect(stream, wide); !got[0] {
		t.Error("60 s window should see 3 fresh-host followers from txn 0")
	}
}

func TestTimeoutDetectFailsOnOverlap(t *testing.T) {
	// Lingering connection spans the boundary: no idle gap, so the
	// timeout baseline sees one session.
	stream := []Transaction{
		{Start: 0, End: 130, SNI: "cdn-1", First: true},
		{Start: 1, End: 40, SNI: "api"},
		{Start: 120, End: 160, SNI: "cdn-2", First: true, SessionIdx: 1},
		{Start: 121, End: 150, SNI: "api", SessionIdx: 1},
	}
	pred := TimeoutDetect(stream, 10)
	if !pred[0] {
		t.Error("first transaction should always open a session")
	}
	if pred[2] {
		t.Error("timeout baseline detected a boundary under an overlapping connection")
	}
	correct, total := Recovered(stream, pred)
	if correct != 1 || total != 2 {
		t.Errorf("recovered %d/%d, want 1/2", correct, total)
	}
}

func TestTimeoutDetectFindsRealGaps(t *testing.T) {
	// With a genuine idle gap the baseline works — the paper's point is
	// that such gaps do not exist for back-to-back TLS traffic.
	stream := []Transaction{
		{Start: 0, End: 50, SNI: "a", First: true},
		{Start: 100, End: 150, SNI: "b", First: true, SessionIdx: 1},
	}
	pred := TimeoutDetect(stream, 30)
	if !pred[0] || !pred[1] {
		t.Errorf("gap of 50s with 30s timeout should split: %v", pred)
	}
}
