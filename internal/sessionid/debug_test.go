package sessionid

import (
	"testing"

	"droppackets/internal/capture"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
)

// TestDebugBoundary prints the transaction stream around session
// boundaries for manual inspection of the heuristic's inputs.
func TestDebugBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("debug aid")
	}
	p := has.Svc1()
	cfg := dataset.Config{Seed: 99, Sessions: 4}
	var sessions [][]capture.TLSTransaction
	var durations []float64
	for i := 0; i < 4; i++ {
		rec, err := dataset.GenerateSession(cfg, p, i)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, rec.Capture.TLS)
		durations = append(durations, rec.DurationSec)
	}
	stream, _ := Concat(sessions, durations)
	pred := Detect(stream, PaperParams)
	seen := map[string]bool{}
	for i, x := range stream {
		n := 0
		unseen := 0
		for j := i + 1; j < len(stream) && stream[j].Start-x.Start <= PaperParams.WindowSec; j++ {
			n++
			if !seen[stream[j].SNI] {
				unseen++
			}
		}
		mark := " "
		if x.First {
			mark = "F"
		}
		pm := " "
		if pred[i] {
			pm = "P"
		}
		t.Logf("%s%s sess=%d t=%8.2f..%8.2f N=%d unseen=%d %s", mark, pm, x.SessionIdx, x.Start, x.End, n, unseen, x.SNI)
		if pred[i] {
			seen = map[string]bool{}
		}
		seen[x.SNI] = true
	}
}
