package core

import (
	"fmt"
	"math"
	"testing"

	"droppackets/internal/capture"
	"droppackets/internal/ml"
	"droppackets/internal/sessionid"
)

func rowBitsEqual(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length mismatch got %d want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: feature %d differs: got %v want %v", ctx, i, got[i], want[i])
		}
	}
}

// TestTrackedRowMatchesBatch proves the incremental classify row —
// with and without speculative pending transactions — is bit-identical
// to the batch featuresFor row Train and Classify use.
func TestTrackedRowMatchesBatch(t *testing.T) {
	sessions := trainingData(t, 40)
	est := newEstimator()

	for si, s := range sessions[:10] {
		txns := s.TLS
		if len(txns) < 2 {
			continue
		}
		cut := len(txns) / 2
		ts := NewTrackedSession()
		ts.ObserveAll(txns[:cut])
		if ts.Len() != cut {
			t.Fatalf("Len = %d, want %d", ts.Len(), cut)
		}

		// Committed-only row.
		var row []float64
		row = est.TrackedRow(ts, nil, row)
		rowBitsEqual(t, "committed", row, est.featuresFor(txns[:cut]))

		// Speculative row over the full session; session state must
		// survive untouched.
		row = est.TrackedRow(ts, txns[cut:], row)
		rowBitsEqual(t, "speculative", row, est.featuresFor(txns))
		if ts.Len() != cut {
			t.Fatalf("session %d: speculative classify leaked state: Len = %d, want %d", si, ts.Len(), cut)
		}
		row = est.TrackedRow(ts, nil, row)
		rowBitsEqual(t, "committed after rollback", row, est.featuresFor(txns[:cut]))

		// Catch up and compare the fully-committed row.
		ts.ObserveAll(txns[cut:])
		row = est.TrackedRow(ts, nil, row)
		rowBitsEqual(t, "fully committed", row, est.featuresFor(txns))

		// Reset reuses the handle for the next session.
		ts.Reset()
		if ts.Len() != 0 || len(ts.Transactions()) != 0 {
			t.Fatal("Reset left state behind")
		}
	}
}

// TestClassifyBlockIntoMatchesClassify checks the zero-alloc row-major
// block sweep against the per-session path: same classes, untrained
// and size-mismatch errors, and no allocations with caller buffers.
func TestClassifyBlockIntoMatchesClassify(t *testing.T) {
	sessions := trainingData(t, 120)
	est := newEstimator()

	if err := est.ClassifyBlockInto(nil, 0, nil, nil); err == nil {
		t.Error("untrained estimator classified a block")
	}
	if err := est.Train(sessions); err != nil {
		t.Fatal(err)
	}
	stride := est.NumFeatures()
	nc := est.NumClasses()
	if stride == 0 || nc == 0 {
		t.Fatalf("NumFeatures = %d, NumClasses = %d", stride, nc)
	}

	n := 15
	block := make([]float64, n*stride)
	want := make([]int, n)
	for i, s := range sessions[:n] {
		copy(block[i*stride:(i+1)*stride], est.featuresFor(s.TLS))
		c, err := est.Classify(s.TLS)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}

	probs := make([]float64, n*nc)
	out := make([]int, n)
	if err := est.ClassifyBlockInto(block, n, probs, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("ClassifyBlockInto[%d] = %d, Classify = %d", i, out[i], want[i])
		}
	}

	if err := est.ClassifyBlockInto(block, n+1, probs, out); err == nil {
		t.Error("size-mismatched block accepted")
	}

	if got := testing.AllocsPerRun(20, func() {
		est.ClassifyBlockInto(block, n, probs, out)
	}); got != 0 {
		t.Errorf("ClassifyBlockInto allocates %v per run, want 0", got)
	}
}

// TestFeatureRowMatchesBatch checks the windowed-path extraction reuses
// buffers without changing bits.
func TestFeatureRowMatchesBatch(t *testing.T) {
	sessions := trainingData(t, 30)
	est := newEstimator()
	var row []float64
	for _, s := range sessions[:10] {
		row = est.FeatureRow(s.TLS, row)
		rowBitsEqual(t, "feature row", row, est.featuresFor(s.TLS))
	}
	row = est.FeatureRow(nil, row)
	rowBitsEqual(t, "empty feature row", row, est.featuresFor(nil))
}

// TestClassifySessionsMatchesClassifyProba scores a back-to-back stream
// cut by sessionid.Split in one block and checks every verdict against
// ClassifyProba on the session alone, bit for bit.
func TestClassifySessionsMatchesClassifyProba(t *testing.T) {
	sessions := trainingData(t, 120)
	est := newEstimator()
	if _, err := est.ClassifySessions(nil); err == nil {
		t.Error("untrained estimator classified sessions")
	}
	if err := est.Train(sessions); err != nil {
		t.Fatal(err)
	}
	var stream []capture.TLSTransaction
	offset := 0.0
	for _, s := range sessions[:12] {
		for _, x := range s.TLS {
			x.Start += offset
			x.End += offset
			stream = append(stream, x)
		}
		offset = stream[len(stream)-1].End + 1
	}
	split := sessionid.Split(stream, sessionid.PaperParams)
	if len(split) < 2 {
		t.Fatalf("the stream split into %d sessions", len(split))
	}
	got, err := est.ClassifySessions(split)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(split) {
		t.Fatalf("%d verdicts for %d sessions", len(got), len(split))
	}
	for i, s := range split {
		want, err := est.ClassifyProba(s.Txns)
		if err != nil {
			t.Fatal(err)
		}
		rowBitsEqual(t, fmt.Sprintf("session %d", i), got[i].Probs, want)
		if got[i].Class != ml.Argmax(want) {
			t.Errorf("session %d: class %d, ClassifyProba's argmax %d", i, got[i].Class, ml.Argmax(want))
		}
	}
}
