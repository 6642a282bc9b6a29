package core

import (
	"fmt"

	"droppackets/internal/capture"
	"droppackets/internal/features"
	"droppackets/internal/qoe"
)

// TrackedSession is the incremental classify handle for one ongoing
// session: an online feature accumulator and nothing else — the buffers
// a read needs live in the RowBuilder doing the reading, so a service
// holding a session per client pays only for session state. The owner
// feeds it committed transactions as they arrive (Observe) and can read
// the session's feature row at any moment (TrackedRow) — optionally
// folding in not-yet-committed transactions speculatively — at a cost
// independent of the session length. cmd/qoeproxy rescans the session
// instead (a typical session is about ten transactions); the benchmark
// ledger's layer breakdown still composes this path. A TrackedSession
// is not safe for concurrent use.
type TrackedSession struct {
	acc *features.Accumulator
}

// NewTrackedSession returns an empty tracked session over the paper's
// default temporal grid.
func NewTrackedSession() *TrackedSession {
	return &TrackedSession{acc: features.NewAccumulator()}
}

// Observe folds one committed transaction into the session's feature
// state. Transactions must be observed in the order a batch extraction
// would see them (start order) for vectors to be bit-identical to the
// batch path.
func (ts *TrackedSession) Observe(t capture.TLSTransaction) { ts.acc.Ingest(t) }

// ObserveAll folds a run of committed transactions, in order.
func (ts *TrackedSession) ObserveAll(txns []capture.TLSTransaction) {
	for _, t := range txns {
		ts.acc.Ingest(t)
	}
}

// Reset clears the session state for reuse on the next session,
// keeping buffer capacity.
func (ts *TrackedSession) Reset() { ts.acc.Reset() }

// Len reports how many committed transactions the session holds.
func (ts *TrackedSession) Len() int { return ts.acc.Len() }

// Transactions exposes the committed transactions in observation
// order; the slice is internal storage — read-only, valid until the
// next Observe or Reset.
func (ts *TrackedSession) Transactions() []capture.TLSTransaction { return ts.acc.Transactions() }

// projectInto copies the configured feature subset out of a full
// vector into row, reusing row's backing array when it has capacity.
func (e *Estimator) projectInto(row, full []float64) []float64 {
	if cap(row) < len(e.cols) {
		row = make([]float64, len(e.cols))
	} else {
		row = row[:len(e.cols)]
	}
	for i, c := range e.cols {
		row[i] = full[c]
	}
	return row
}

// TrackedRow materializes the estimator's feature row for a tracked
// session, speculatively including pending transactions through the
// accumulator's read-only overlay (committed state is never touched,
// and the cost is proportional to len(pending), not session length).
// The result reuses row's backing array when possible and is
// bit-identical to extracting the committed plus pending transactions
// in one batch. Like FeatureRow it reads through the estimator's shared
// RowBuilder, so it is not safe for concurrent use with itself on the
// same Estimator; use NewRowBuilder for per-goroutine reads.
func (e *Estimator) TrackedRow(ts *TrackedSession, pending []capture.TLSTransaction, row []float64) []float64 {
	return e.sharedBuilder().TrackedRow(ts, pending, row)
}

// NumFeatures returns the width of the estimator's feature rows (the
// configured subset of the paper's TLS features) — the stride of the
// row-major blocks ClassifyBlockInto consumes.
func (e *Estimator) NumFeatures() int { return len(e.cols) }

// NumClasses returns the number of QoE classes the estimator
// discriminates.
func (e *Estimator) NumClasses() int { return qoe.NumCategories }

// ClassifyBlockInto predicts classes for a contiguous row-major block
// of pre-extracted feature rows: block holds n rows of NumFeatures
// floats each, packed back to back. probs is caller scratch of at
// least n*NumClasses floats; out receives the class of row r at
// out[r]. It allocates nothing and the results are bit-identical to
// calling Classify per row — the sharded classify tick in cmd/qoeproxy
// gathers each shard's pending rows into one block and sweeps them
// here in a single call.
func (e *Estimator) ClassifyBlockInto(block []float64, n int, probs []float64, out []int) error {
	if !e.trained {
		return fmt.Errorf("core: estimator not trained")
	}
	stride := len(e.cols)
	if len(block) != n*stride {
		return fmt.Errorf("core: block holds %d floats, want %d rows x %d features", len(block), n, stride)
	}
	e.scorer.PredictBatchInto(block, stride, probs, out)
	return nil
}

// RowBuilder builds feature rows through private scratch: the batch
// extractor FeatureRow runs, the overlay TrackedRow reads through, and
// the full-vector buffer both project from. The estimator's own
// FeatureRow and TrackedRow share one builder, so concurrent readers —
// the sharded classify pool in cmd/qoeproxy — hold one RowBuilder per
// worker goroutine instead. A RowBuilder is not safe for concurrent
// use with itself; distinct builders over the same estimator are
// independent (they only read the estimator's feature projection).
type RowBuilder struct {
	e       *Estimator
	scratch *features.Scratch
	overlay features.Overlay
	full    []float64
}

// NewRowBuilder returns a fresh extraction scratch bound to the
// estimator's feature subset.
func (e *Estimator) NewRowBuilder() *RowBuilder {
	return &RowBuilder{e: e, scratch: features.NewScratch()}
}

// FeatureRow extracts a session's feature row, bit-identical to the
// row Train and Classify compute. The result reuses row's backing
// array when possible.
func (b *RowBuilder) FeatureRow(txns []capture.TLSTransaction, row []float64) []float64 {
	b.full = b.scratch.FromTLSInto(b.full, txns, features.TemporalIntervals)
	return b.e.projectInto(row, b.full)
}

// TrackedRow is Estimator.TrackedRow through this builder's scratch.
func (b *RowBuilder) TrackedRow(ts *TrackedSession, pending []capture.TLSTransaction, row []float64) []float64 {
	b.full = ts.acc.VectorWithPending(&b.overlay, b.full, pending)
	return b.e.projectInto(row, b.full)
}

// sharedBuilder returns the estimator's own lazily built RowBuilder.
func (e *Estimator) sharedBuilder() *RowBuilder {
	if e.rb == nil {
		e.rb = e.NewRowBuilder()
	}
	return e.rb
}

// FeatureRow extracts a session's feature row through the estimator's
// reusable batch scratch, bit-identical to the row Train and Classify
// compute. The result reuses row's backing array when possible. Not
// safe for concurrent use with itself on the same Estimator; use
// NewRowBuilder for per-goroutine extraction.
func (e *Estimator) FeatureRow(txns []capture.TLSTransaction, row []float64) []float64 {
	return e.sharedBuilder().FeatureRow(txns, row)
}
