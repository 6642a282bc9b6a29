package serve

import (
	"fmt"
	"sync"

	"droppackets/internal/core"
	"droppackets/internal/stats"
)

// Model is a serving bundle, built by Shards.NewModel for those shards:
// the primary estimator, whose classes a Pass stores and Evict and
// Drain report; an optional challenger, swept over the same rows into
// PassStats only; a drift tracker when the primary has a training
// baseline; the stamp a Core marks scored clients with; and one row
// builder per classify worker.
type Model struct {
	est, shadow *core.Estimator
	drift       *Drift
	stamp       uint64
	rbs         []*core.RowBuilder
}

// NewModel builds a Model around primary, trained or not (a sweep
// through an untrained one fails), and an optional challenger shadow of
// the same metric and feature subset. Each Model gets the next stamp,
// so serving it re-scores every client once.
func (s *Shards) NewModel(primary, shadow *core.Estimator) (*Model, error) {
	if shadow != nil {
		if shadow.Metric() != primary.Metric() {
			return nil, fmt.Errorf("shadow model targets metric %d, primary targets %d", shadow.Metric(), primary.Metric())
		}
		if shadow.Subset() != primary.Subset() || shadow.NumFeatures() != primary.NumFeatures() {
			return nil, fmt.Errorf("shadow model uses feature subset %d (%d features), primary uses %d (%d)",
				shadow.Subset(), shadow.NumFeatures(), primary.Subset(), primary.NumFeatures())
		}
	}
	m := &Model{est: primary, shadow: shadow, stamp: s.stamps.Add(1), rbs: make([]*core.RowBuilder, s.workers)}
	for w := range m.rbs {
		m.rbs[w] = primary.NewRowBuilder()
	}
	if means, stds := primary.Baseline(); means != nil {
		m.drift = &Drift{names: primary.FeatureNames(), baseMean: means, baseStd: stds, obs: make([]stats.Running, len(means))}
	}
	return m, nil
}

// Restamp returns m under the next stamp, sharing everything else, so
// serving it re-scores every client once without building a Model.
func (s *Shards) Restamp(m *Model) *Model {
	cp := *m
	cp.stamp = s.stamps.Add(1)
	return &cp
}

// Primary is the estimator whose classes the shards store.
func (m *Model) Primary() *core.Estimator { return m.est }

// Shadow is the challenger, nil without one.
func (m *Model) Shadow() *core.Estimator { return m.shadow }

// Stamp is what a client scored under m carries as
// ClientState.ScoredBy; no Model has stamp 0.
func (m *Model) Stamp() uint64 { return m.stamp }

// Drift is the drift tracker, nil when the primary has no baseline.
func (m *Model) Drift() *Drift { return m.drift }

// Drift compares the per-feature means of every row a Pass scores with
// the primary's training baseline. Workers fold whole blocks under mu.
type Drift struct {
	mu       sync.Mutex
	names    []string // subset-space feature names
	baseMean []float64
	baseStd  []float64
	obs      []stats.Running
}

// observe folds n row-major rows of the given stride into the
// per-feature accumulators.
func (d *Drift) observe(block []float64, n, stride int) {
	d.mu.Lock()
	for r := 0; r < n; r++ {
		row := block[r*stride : (r+1)*stride]
		for j := range row {
			d.obs[j].Observe(row[j])
		}
	}
	d.mu.Unlock()
}

// ZScores returns each feature's name and (observed mean − baseline
// mean) / baseline std. A feature with a zero-variance baseline reads 0
// rather than ±Inf, and so does one with no observations yet.
func (d *Drift) ZScores() ([]string, []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	zs := make([]float64, len(d.names))
	for j := range d.names {
		if d.obs[j].N() == 0 || d.baseStd[j] <= 0 {
			continue
		}
		zs[j] = (d.obs[j].Mean() - d.baseMean[j]) / d.baseStd[j]
	}
	return d.names, zs
}

// classify scores the shard's gathered block through m: the primary's
// classes into sh.classes, counted by class; the challenger's, compared
// row by row, into the disagreement cells; the rows into the drift
// tracker.
func (sh *shard) classify(m *Model, batch int) (err error) {
	if sh.classes, err = sh.infer(m.est, batch, sh.classes); err != nil {
		return err
	}
	for _, c := range sh.classes {
		sh.scored[c]++
	}
	if m.shadow != nil {
		if sh.challenger, sh.shadowErr = sh.infer(m.shadow, batch, sh.challenger); sh.shadowErr == nil {
			for i, p := range sh.classes {
				if c := sh.challenger[i]; c != p {
					sh.disagree[p][c]++
				}
			}
		}
	}
	if m.drift != nil {
		m.drift.observe(sh.block, sh.rows, m.est.NumFeatures())
	}
	return nil
}

// infer scores the shard's sh.rows row-major rows in sh.block through
// est, batch rows per inference call with sh.probs as the probability
// scratch, and returns the classes in out's backing array (grown when
// short), one per row.
func (sh *shard) infer(est *core.Estimator, batch int, out []int) ([]int, error) {
	stride, nc, rows := est.NumFeatures(), est.NumClasses(), sh.rows
	if cap(out) < rows {
		out = make([]int, rows)
	}
	out = out[:rows]
	if cap(sh.probs) < batch*nc {
		sh.probs = make([]float64, batch*nc)
	}
	for lo := 0; lo < rows; lo += batch {
		hi := min(lo+batch, rows)
		if err := est.ClassifyBlockInto(sh.block[lo*stride:hi*stride], hi-lo, sh.probs[:(hi-lo)*nc], out[lo:hi]); err != nil {
			return out, err
		}
	}
	return out, nil
}
