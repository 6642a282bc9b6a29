// Package tree implements CART decision trees: Gini-impurity
// classification trees (the unit of the Random Forest) and
// variance-reduction regression trees (the unit of gradient boosting).
//
// Trees are grown by the presorted-column engine (engine.go): columns
// are sorted once per fit and every node's split search is a linear
// sweep, with all working buffers reusable across fits via Scratch.
// Fitted trees are stored as flat structure-of-arrays node tables and
// predicted with an iterative, cache-friendly walk.
package tree

import (
	"fmt"
	"math/rand"

	"droppackets/internal/ml"
)

// Config controls tree growth.
type Config struct {
	// MaxDepth limits tree height; <= 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum samples in a leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of candidate features examined per
	// split; <= 0 examines all (forest sets this to sqrt of the width).
	MaxFeatures int
}

func (c Config) minLeaf() int {
	if c.MinLeaf < 1 {
		return 1
	}
	return c.MinLeaf
}

// Classifier is a single CART classification tree.
type Classifier struct {
	Config Config
	// Seed drives feature subsampling; irrelevant when MaxFeatures <= 0.
	Seed int64

	nodes      soa
	numClasses int
	// importances accumulates the weighted Gini decrease per feature.
	importances []float64
}

// Name implements ml.Classifier.
func (t *Classifier) Name() string { return "decision-tree" }

// Fit implements ml.Classifier.
func (t *Classifier) Fit(ds *ml.Dataset) error {
	if ds.Len() == 0 {
		return fmt.Errorf("tree: empty dataset")
	}
	rows := make([]int, ds.Len())
	for i := range rows {
		rows[i] = i
	}
	return t.FitRowsWith(ds, rows, nil)
}

// FitRows trains on a row subset (used for bootstrap samples) without
// copying the design matrix.
func (t *Classifier) FitRows(ds *ml.Dataset, rows []int) error {
	return t.FitRowsWith(ds, rows, nil)
}

// FitRowsWith trains on a row subset reusing the growth buffers in
// scratch (nil allocates a private one). Callers fitting many trees —
// forest workers, boosting rounds — pass one Scratch per goroutine so
// steady-state growth does not allocate.
func (t *Classifier) FitRowsWith(ds *ml.Dataset, rows []int, scratch *Scratch) error {
	if len(rows) == 0 {
		return fmt.Errorf("tree: empty row set")
	}
	if scratch == nil {
		scratch = NewScratch()
	}
	t.numClasses = ds.NumClasses
	t.importances = make([]float64, ds.NumFeatures())
	t.nodes = soa{}

	e := &scratch.e
	e.minLeaf = t.Config.minLeaf()
	e.maxDepth = t.Config.MaxDepth
	e.maxFeatures = t.Config.MaxFeatures
	e.rng = rand.New(rand.NewSource(t.Seed))
	e.prepareClassification(ds, rows)
	e.out = &t.nodes
	e.importances = t.importances
	e.total = float64(len(rows))
	e.growClassifier(len(rows))
	e.out, e.importances, e.rng = nil, nil, nil
	return nil
}

// Predict implements ml.Classifier.
func (t *Classifier) Predict(x []float64) int {
	return ml.Argmax(t.LeafDist(x))
}

// PredictProba returns the training class distribution of the leaf x
// lands in, as a fresh slice the caller owns. Hot loops that must not
// allocate use LeafDist or PredictProbaInto instead.
func (t *Classifier) PredictProba(x []float64) []float64 {
	return t.PredictProbaInto(x, nil)
}

// PredictProbaInto copies the leaf class distribution for x into out,
// reusing out's backing array when it has capacity. It never allocates
// with a warm buffer.
func (t *Classifier) PredictProbaInto(x []float64, out []float64) []float64 {
	d := t.LeafDist(x)
	if cap(out) < len(d) {
		out = make([]float64, len(d))
	} else {
		out = out[:len(d)]
	}
	copy(out, d)
	return out
}

// LeafDist returns the training class distribution of the leaf x lands
// in as a read-only view of the tree's node storage: zero allocations,
// valid until the tree is refitted, and must not be modified. Ensemble
// averaging (forest voting, compilation) reads leaves through it.
func (t *Classifier) LeafDist(x []float64) []float64 {
	leaf := t.nodes.leafFor(x)
	off := t.nodes.distOff[leaf]
	return t.nodes.dist[off : off+int32(t.numClasses) : off+int32(t.numClasses)]
}

// NumClasses returns the number of classes the fitted tree
// discriminates (the width of every leaf distribution).
func (t *Classifier) NumClasses() int { return t.numClasses }

// Importances returns the (unnormalised) per-feature total impurity
// decrease observed during training.
func (t *Classifier) Importances() []float64 {
	out := make([]float64, len(t.importances))
	copy(out, t.importances)
	return out
}

// Depth returns the height of the fitted tree.
func (t *Classifier) Depth() int {
	if t.nodes.empty() {
		return 0
	}
	return t.nodes.depth(0)
}
