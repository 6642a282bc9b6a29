// Package gbdt implements multiclass gradient-boosted decision trees
// with a softmax objective (an XGBoost-style model, one of the families
// the paper evaluated, §4.2): each boosting round fits one shallow
// regression tree per class to the softmax residuals.
package gbdt

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"droppackets/internal/ml"
	"droppackets/internal/ml/tree"
)

// Config controls boosting.
type Config struct {
	// Rounds is the number of boosting iterations (default 60).
	Rounds int
	// LearningRate shrinks each tree's contribution (default 0.1).
	LearningRate float64
	// MaxDepth limits each regression tree (default 3).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 5).
	MinLeaf int
	// Subsample is the per-round row sampling fraction (default 0.8).
	Subsample float64
	// Seed drives row subsampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 60
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 0.8
	}
	return c
}

// Classifier is a fitted boosted ensemble.
type Classifier struct {
	Config Config

	numClasses int
	base       []float64           // initial log-odds per class
	rounds     [][]*tree.Regressor // rounds[r][class]
}

// New returns an unfitted booster.
func New(cfg Config) *Classifier { return &Classifier{Config: cfg} }

// Name implements ml.Classifier.
func (c *Classifier) Name() string { return "gbdt" }

// Fit implements ml.Classifier.
func (c *Classifier) Fit(ds *ml.Dataset) error {
	if ds.Len() == 0 {
		return fmt.Errorf("gbdt: empty dataset")
	}
	cfg := c.Config.withDefaults()
	c.Config = cfg
	c.numClasses = ds.NumClasses
	n := ds.Len()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Initial scores: class log-priors.
	counts := ds.ClassCounts()
	c.base = make([]float64, c.numClasses)
	for k, cnt := range counts {
		p := float64(cnt) / float64(n)
		if p < 1e-9 {
			p = 1e-9
		}
		c.base[k] = math.Log(p)
	}
	// scores[i][k] is the current margin of row i for class k.
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = append([]float64(nil), c.base...)
	}
	residual := make([]float64, n)
	c.rounds = make([][]*tree.Regressor, 0, cfg.Rounds)
	// One growth-buffer arena reused by every boosting round.
	scratch := tree.NewScratch()
	for r := 0; r < cfg.Rounds; r++ {
		// Row subsample for this round.
		sample := rng.Perm(n)[:int(float64(n)*cfg.Subsample)]
		if len(sample) == 0 {
			sample = []int{rng.Intn(n)}
		}
		xs := make([][]float64, len(sample))
		for i, row := range sample {
			xs[i] = ds.X[row]
		}
		perClass := make([]*tree.Regressor, c.numClasses)
		for k := 0; k < c.numClasses; k++ {
			for i, row := range sample {
				p := softmaxAt(scores[row], k)
				target := 0.0
				if ds.Y[row] == k {
					target = 1
				}
				residual[i] = target - p
			}
			reg := &tree.Regressor{
				Config: tree.Config{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf},
				Seed:   rng.Int63(),
			}
			if err := reg.FitXYWith(xs, residual[:len(sample)], scratch); err != nil {
				return fmt.Errorf("gbdt: round %d class %d: %w", r, k, err)
			}
			perClass[k] = reg
		}
		// Update all rows' scores with the shrunken tree outputs.
		for i := 0; i < n; i++ {
			for k := 0; k < c.numClasses; k++ {
				scores[i][k] += cfg.LearningRate * perClass[k].Predict(ds.X[i])
			}
		}
		c.rounds = append(c.rounds, perClass)
	}
	return nil
}

// softmaxAt returns softmax(scores)[k], computed stably.
func softmaxAt(scores []float64, k int) float64 {
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	var z float64
	for _, s := range scores {
		z += math.Exp(s - maxS)
	}
	return math.Exp(scores[k]-maxS) / z
}

// Predict implements ml.Classifier.
func (c *Classifier) Predict(x []float64) int {
	scores := append([]float64(nil), c.base...)
	return c.predictInto(x, scores)
}

// predictInto scores one row into the caller's buffer (pre-loaded or
// reloaded here with the base scores) and returns the argmax.
func (c *Classifier) predictInto(x []float64, scores []float64) int {
	copy(scores, c.base)
	for _, perClass := range c.rounds {
		for k, reg := range perClass {
			scores[k] += c.Config.LearningRate * reg.Predict(x)
		}
	}
	return ml.Argmax(scores)
}

// NumClasses returns the number of classes the fitted booster
// discriminates.
func (c *Classifier) NumClasses() int { return c.numClasses }

// PredictBatch implements ml.BatchPredictor: rows fan out across
// GOMAXPROCS workers with one score buffer each. Results are identical
// to calling Predict per row.
func (c *Classifier) PredictBatch(x [][]float64) []int {
	out := make([]int, len(x))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(x) {
		workers = len(x)
	}
	if workers <= 1 {
		scores := make([]float64, c.numClasses)
		for i, row := range x {
			out[i] = c.predictInto(row, scores)
		}
		return out
	}
	chunk := (len(x) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(x) {
			hi = len(x)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scores := make([]float64, c.numClasses)
			for i := lo; i < hi; i++ {
				out[i] = c.predictInto(x[i], scores)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
