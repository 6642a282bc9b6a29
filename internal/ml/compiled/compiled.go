// Package compiled flattens fitted random forests into contiguous
// structure-of-arrays scorers for the serving hot path. A compiled
// model holds every tree of the ensemble in one shared set of arrays —
// split feature, threshold, absolute left/right child indices as int32,
// and one pooled leaf-distribution block — so inference is an index
// walk over a few cache-resident slices with no *node chasing and no
// per-row allocation. Predictions are bit-identical to the interpreted
// ensemble: the accumulation order of the interpreted path (tree by
// tree, class by class, divide once at the end) is replicated exactly.
//
// Compile once after fitting or loading; the compiled scorer copies
// what it needs and stays valid even if the source ensemble is refitted.
package compiled

import (
	"fmt"
	"runtime"
	"sync"

	"droppackets/internal/ml"
	"droppackets/internal/ml/forest"
	"droppackets/internal/ml/tree"
)

// Forest is a Random Forest compiled into flat arrays. The zero value
// is unusable; build one with CompileForest.
type Forest struct {
	numClasses int
	numTrees   int
	// roots[t] is tree t's root index into the shared node arrays.
	roots []int32
	// feature holds the split feature per node, -1 for leaves.
	feature   []int32
	threshold []float64
	// left and right hold absolute (rebased) child node indices.
	left  []int32
	right []int32
	// leaf[i] is the offset of leaf i's class distribution in dist
	// (-1 for internal nodes).
	leaf []int32
	// dist pools every leaf distribution of every tree, numClasses
	// wide each.
	dist []float64
	// bb is the branch-free batch walk layout built at compile time
	// for the multi-row sweeps in batch.go.
	bb *batchLayout
}

// CompileForest flattens a fitted forest into a Forest scorer. It
// errors on a nil or unfitted ensemble and on structurally invalid
// trees (out-of-order or out-of-range children, truncated leaf
// distributions) so a corrupted model fails at load time, not inside
// the serving loop.
func CompileForest(f *forest.Classifier) (*Forest, error) {
	if f == nil || f.NumTrees() == 0 {
		return nil, fmt.Errorf("compiled: forest is nil or unfitted")
	}
	nc := f.NumClasses()
	if nc <= 0 {
		return nil, fmt.Errorf("compiled: forest has no classes")
	}
	c := &Forest{
		numClasses: nc,
		numTrees:   f.NumTrees(),
		roots:      make([]int32, 0, f.NumTrees()),
	}
	for ti := 0; ti < f.NumTrees(); ti++ {
		t := f.Tree(ti)
		if t.NumClasses() != nc {
			return nil, fmt.Errorf("compiled: tree %d has %d classes, forest has %d", ti, t.NumClasses(), nc)
		}
		v := t.FlatView()
		base, err := c.appendTree(v, func(node int) (int32, error) {
			off := v.DistOff[node]
			if off < 0 || int(off)+nc > len(v.Dist) {
				return 0, fmt.Errorf("leaf %d: distribution offset %d out of range", node, off)
			}
			pooled := int32(len(c.dist))
			c.dist = append(c.dist, v.Dist[off:int(off)+nc]...)
			return pooled, nil
		})
		if err != nil {
			return nil, fmt.Errorf("compiled: tree %d: %w", ti, err)
		}
		c.roots = append(c.roots, base)
	}
	c.bb = buildBatchLayout(c.feature, c.threshold, c.left, c.right, c.roots, c.leaf)
	return c, nil
}

// appendTree rebases one tree's flat view onto the shared arrays and
// returns the new root index. leafPayload maps a source leaf node to
// the value stored in c.leaf (its pooled dist offset). The growth engine always emits children after their
// parent, so child > parent is required — it guarantees every walk
// terminates even on a hostile model file.
func (c *Forest) appendTree(v tree.FlatView, leafPayload func(node int) (int32, error)) (int32, error) {
	n := v.Len()
	if n == 0 {
		return 0, fmt.Errorf("empty tree")
	}
	base := int32(len(c.feature))
	for i := 0; i < n; i++ {
		f := v.Feature[i]
		if f < 0 {
			payload, err := leafPayload(i)
			if err != nil {
				return 0, err
			}
			c.feature = append(c.feature, -1)
			c.threshold = append(c.threshold, 0)
			c.left = append(c.left, -1)
			c.right = append(c.right, -1)
			c.leaf = append(c.leaf, payload)
			continue
		}
		l, r := v.Left[i], v.Right[i]
		if l <= int32(i) || l >= int32(n) || r <= int32(i) || r >= int32(n) {
			return 0, fmt.Errorf("node %d: children %d/%d out of order or range", i, l, r)
		}
		c.feature = append(c.feature, f)
		c.threshold = append(c.threshold, v.Threshold[i])
		c.left = append(c.left, base+l)
		c.right = append(c.right, base+r)
		c.leaf = append(c.leaf, -1)
	}
	return base, nil
}

// NumClasses returns the number of classes the compiled forest
// discriminates.
func (c *Forest) NumClasses() int { return c.numClasses }

// NumTrees returns the ensemble size.
func (c *Forest) NumTrees() int { return c.numTrees }

// leafOf walks one tree from root and returns the pooled distribution
// offset of the leaf x lands in. The node columns are hoisted into
// locals so stores into the caller's output buffer — which the
// compiler must assume may alias the receiver's fields — cannot force
// slice-header reloads inside the walk.
func (c *Forest) leafOf(root int32, x []float64) int32 {
	feature, threshold, left, right := c.feature, c.threshold, c.left, c.right
	i := root
	for {
		f := feature[i]
		if f < 0 {
			break
		}
		if x[f] <= threshold[i] {
			i = left[i]
		} else {
			i = right[i]
		}
	}
	return c.leaf[i]
}

// PredictProbaInto accumulates the ensemble-average class distribution
// for x into probs (length NumClasses). It allocates nothing and is
// safe to call concurrently with per-goroutine buffers; the result is
// bit-identical to the interpreted forest.
func (c *Forest) PredictProbaInto(x []float64, probs []float64) {
	for k := range probs {
		probs[k] = 0
	}
	nc := c.numClasses
	for _, root := range c.roots {
		off := c.leafOf(root, x)
		d := c.dist[off : int(off)+nc]
		for k, p := range d {
			probs[k] += p
		}
	}
	n := float64(c.numTrees)
	for k := range probs {
		probs[k] /= n
	}
}

// PredictInto scores x into the caller's probability buffer (length
// NumClasses) and returns the argmax class. Zero allocations.
func (c *Forest) PredictInto(x []float64, probs []float64) int {
	c.PredictProbaInto(x, probs)
	return ml.Argmax(probs)
}

// Predict returns the argmax class for x, allocating one small
// probability buffer. Hot loops use PredictInto with a reused buffer.
func (c *Forest) Predict(x []float64) int {
	return c.PredictInto(x, make([]float64, c.numClasses))
}

// PredictProba returns the ensemble-average class distribution for x
// as a fresh slice the caller owns.
func (c *Forest) PredictProba(x []float64) []float64 {
	probs := make([]float64, c.numClasses)
	c.PredictProbaInto(x, probs)
	return probs
}

// PredictBatch labels every row, fanning out across GOMAXPROCS workers
// with one probability buffer each. Results are identical to calling
// PredictInto per row at any GOMAXPROCS setting.
func (c *Forest) PredictBatch(x [][]float64) []int {
	return batchPredict(len(x), c.numClasses, func(i int, buf []float64) int {
		return c.PredictInto(x[i], buf)
	})
}

// batchPredict runs score(i, buf) for every row index, chunked across
// GOMAXPROCS workers with one width-wide buffer each.
func batchPredict(n, width int, score func(i int, buf []float64) int) []int {
	out := make([]int, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		buf := make([]float64, width)
		for i := 0; i < n; i++ {
			out[i] = score(i, buf)
		}
		return out
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			buf := make([]float64, width)
			for i := lo; i < hi; i++ {
				out[i] = score(i, buf)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
