// Package compiled flattens fitted random forests into one contiguous,
// walk-optimized node array for the serving hot path. A compiled
// forest holds every tree of the ensemble in a single branch-free batch
// layout — 16-byte nodes in per-tree BFS order with paired children and
// self-looping leaves — plus one pooled leaf-distribution block, and it
// scores row-major blocks of feature rows with no *node chasing and no
// per-row allocation. That layout is the only compiled form: a single
// row is a one-row block. Predictions are bit-identical to the
// interpreted ensemble (forest.Classifier) on finite rows: the
// accumulation order of the interpreted path (tree by tree, class by
// class, divide once at the end) is replicated exactly.
//
// Compile once after fitting or loading; the compiled scorer copies
// what it needs and stays valid even if the source ensemble is refitted.
package compiled

import (
	"fmt"
	"math"

	"droppackets/internal/ml/forest"
	"droppackets/internal/ml/tree"
)

// leafSentinel is the threshold stored on self-looping leaves: any
// finite feature value compares <= it, so a lane that has reached a
// leaf keeps selecting the leaf itself until the walk ends.
// MaxFloat64 (not +Inf) keeps the sign-bit select of the walks free of
// Inf-Inf NaNs for every finite input.
const leafSentinel = math.MaxFloat64

// bnode is one node of the walk layout, packed so a walk step touches a
// single 16-byte record (one bounds check, one cache line) instead of
// three separately indexed columns.
type bnode struct {
	thresh float64
	feat   int32
	// first is the left child; the right child is first+1. Leaves
	// point at themselves.
	first int32
}

// Forest is a Random Forest compiled into the batch walk layout:
//
//   - children are paired: right child = first + 1, so the child select
//     is an add of the comparison bit, not a second indexed load;
//   - leaves self-loop (first = self, thresh = leafSentinel), so the
//     walk needs no per-lane termination branch — stepping a finished
//     lane is a no-op;
//   - nodes are in BFS order per tree, keeping the hot top levels of a
//     tree contiguous. A walk takes as many steps as its tree is deep,
//     and no step lands more than one level deeper — not even a leaf
//     stepped right by a non-finite value — so no walk leaves its tree.
//
// The zero value is unusable; build one with CompileForest.
type Forest struct {
	numClasses int
	nodes      []bnode
	roots      []int32
	// depth[t] is the number of walk steps that provably lands every
	// row of tree t on a leaf (the deepest leaf's depth); it bounds the
	// walk loops so even a corrupted layout cannot spin forever.
	depth []int32
	// distOff holds each leaf's offset into dist; internal nodes hold 0.
	distOff []int32
	// dist pools every tree's leaf distributions, numClasses wide each.
	dist []float64
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
		roots:      make([]int32, 0, f.NumTrees()),
		depth:      make([]int32, 0, f.NumTrees()),
	}
	for ti := 0; ti < f.NumTrees(); ti++ {
		t := f.Tree(ti)
		if t.NumClasses() != nc {
			return nil, fmt.Errorf("compiled: tree %d has %d classes, forest has %d", ti, t.NumClasses(), nc)
		}
		if err := c.appendTree(t.FlatView()); err != nil {
			return nil, fmt.Errorf("compiled: tree %d: %w", ti, err)
		}
	}
	return c, nil
}

// appendTree validates one tree's flat view and appends it to the walk
// layout in BFS order. The growth engine always emits children after
// their parent, so child > parent is required — it guarantees every
// walk terminates even on a hostile model file.
func (c *Forest) appendTree(v tree.FlatView) error {
	n := v.Len()
	if n == 0 {
		return fmt.Errorf("empty tree")
	}
	nc := c.numClasses
	for i := 0; i < n; i++ {
		if v.Feature[i] < 0 {
			if off := v.DistOff[i]; off < 0 || int(off)+nc > len(v.Dist) {
				return fmt.Errorf("leaf %d: distribution offset %d out of range", i, off)
			}
			continue
		}
		l, r := v.Left[i], v.Right[i]
		if l <= int32(i) || l >= int32(n) || r <= int32(i) || r >= int32(n) {
			return fmt.Errorf("node %d: children %d/%d out of order or range", i, l, r)
		}
	}
	distBase := int32(len(c.dist))
	c.dist = append(c.dist, v.Dist...)

	type mapping struct {
		old, new, depth int32
	}
	root := int32(len(c.nodes))
	c.nodes = append(c.nodes, bnode{})
	c.distOff = append(c.distOff, 0)
	maxDepth := int32(0)
	queue := []mapping{{old: 0, new: root}}
	for qi := 0; qi < len(queue); qi++ {
		m := queue[qi]
		maxDepth = max(maxDepth, m.depth)
		if v.Feature[m.old] < 0 {
			c.nodes[m.new] = bnode{thresh: leafSentinel, first: m.new}
			c.distOff[m.new] = distBase + v.DistOff[m.old]
			continue
		}
		first := int32(len(c.nodes))
		c.nodes = append(c.nodes, bnode{}, bnode{})
		c.distOff = append(c.distOff, 0, 0)
		// Normalize -0 thresholds to +0 so the sign-bit select agrees
		// with `x <= t` on every signed-zero combination.
		c.nodes[m.new] = bnode{thresh: v.Threshold[m.old] + 0, feat: v.Feature[m.old], first: first}
		queue = append(queue,
			mapping{old: v.Left[m.old], new: first, depth: m.depth + 1},
			mapping{old: v.Right[m.old], new: first + 1, depth: m.depth + 1})
	}
	c.roots = append(c.roots, root)
	c.depth = append(c.depth, maxDepth)
	return nil
}

// NumClasses returns the number of classes the compiled forest
// discriminates.
func (c *Forest) NumClasses() int { return c.numClasses }

// NumTrees returns the ensemble size.
func (c *Forest) NumTrees() int { return len(c.roots) }
