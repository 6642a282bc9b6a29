package compiled

import (
	"math"

	"droppackets/internal/ml"
)

// This file holds the multi-row entry points of the compiled scorers.
// The single-row walks in compiled.go are dependent-load and
// branch-mispredict bound: every split is a data-dependent branch, and
// a row that walks the whole ensemble streams every tree's node arrays
// through the cache once per row. The batch sweeps invert the loops —
// trees outer, rows inner within row tiles — so one tree's nodes stay
// cache-resident while a block of rows walks it, and they walk eight
// rows per step through a branch-free batch layout so the lanes'
// dependent loads overlap instead of serializing behind mispredicted
// branches.
// Accumulation order per row is unchanged (tree by tree), so batch results are bit-identical to the row-at-a-time
// methods for finite feature values (the only kind the extraction
// pipeline produces).

// batchLanes is the unit of interleaved row walks through one tree.
// Full groups run two units at once (leavesOf8) for maximum
// memory-level parallelism; the ragged tail falls back to one unit,
// then to single rows.
const batchLanes = 4

// tileRows bounds how many rows sweep the whole ensemble before moving
// on to the next slice of the block. 64 rows of typical feature width
// stay L1-resident, so after the tile's first tree every x[feature]
// load on the walk's critical path is an L1 hit instead of re-streaming
// the full block once per tree.
const tileRows = 64

// leafSentinel is the threshold stored on self-looping batch leaves:
// any finite feature value compares <= it, so a lane that has reached
// a leaf keeps selecting the leaf itself until the walk ends.
// MaxFloat64 (not +Inf) keeps the sign-bit select below free of
// Inf-Inf NaNs for every finite input.
const leafSentinel = math.MaxFloat64

// bnode is one node of the batch walk layout, packed so a walk step
// touches a single 16-byte record (one bounds check, one cache line)
// instead of three separately indexed columns.
type bnode struct {
	thresh float64
	feat   int32
	// first is the left child; the right child is first+1. Leaves
	// point at themselves.
	first int32
}

// batchLayout is a second, walk-optimized copy of an ensemble's nodes
// built at compile time:
//
//   - children are paired: right child = first + 1, so the child select
//     is an add of the comparison bit, not a second indexed load;
//   - leaves self-loop (first = self, thresh = leafSentinel), so the
//     walk needs no per-lane termination branch — stepping a finished
//     lane is a no-op, and one predictable all-lanes-static check per
//     level ends the walk;
//   - nodes are in BFS order, keeping the hot top levels of a tree
//     contiguous.
//
// The per-row arrays in Forest are untouched; this layout exists
// only for the batch sweeps.
type batchLayout struct {
	nodes []bnode
	roots []int32
	// depth[t] is the number of walk steps that provably lands every
	// row of tree t on a leaf (the deepest leaf's depth); it bounds the
	// walk loops so even a corrupted layout cannot spin forever.
	depth []int32
	// distOff holds each leaf's pooled distribution offset; internal
	// nodes hold 0.
	distOff []int32
}

// buildBatchLayout rebuilds the given trees (roots into the shared
// feature/threshold/left/right arrays, leaves marked by feature < 0)
// into a batchLayout. leafDist is the node-aligned leaf payload column.
func buildBatchLayout(feature []int32, threshold []float64, left, right, roots []int32, leafDist []int32) *batchLayout {
	n := len(feature)
	bb := &batchLayout{
		nodes:   make([]bnode, 0, n),
		roots:   make([]int32, 0, len(roots)),
		depth:   make([]int32, 0, len(roots)),
		distOff: make([]int32, 0, n),
	}
	type mapping struct {
		old, new, depth int32
	}
	var queue []mapping
	alloc := func(k int) int32 {
		at := int32(len(bb.nodes))
		for i := 0; i < k; i++ {
			bb.nodes = append(bb.nodes, bnode{})
			bb.distOff = append(bb.distOff, 0)
		}
		return at
	}
	for _, root := range roots {
		newRoot := alloc(1)
		bb.roots = append(bb.roots, newRoot)
		maxDepth := int32(0)
		queue = append(queue[:0], mapping{old: root, new: newRoot})
		for qi := 0; qi < len(queue); qi++ {
			m := queue[qi]
			if m.depth > maxDepth {
				maxDepth = m.depth
			}
			if feature[m.old] < 0 {
				// Leaf: self-loop under the sentinel threshold; carry the
				// payload to the new index.
				bb.nodes[m.new] = bnode{thresh: leafSentinel, feat: 0, first: m.new}
				bb.distOff[m.new] = leafDist[m.old]
				continue
			}
			firstChild := alloc(2)
			// Normalize -0 thresholds to +0 so the sign-bit select below
			// agrees with `x <= t` on every signed-zero combination.
			t := threshold[m.old] + 0
			bb.nodes[m.new] = bnode{thresh: t, feat: feature[m.old], first: firstChild}
			queue = append(queue,
				mapping{old: left[m.old], new: firstChild, depth: m.depth + 1},
				mapping{old: right[m.old], new: firstChild + 1, depth: m.depth + 1})
		}
		bb.depth = append(bb.depth, maxDepth)
	}
	return bb
}

// leavesOf4 walks four rows of the row-major block through tree t
// simultaneously — o0..o3 are the rows' start offsets into rows — and
// returns the leaf index each lands on. The child select is
// branch-free (sign bit of thresh-x, negative exactly when x > thresh,
// i.e. go right), so the four dependent-load chains overlap instead of
// serializing behind split mispredicts; the only branch per level is
// the all-lanes-static check, which stays predictable until the
// deepest lane finishes. Rows arrive as one shared slice plus integer
// offsets (not four subslices) to keep the lane state in registers —
// four slice headers plus walk state spill.
func (bb *batchLayout) leavesOf4(t int, rows []float64, o0, o1, o2, o3 int) (int, int, int, int) {
	nodes := bb.nodes
	root := int(bb.roots[t])
	i0, i1, i2, i3 := root, root, root, root
	for d := bb.depth[t]; d > 0; d-- {
		// Fixed trip count: stepping a lane already parked on a leaf
		// self-loops, so the walk needs no data-dependent branch at all —
		// the loop counter is the only control flow.
		n0, n1, n2, n3 := nodes[i0], nodes[i1], nodes[i2], nodes[i3]
		i0 = int(n0.first) + int(math.Float64bits(n0.thresh-rows[o0+int(n0.feat)])>>63)
		i1 = int(n1.first) + int(math.Float64bits(n1.thresh-rows[o1+int(n1.feat)])>>63)
		i2 = int(n2.first) + int(math.Float64bits(n2.thresh-rows[o2+int(n2.feat)])>>63)
		i3 = int(n3.first) + int(math.Float64bits(n3.thresh-rows[o3+int(n3.feat)])>>63)
	}
	return i0, i1, i2, i3
}

// leavesOf8 walks eight rows through tree t, two four-lane groups
// interleaved. Eight dependent-load chains keep more of the walk's
// cache latency covered when the tree is deep enough for chains to
// stall; the extra lane state spills, but spill traffic is off the
// critical path.
func (bb *batchLayout) leavesOf8(t int, rows []float64, o0, o1, o2, o3, o4, o5, o6, o7 int) (int, int, int, int, int, int, int, int) {
	nodes := bb.nodes
	root := int(bb.roots[t])
	i0, i1, i2, i3 := root, root, root, root
	i4, i5, i6, i7 := root, root, root, root
	for d := bb.depth[t]; d > 0; d-- {
		n0, n1, n2, n3 := nodes[i0], nodes[i1], nodes[i2], nodes[i3]
		n4, n5, n6, n7 := nodes[i4], nodes[i5], nodes[i6], nodes[i7]
		i0 = int(n0.first) + int(math.Float64bits(n0.thresh-rows[o0+int(n0.feat)])>>63)
		i1 = int(n1.first) + int(math.Float64bits(n1.thresh-rows[o1+int(n1.feat)])>>63)
		i2 = int(n2.first) + int(math.Float64bits(n2.thresh-rows[o2+int(n2.feat)])>>63)
		i3 = int(n3.first) + int(math.Float64bits(n3.thresh-rows[o3+int(n3.feat)])>>63)
		i4 = int(n4.first) + int(math.Float64bits(n4.thresh-rows[o4+int(n4.feat)])>>63)
		i5 = int(n5.first) + int(math.Float64bits(n5.thresh-rows[o5+int(n5.feat)])>>63)
		i6 = int(n6.first) + int(math.Float64bits(n6.thresh-rows[o6+int(n6.feat)])>>63)
		i7 = int(n7.first) + int(math.Float64bits(n7.thresh-rows[o7+int(n7.feat)])>>63)
	}
	return i0, i1, i2, i3, i4, i5, i6, i7
}

// leafOf walks one row (starting at offset o into the block) through
// tree t — the ragged remainder of a block.
func (bb *batchLayout) leafOf(t int, rows []float64, o int) int {
	nodes := bb.nodes
	i := int(bb.roots[t])
	for d := bb.depth[t]; d > 0; d-- {
		n := nodes[i]
		j := int(n.first) + int(math.Float64bits(n.thresh-rows[o+int(n.feat)])>>63)
		if j == i {
			break
		}
		i = j
	}
	return i
}

// PredictProbaBatchInto accumulates the ensemble-average class
// distribution for a row-major block of rows into probs. rows holds
// n = len(rows)/stride feature rows of stride floats each, packed back
// to back; probs must hold at least n*NumClasses floats and receives
// row r's distribution at probs[r*NumClasses:]. It allocates nothing,
// and every row's result is bit-identical to PredictProbaInto on that
// row (rows must be finite, as extracted feature rows always are).
func (c *Forest) PredictProbaBatchInto(rows []float64, stride int, probs []float64) {
	if stride <= 0 {
		return
	}
	n := len(rows) / stride
	nc := c.numClasses
	out := probs[: n*nc : n*nc]
	for i := range out {
		out[i] = 0
	}
	bb := c.bb
	// Tile rows so a tile's feature rows stay cache-hot across every
	// tree; trees in order within a row keeps accumulation order — and
	// thus bits — identical to the per-row path.
	for lo := 0; lo < n; lo += tileRows {
		hi := lo + tileRows
		if hi > n {
			hi = n
		}
		for t := range bb.roots {
			r := lo
			for ; r+2*batchLanes <= hi; r += 2 * batchLanes {
				o := r * stride
				i0, i1, i2, i3, i4, i5, i6, i7 := bb.leavesOf8(t, rows,
					o, o+stride, o+2*stride, o+3*stride,
					o+4*stride, o+5*stride, o+6*stride, o+7*stride)
				c.addDist(out[(r+0)*nc:], bb.distOff[i0])
				c.addDist(out[(r+1)*nc:], bb.distOff[i1])
				c.addDist(out[(r+2)*nc:], bb.distOff[i2])
				c.addDist(out[(r+3)*nc:], bb.distOff[i3])
				c.addDist(out[(r+4)*nc:], bb.distOff[i4])
				c.addDist(out[(r+5)*nc:], bb.distOff[i5])
				c.addDist(out[(r+6)*nc:], bb.distOff[i6])
				c.addDist(out[(r+7)*nc:], bb.distOff[i7])
			}
			for ; r+batchLanes <= hi; r += batchLanes {
				o := r * stride
				i0, i1, i2, i3 := bb.leavesOf4(t, rows, o, o+stride, o+2*stride, o+3*stride)
				c.addDist(out[(r+0)*nc:], bb.distOff[i0])
				c.addDist(out[(r+1)*nc:], bb.distOff[i1])
				c.addDist(out[(r+2)*nc:], bb.distOff[i2])
				c.addDist(out[(r+3)*nc:], bb.distOff[i3])
			}
			for ; r < hi; r++ {
				c.addDist(out[r*nc:], bb.distOff[bb.leafOf(t, rows, r*stride)])
			}
		}
	}
	nt := float64(c.numTrees)
	for i := range out {
		out[i] /= nt
	}
}

// addDist accumulates the pooled distribution at offset off into
// dst[:numClasses].
func (c *Forest) addDist(dst []float64, off int32) {
	d := c.dist[off : int(off)+c.numClasses]
	for k, p := range d {
		dst[k] += p
	}
}

// PredictBatchInto scores a row-major block of rows and writes the
// argmax class of row r into out[r]. probs is the caller's scratch for
// the intermediate distributions (at least n*NumClasses floats, where
// n = len(rows)/stride); out must hold at least n ints. It allocates
// nothing; classes are identical to PredictInto per row.
func (c *Forest) PredictBatchInto(rows []float64, stride int, probs []float64, out []int) {
	c.PredictProbaBatchInto(rows, stride, probs)
	if stride <= 0 {
		return
	}
	n := len(rows) / stride
	nc := c.numClasses
	for r := 0; r < n; r++ {
		out[r] = ml.Argmax(probs[r*nc : (r+1)*nc])
	}
}
