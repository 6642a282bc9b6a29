package compiled

import (
	"math"

	"droppackets/internal/ml"
)

// This file holds the block sweeps. A row-at-a-time walk is
// dependent-load and branch-mispredict bound: every split is a
// data-dependent branch, and a row that walks the whole ensemble
// streams every tree's nodes through the cache once per row. The
// sweeps invert the loops — trees outer, rows inner within row tiles —
// so one tree's nodes stay cache-resident while a block of rows walks
// it, and they walk eight rows per step through the branch-free layout
// so the lanes' dependent loads overlap instead of serializing behind
// mispredicted branches. Accumulation order per row is unchanged (tree
// by tree), so results are bit-identical to the interpreted forest for
// finite feature values (the only kind the extraction pipeline
// produces).

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

// leavesOf4 walks four rows of the row-major block through tree t
// simultaneously — o0..o3 are the rows' start offsets into rows — and
// returns the leaf index each lands on. The child select is
// branch-free (sign bit of thresh-x, negative exactly when x > thresh,
// i.e. go right), so the four dependent-load chains overlap instead of
// serializing behind split mispredicts. Rows arrive as one shared slice
// plus integer offsets (not four subslices) to keep the lane state in
// registers — four slice headers plus walk state spill.
func (c *Forest) leavesOf4(t int, rows []float64, o0, o1, o2, o3 int) (int, int, int, int) {
	nodes := c.nodes
	root := int(c.roots[t])
	i0, i1, i2, i3 := root, root, root, root
	for d := c.depth[t]; d > 0; d-- {
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
func (c *Forest) leavesOf8(t int, rows []float64, o0, o1, o2, o3, o4, o5, o6, o7 int) (int, int, int, int, int, int, int, int) {
	nodes := c.nodes
	root := int(c.roots[t])
	i0, i1, i2, i3 := root, root, root, root
	i4, i5, i6, i7 := root, root, root, root
	for d := c.depth[t]; d > 0; d-- {
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

// leavesOf1 walks one row (starting at offset o into the block) through
// tree t — the ragged remainder of a block.
func (c *Forest) leavesOf1(t int, rows []float64, o int) int {
	nodes := c.nodes
	i := int(c.roots[t])
	for d := c.depth[t]; d > 0; d-- {
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
// and every row's result is bit-identical to the interpreted forest's
// PredictProba on that row (rows must be finite, as extracted feature
// rows always are; a non-finite value still stays in range).
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
	distOff := c.distOff
	// Tile rows so a tile's feature rows stay cache-hot across every
	// tree; trees in order within a row keeps accumulation order — and
	// thus bits — identical to the interpreted forest.
	for lo := 0; lo < n; lo += tileRows {
		hi := lo + tileRows
		if hi > n {
			hi = n
		}
		for t := range c.roots {
			r := lo
			for ; r+2*batchLanes <= hi; r += 2 * batchLanes {
				o := r * stride
				i0, i1, i2, i3, i4, i5, i6, i7 := c.leavesOf8(t, rows,
					o, o+stride, o+2*stride, o+3*stride,
					o+4*stride, o+5*stride, o+6*stride, o+7*stride)
				c.addDist(out[(r+0)*nc:], distOff[i0])
				c.addDist(out[(r+1)*nc:], distOff[i1])
				c.addDist(out[(r+2)*nc:], distOff[i2])
				c.addDist(out[(r+3)*nc:], distOff[i3])
				c.addDist(out[(r+4)*nc:], distOff[i4])
				c.addDist(out[(r+5)*nc:], distOff[i5])
				c.addDist(out[(r+6)*nc:], distOff[i6])
				c.addDist(out[(r+7)*nc:], distOff[i7])
			}
			for ; r+batchLanes <= hi; r += batchLanes {
				o := r * stride
				i0, i1, i2, i3 := c.leavesOf4(t, rows, o, o+stride, o+2*stride, o+3*stride)
				c.addDist(out[(r+0)*nc:], distOff[i0])
				c.addDist(out[(r+1)*nc:], distOff[i1])
				c.addDist(out[(r+2)*nc:], distOff[i2])
				c.addDist(out[(r+3)*nc:], distOff[i3])
			}
			for ; r < hi; r++ {
				c.addDist(out[r*nc:], distOff[c.leavesOf1(t, rows, r*stride)])
			}
		}
	}
	nt := float64(len(c.roots))
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
// nothing; classes are identical to the interpreted forest's Predict
// per row.
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
