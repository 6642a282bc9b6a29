package tree

// FlatView is a read-only structure-of-arrays view of a fitted tree's
// node table, in pre-order with the root at index 0. Feature[i] == -1
// marks a leaf; internal nodes carry Threshold and Left/Right child
// indices. Classification leaves locate their class distribution at
// Dist[DistOff[i] : DistOff[i]+numClasses]. Every slice aliases the
// tree's internal storage: callers must treat the view as immutable,
// and it is invalidated by the next Fit. The compiled-inference package
// flattens forests through this view without re-walking pointers.
type FlatView struct {
	// Feature holds the split feature per node, -1 for leaves.
	Feature []int32
	// Threshold holds the split threshold per internal node.
	Threshold []float64
	// Left holds the left-child index per internal node.
	Left []int32
	// Right holds the right-child index per internal node.
	Right []int32
	// DistOff holds, per leaf, the offset of its class distribution in
	// Dist (unused for internal nodes).
	DistOff []int32
	// Dist is the concatenation of all leaf class distributions.
	Dist []float64
}

// Len reports the number of nodes in the view (0 for an unfitted tree).
func (v FlatView) Len() int { return len(v.Feature) }

// FlatView exposes the fitted classification tree's node storage.
func (t *Classifier) FlatView() FlatView { return t.nodes.view() }

// view builds the exported alias view of a node table.
func (t *soa) view() FlatView {
	return FlatView{
		Feature:   t.feature,
		Threshold: t.threshold,
		Left:      t.left,
		Right:     t.right,
		DistOff:   t.distOff,
		Dist:      t.dist,
	}
}
