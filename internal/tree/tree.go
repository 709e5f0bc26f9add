// Package tree implements CART least-squares regression trees, the
// method Sec. V-B uses for disk degradation prediction. Splits minimize
// the sum of squared errors of child-node means (Eq. 8); leaves predict
// the mean target of their training samples.
package tree

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"disksig/internal/parallel"
)

// Config controls tree induction.
type Config struct {
	// MaxDepth bounds the tree depth; 0 means 8.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf; 0 means 5.
	MinLeaf int
	// MinImprovement is the minimum SSE reduction required to split;
	// 0 means 1e-7 of the root SSE.
	MinImprovement float64
	// Workers bounds induction parallelism — concurrent per-feature
	// split scans and concurrent subtree growth on large nodes; 0 means
	// GOMAXPROCS, 1 trains sequentially. The fitted tree is bit-for-bit
	// identical at every setting: feature scans are self-contained and
	// merged in feature order, and sibling subtrees own disjoint
	// segments of the working set.
	Workers int
}

const (
	// splitParallelMin is the minimum samples×features at a node before
	// its split search fans out across features.
	splitParallelMin = 1 << 13
	// subtreeParallelMin is the minimum per-child sample count before
	// the two children grow concurrently.
	subtreeParallelMin = 1 << 11
)

func (c Config) withDefaults(rootSSE float64) Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	if c.MinImprovement <= 0 {
		c.MinImprovement = 1e-7 * (1 + rootSSE)
	}
	return c
}

// Tree is a trained regression tree.
type Tree struct {
	root     *node
	features int
}

type node struct {
	// feature < 0 marks a leaf.
	feature   int
	threshold float64
	left      *node
	right     *node
	value     float64 // mean target of the node's training samples
	n         int     // training samples reaching the node
}

// Train fits a regression tree to the row observations X with targets y.
//
// Induction is presorted CART (the SLIQ layout): X is copied
// column-major once and each feature is sorted once, by (value, sample
// index), so a tree level costs O(n·d) rather than re-sorting every
// node. That order is the canonical tie rule: among equal feature values
// (−0 and +0 included) the lower sample index comes first, and the split
// scan accumulates targets in that order.
func Train(x [][]float64, y []float64, cfg Config) (*Tree, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("tree: no training samples")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("tree: %d observations but %d targets", len(x), len(y))
	}
	if len(x) > math.MaxInt32 {
		return nil, fmt.Errorf("tree: %d observations exceed the %d-sample limit", len(x), math.MaxInt32)
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("tree: observation %d has %d features, want %d", i, len(row), d)
		}
	}
	p := newPresort(x, y)
	rootMean, rootSSE := p.meanSSE(0, len(x))
	cfg = cfg.withDefaults(rootSSE)
	cfg.Workers = parallel.Workers(cfg.Workers)
	p.cfg = cfg
	t := &Tree{features: d}
	t.root = p.grow(0, len(x), rootMean, rootSSE, 0)
	return t, nil
}

// presort is Train's working set. A node owns the segment [lo,hi) of
// every list in sorted; splitting it partitions each list's segment
// stably, so both children inherit sorted lists and sibling subtrees
// never touch each other's segments.
type presort struct {
	cols [][]float64 // cols[f][i] is x[i][f]
	y    []float64
	// sorted[f] orders the samples by (cols[f][i], i) for each feature f;
	// the last list keeps them in index order, the order in which node
	// means and SSEs sum.
	sorted [][]int32
	// scratch holds a segment's right side while it is partitioned, at
	// the segment's own positions; left marks each sample's side of the
	// split being applied.
	scratch []int32
	left    []bool
	cfg     Config
}

func newPresort(x [][]float64, y []float64) *presort {
	n, d := len(x), len(x[0])
	p := &presort{
		cols:    make([][]float64, d),
		y:       y,
		sorted:  make([][]int32, d+1),
		scratch: make([]int32, n),
		left:    make([]bool, n),
	}
	vals := make([]float64, d*n)
	lists := make([]int32, (d+1)*n)
	keys, keyBuf := make([]uint64, n), make([]uint64, n)
	for f := range p.sorted {
		p.sorted[f] = lists[f*n : (f+1)*n : (f+1)*n]
	}
	for f := range p.cols {
		col := vals[f*n : (f+1)*n : (f+1)*n]
		for i, row := range x {
			col[i] = row[f]
		}
		p.cols[f] = col
		sortByValue(p.sorted[f], col, keys, keyBuf, p.scratch)
	}
	for i := range p.sorted[d] {
		p.sorted[d][i] = int32(i)
	}
	return p
}

// sortKey maps a feature value to a key whose unsigned order is the
// value's numeric order, with −0 and +0 equal.
func sortKey(v float64) uint64 {
	if v == 0 {
		v = 0 // −0 takes +0's key
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortByValue fills s with the sample indices ordered by (col[i], i): a
// stable LSD radix sort of the keys, one byte per pass, starting from
// index order. keys, keyBuf and buf are scratch of len(col).
func sortByValue(s []int32, col []float64, keys, keyBuf []uint64, buf []int32) {
	var counts [8][256]int
	for i, v := range col {
		k := sortKey(v)
		keys[i] = k
		s[i] = int32(i)
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src, dst, srcKeys, dstKeys := s, buf, keys, keyBuf
	for b := range counts {
		c := &counts[b]
		shift := 8 * b
		if c[byte(srcKeys[0]>>shift)] == len(col) {
			continue // every key has this byte
		}
		pos := 0
		for digit, count := range c {
			c[digit] = pos
			pos += count
		}
		for j, k := range srcKeys {
			at := &c[byte(k>>shift)]
			dst[*at] = src[j]
			dstKeys[*at] = k
			*at++
		}
		src, dst, srcKeys, dstKeys = dst, src, dstKeys, srcKeys
	}
	copy(s, src)
}

// meanSSE computes the mean target and sum of squared errors of a sample
// subset, summing in the order idx lists the samples.
func meanSSE[I int | int32](idx []I, y []float64) (mean, sse float64) {
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mean
		sse += d * d
	}
	return mean, sse
}

// meanSSE computes the mean target and SSE of the segment [lo,hi) in
// ascending sample order.
func (p *presort) meanSSE(lo, hi int) (mean, sse float64) {
	return meanSSE(p.sorted[len(p.cols)][lo:hi], p.y)
}

func (p *presort) grow(lo, hi int, mean, sse float64, depth int) *node {
	n := &node{feature: -1, value: mean, n: hi - lo}
	cfg := &p.cfg
	if depth >= cfg.MaxDepth || hi-lo < 2*cfg.MinLeaf || sse <= cfg.MinImprovement {
		return n
	}
	feat, thr, gain, ok := p.bestSplit(lo, hi, sse)
	if !ok || gain < cfg.MinImprovement {
		return n
	}
	mid := p.partition(lo, hi, feat, thr)
	n.feature = feat
	n.threshold = thr
	lm, ls := p.meanSSE(lo, mid)
	rm, rs := p.meanSSE(mid, hi)
	if cfg.Workers > 1 && mid-lo >= subtreeParallelMin && hi-mid >= subtreeParallelMin {
		// Sibling subtrees read shared columns and targets but write
		// only their own segments, marks and nodes, so growing them
		// concurrently produces the same tree.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.left = p.grow(lo, mid, lm, ls, depth+1)
		}()
		n.right = p.grow(mid, hi, rm, rs, depth+1)
		wg.Wait()
	} else {
		n.left = p.grow(lo, mid, lm, ls, depth+1)
		n.right = p.grow(mid, hi, rm, rs, depth+1)
	}
	return n
}

// partition applies the split cols[feat] < thr to the segment [lo,hi) of
// every list and returns mid: the left child owns [lo,mid), the right
// child [mid,hi).
func (p *presort) partition(lo, hi, feat int, thr float64) (mid int) {
	col, left := p.cols[feat], p.left
	mid = lo
	for _, i := range p.sorted[len(p.cols)][lo:hi] {
		l := col[i] < thr
		left[i] = l
		if l {
			mid++
		}
	}
	for _, s := range p.sorted {
		w, r := lo, lo
		for _, i := range s[lo:hi] {
			if left[i] {
				s[w] = i
				w++
			} else {
				p.scratch[r] = i
				r++
			}
		}
		copy(s[w:hi], p.scratch[lo:r])
	}
	return mid
}

// featureSplit is one feature's best candidate split.
type featureSplit struct {
	sse       float64
	threshold float64
	ok        bool
}

// scan finds feature f's lowest-SSE split of the segment [lo,hi) by a
// prefix scan of its presorted list. It only reads shared state, so the
// scans of one node can run concurrently and be merged in feature order
// with results identical to a single sequential pass.
func (p *presort) scan(f, lo, hi int) featureSplit {
	s, col, y := p.sorted[f][lo:hi], p.cols[f], p.y
	n, minLeaf := len(s), p.cfg.MinLeaf
	var tSum, tSq float64
	for _, i := range s {
		tSum += y[i]
		tSq += y[i] * y[i]
	}
	// The left side accumulates sum and sum of squares. Until it holds
	// MinLeaf samples no split is admissible; grow guarantees
	// n >= 2*MinLeaf.
	var lSum, lSq float64
	for _, i := range s[:minLeaf-1] {
		yi := y[i]
		lSum += yi
		lSq += yi * yi
	}
	best := featureSplit{sse: math.Inf(1)}
	next := col[s[minLeaf-1]]
	for k := minLeaf - 1; k < n-minLeaf; k++ {
		yi := y[s[k]]
		lSum += yi
		lSq += yi * yi
		v := next
		next = col[s[k+1]]
		// Can't split between equal feature values.
		if v == next {
			continue
		}
		nl, nr := k+1, n-k-1
		rSum := tSum - lSum
		rSq := tSq - lSq
		sse := (lSq - lSum*lSum/float64(nl)) + (rSq - rSum*rSum/float64(nr))
		if sse < best.sse {
			best = featureSplit{sse: sse, threshold: (v + next) / 2, ok: true}
		}
	}
	return best
}

// bestSplit scans every feature and threshold of the segment [lo,hi) for
// the split that minimizes the summed child SSE. On large nodes the
// per-feature scans fan out across workers; merging their results in
// ascending feature order (strictly-lower SSE wins) reproduces the
// sequential pass exactly, ties and all.
func (p *presort) bestSplit(lo, hi int, parentSSE float64) (feature int, threshold, gain float64, ok bool) {
	d := len(p.cols)
	var splits []featureSplit
	if p.cfg.Workers > 1 && (hi-lo)*d >= splitParallelMin {
		splits = parallel.Map(p.cfg.Workers, d, func(f int) featureSplit {
			return p.scan(f, lo, hi)
		})
	}
	bestSSE := math.Inf(1)
	for f := 0; f < d; f++ {
		var s featureSplit
		if splits != nil {
			s = splits[f]
		} else {
			s = p.scan(f, lo, hi)
		}
		if s.ok && s.sse < bestSSE {
			bestSSE = s.sse
			feature = f
			threshold = s.threshold
			ok = true
		}
	}
	if !ok {
		return 0, 0, 0, false
	}
	return feature, threshold, parentSSE - bestSSE, true
}

// Predict returns the tree's prediction for one observation.
func (t *Tree) Predict(x []float64) float64 {
	if len(x) != t.features {
		panic(fmt.Sprintf("tree: observation has %d features, tree was trained on %d", len(x), t.features))
	}
	n := t.root
	for n.feature >= 0 {
		if x[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// PredictAll predicts every observation.
func (t *Tree) PredictAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = t.Predict(row)
	}
	return out
}

// Depth returns the tree depth (a lone leaf has depth 0).
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *node) int {
	if n.feature < 0 {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return leavesOf(t.root) }

func leavesOf(n *node) int {
	if n.feature < 0 {
		return 1
	}
	return leavesOf(n.left) + leavesOf(n.right)
}

// FeatureImportance returns, per feature, the total SSE reduction
// contributed by splits on that feature, normalized to sum to 1 (or all
// zeros for a stump). It identifies the "critical attributes" of Sec. V-B.
func (t *Tree) FeatureImportance(x [][]float64, y []float64) []float64 {
	imp := make([]float64, t.features)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	accumulateImportance(t.root, x, y, idx, imp)
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

func accumulateImportance(n *node, x [][]float64, y []float64, idx []int, imp []float64) {
	if n.feature < 0 || len(idx) == 0 {
		return
	}
	_, parentSSE := meanSSE(idx, y)
	var left, right []int
	for _, i := range idx {
		if x[i][n.feature] < n.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	var childSSE float64
	if len(left) > 0 {
		_, s := meanSSE(left, y)
		childSSE += s
	}
	if len(right) > 0 {
		_, s := meanSSE(right, y)
		childSSE += s
	}
	if gain := parentSSE - childSSE; gain > 0 {
		imp[n.feature] += gain
	}
	accumulateImportance(n.left, x, y, left, imp)
	accumulateImportance(n.right, x, y, right, imp)
}

// Render draws the tree in the style of Fig. 13: each node shows its mean
// target value and population share; internal nodes show their split.
// featNames labels the split features; nil uses generic names.
func (t *Tree) Render(featNames []string) string {
	var b strings.Builder
	total := t.root.n
	var walk func(n *node, prefix string, isLast bool)
	walk = func(n *node, prefix string, isLast bool) {
		connector := "├── "
		childPrefix := prefix + "│   "
		if isLast {
			connector = "└── "
			childPrefix = prefix + "    "
		}
		if prefix == "" {
			connector = ""
			childPrefix = ""
		}
		share := 100 * float64(n.n) / float64(total)
		if n.feature < 0 {
			fmt.Fprintf(&b, "%s%svalue=%.2f (%.0f%%)\n", prefix, connector, n.value, share)
			return
		}
		name := fmt.Sprintf("x%d", n.feature)
		if featNames != nil && n.feature < len(featNames) {
			name = featNames[n.feature]
		}
		fmt.Fprintf(&b, "%s%s%s < %.2f? value=%.2f (%.0f%%)\n", prefix, connector, name, n.threshold, n.value, share)
		walk(n.left, childPrefix, false)
		walk(n.right, childPrefix, true)
	}
	walk(t.root, "", true)
	return b.String()
}
