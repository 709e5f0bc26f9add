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
	"sync/atomic"

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
	// presorting and split scans and concurrent subtree growth on large
	// nodes; 0 means GOMAXPROCS, 1 trains sequentially. The fitted tree
	// and its importance are bit-for-bit identical at every setting:
	// each feature sorts into its own list, feature scans are
	// self-contained and merged in feature order, and sibling subtrees
	// own disjoint segments of the working set.
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
// Induction is presorted CART (the SLIQ layout): each feature is sorted
// once, by (value, sample index), so a tree level costs O(n·d) rather
// than re-sorting every node. That order is the canonical tie rule:
// among equal feature values (−0 and +0 included) the lower sample index
// comes first, and the split scan accumulates targets in that order.
func Train(x [][]float64, y []float64, cfg Config) (*Tree, error) {
	t, _, err := TrainWithImportance(x, y, cfg)
	return t, err
}

// TrainWithImportance is Train that also returns each feature's
// importance: the total SSE reduction of the splits on that feature,
// normalized to sum to 1 (all zeros for a stump). It identifies the
// "critical attributes" of Sec. V-B. A split's reduction is its node's
// SSE less its children's, each summed in sample index order, and the
// reductions add up in preorder.
func TrainWithImportance(x [][]float64, y []float64, cfg Config) (*Tree, []float64, error) {
	if len(x) == 0 {
		return nil, nil, fmt.Errorf("tree: no training samples")
	}
	if len(x) != len(y) {
		return nil, nil, fmt.Errorf("tree: %d observations but %d targets", len(x), len(y))
	}
	if len(x) > math.MaxInt32 {
		return nil, nil, fmt.Errorf("tree: %d observations exceed the %d-sample limit", len(x), math.MaxInt32)
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return nil, nil, fmt.Errorf("tree: observation %d has %d features, want %d", i, len(row), d)
		}
	}
	workers := parallel.Workers(cfg.Workers)
	p := newPresort(x, y, workers)
	rootMean, rootSSE := p.meanSSE(0, len(x))
	cfg = cfg.withDefaults(rootSSE)
	cfg.Workers = workers
	p.cfg = cfg
	imp := make([]float64, d)
	t := &Tree{features: d}
	t.root = p.grow(0, len(x), rootMean, rootSSE, 0, &gains{imp: imp})
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return t, imp, nil
}

// presort is Train's working set. A node owns the segment [lo,hi) of
// every list; splitting it partitions each list's segment stably, so
// both children inherit sorted lists and sibling subtrees never touch
// each other's segments.
type presort struct {
	// lists[f] orders the samples by (x[i][f], i) for each feature f and
	// carries their values of f and their targets in that order, so a
	// split scan reads its list front to back. The last list keeps the
	// samples in index order, the order in which node means and SSEs
	// sum, and carries no values.
	lists []list
	// scratch holds a segment's right side while it is partitioned, at
	// the segment's own positions; left marks each sample's side of the
	// split being applied.
	scratch list
	left    []uint8
	cfg     Config
}

// list is one ordering of the training samples: sample idx[k] comes
// k-th, with value x[k] of the list's feature and target y[k].
type list struct {
	idx  []int32
	x, y []float64
}

// segment returns the k-th of the length-n segments of a.
func segment[T any](a []T, k, n int) []T {
	return a[k*n : (k+1)*n : (k+1)*n]
}

func newPresort(x [][]float64, y []float64, workers int) *presort {
	n, d := len(x), len(x[0])
	// Two arenas back the d+1 lists and the scratch: one of sample
	// indices, one of targets and values.
	idx := make([]int32, (d+2)*n)
	vals := make([]float64, (2*d+3)*n)
	p := &presort{lists: make([]list, d+1), left: make([]uint8, n)}
	for f := range p.lists {
		p.lists[f] = list{idx: segment(idx, f, n), y: segment(vals, f, n)}
		if f < d {
			p.lists[f].x = segment(vals, d+1+f, n)
		}
	}
	p.scratch = list{idx: segment(idx, d+1, n), y: segment(vals, 2*d+1, n), x: segment(vals, 2*d+2, n)}
	// Each feature's list holds its column in index order until the
	// feature is sorted.
	for i, row := range x {
		for f, v := range row {
			p.lists[f].x[i] = v
		}
	}
	last := &p.lists[d]
	for i := range last.idx {
		last.idx[i] = int32(i)
	}
	copy(last.y, y)

	// Features sort concurrently, each worker with its own scratch,
	// taking the next unsorted feature until none is left.
	var next atomic.Int32
	sortAll := func(int) {
		s := newSorter(n)
		for f := int(next.Add(1)) - 1; f < d; f = int(next.Add(1)) - 1 {
			s.sort(&p.lists[f], y)
		}
	}
	if workers = min(workers, d); workers > 1 {
		parallel.ForEach(workers, workers, sortAll)
	} else {
		sortAll(0)
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

// keyValue inverts sortKey. −0 comes back as +0, which no comparison of
// induction tells apart and no threshold differs by: a threshold is the
// midpoint of two distinct values, and adding a zero of either sign to a
// nonzero value leaves it unchanged.
func keyValue(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// maxLevels is the most distinct values a feature may take for presort
// to order it by one counting pass over its levels rather than by eight
// radix passes.
const maxLevels = 256

// sorter is one presort worker's scratch: sort keys and sample indices,
// each in two halves for the radix sort, and the counting sort's levels.
type sorter struct {
	keys   []uint64
	ids    []int32
	levels levels
}

func newSorter(n int) *sorter {
	return &sorter{keys: make([]uint64, 2*n), ids: make([]int32, 2*n)}
}

// levels gathers a column's distinct sort keys while there are at most
// maxLevels of them, in an open-addressing table from key to level (the
// order in which the key was first seen).
type levels struct {
	slots    [2 * maxLevels]uint16 // 1 + the level of slotKeys[h]; 0 marks a free slot
	slotKeys [2 * maxLevels]uint64
	keys     [maxLevels]uint64 // each level's key
	counts   [maxLevels]int    // each level's samples, then its next list position
	byKey    [maxLevels]uint16 // the levels in key order
	n        int
}

// add returns k's level, adding it if it is new; ok is false once k
// would be level maxLevels+1.
func (t *levels) add(k uint64) (level int, ok bool) {
	const mask = 2*maxLevels - 1
	h := k * 0x9e3779b97f4a7c15 >> 55 & mask
	for ; t.slots[h] != 0; h = (h + 1) & mask {
		if t.slotKeys[h] == k {
			level = int(t.slots[h]) - 1
			t.counts[level]++
			return level, true
		}
	}
	if t.n == maxLevels {
		return 0, false
	}
	level = t.n
	t.n++
	t.slots[h], t.slotKeys[h] = uint16(level+1), k
	t.keys[level], t.counts[level] = k, 1
	return level, true
}

// sort orders l's samples by (value, sample index), reading the column
// l.x holds in index order, and fills l with the ordered sample indices,
// values and targets y.
func (s *sorter) sort(l *list, y []float64) {
	n := len(l.x)
	keys, ids := s.keys[:n], s.ids[:n]
	t := &s.levels
	t.slots, t.n = [2 * maxLevels]uint16{}, 0
	few := true
	for i, v := range l.x {
		k := sortKey(v)
		keys[i] = k
		if few {
			level, ok := t.add(k)
			few = ok
			ids[i] = int32(level)
		}
	}
	if few {
		// A stable counting sort: the levels in key order give each
		// level's first position, and samples fill their level's
		// positions in index order.
		order := t.byKey[:t.n]
		for i := range order {
			j := i
			for ; j > 0 && t.keys[order[j-1]] > t.keys[i]; j-- {
				order[j] = order[j-1]
			}
			order[j] = uint16(i)
		}
		pos := 0
		for _, level := range order {
			c := t.counts[level]
			t.counts[level] = pos
			pos += c
		}
		for i, level := range ids {
			k := t.counts[level]
			t.counts[level]++
			l.idx[k], l.x[k], l.y[k] = int32(i), keyValue(t.keys[level]), y[i]
		}
		return
	}
	for i := range ids {
		ids[i] = int32(i)
	}
	keys, ids = radixSort(keys, s.keys[n:2*n], ids, s.ids[n:2*n])
	for k, i := range ids {
		l.idx[k], l.x[k], l.y[k] = i, keyValue(keys[k]), y[i]
	}
}

// radixSort orders keys with their ids by a stable LSD radix sort, one
// byte per pass, using keyBuf and idBuf as the other halves of the
// ping-pong, and returns the halves that hold the result.
func radixSort(keys, keyBuf []uint64, ids, idBuf []int32) ([]uint64, []int32) {
	var counts [8][256]int
	for _, k := range keys {
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	for b := range counts {
		c := &counts[b]
		shift := 8 * b
		if c[byte(keys[0]>>shift)] == len(keys) {
			continue // every key has this byte
		}
		pos := 0
		for digit, count := range c {
			c[digit] = pos
			pos += count
		}
		for j, k := range keys {
			at := &c[byte(k>>shift)]
			keyBuf[*at] = k
			idBuf[*at] = ids[j]
			*at++
		}
		keys, keyBuf, ids, idBuf = keyBuf, keys, idBuf, ids
	}
	return keys, ids
}

// meanSSE computes the mean and sum of squared errors of ys, summing in
// order.
func meanSSE(ys []float64) (mean, sse float64) {
	for _, v := range ys {
		mean += v
	}
	mean /= float64(len(ys))
	for _, v := range ys {
		d := v - mean
		sse += d * d
	}
	return mean, sse
}

// meanSSE computes the mean target and SSE of the segment [lo,hi) in
// ascending sample order.
func (p *presort) meanSSE(lo, hi int) (mean, sse float64) {
	return meanSSE(p.lists[len(p.lists)-1].y[lo:hi])
}

// gains adds up each feature's SSE reductions in preorder. A subtree
// grown beside its left sibling logs its reductions instead, and the
// log is replayed once both have grown, so every feature's total sums
// the same terms in the same order at any worker count.
type gains struct {
	imp []float64 // when non-nil, the totals to add to
	log []gain
}

type gain struct {
	feature int
	value   float64
}

func (g *gains) add(feature int, v float64) {
	if g.imp != nil {
		g.imp[feature] += v
	} else {
		g.log = append(g.log, gain{feature, v})
	}
}

// leaf reports whether a node of n samples with the given SSE at the
// given depth stays a leaf without a split search.
func (c *Config) leaf(n int, sse float64, depth int) bool {
	return depth >= c.MaxDepth || n < 2*c.MinLeaf || sse <= c.MinImprovement
}

func (p *presort) grow(lo, hi int, mean, sse float64, depth int, g *gains) *node {
	n := &node{feature: -1, value: mean, n: hi - lo}
	cfg := &p.cfg
	if cfg.leaf(hi-lo, sse, depth) {
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
	// Only a child that searches for a split reads the feature lists.
	if !cfg.leaf(mid-lo, ls, depth+1) || !cfg.leaf(hi-mid, rs, depth+1) {
		p.partitionFeatures(lo, mid, hi, feat)
	}
	if r := sse - (ls + rs); r > 0 {
		g.add(feat, r)
	}
	if cfg.Workers > 1 && mid-lo >= subtreeParallelMin && hi-mid >= subtreeParallelMin {
		// Sibling subtrees read shared state but write only their own
		// segments, marks, nodes and gains, so growing them
		// concurrently produces the same tree.
		var right gains
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.left = p.grow(lo, mid, lm, ls, depth+1, g)
		}()
		n.right = p.grow(mid, hi, rm, rs, depth+1, &right)
		wg.Wait()
		for _, r := range right.log {
			g.add(r.feature, r.value)
		}
	} else {
		n.left = p.grow(lo, mid, lm, ls, depth+1, g)
		n.right = p.grow(mid, hi, rm, rs, depth+1, g)
	}
	return n
}

// partition applies the split x[feat] < thr to the segment [lo,hi): it
// marks each sample's side from the split feature's list, partitions the
// index-order list, which the children's means and SSEs read, and
// returns mid: the left child owns [lo,mid), the right child [mid,hi).
func (p *presort) partition(lo, hi, feat int, thr float64) (mid int) {
	s, left := &p.lists[feat], p.left
	mid = lo
	for k, v := range s.x[lo:hi] {
		var m uint8
		if v < thr {
			m = 1
		}
		left[s.idx[lo+k]] = m
		mid += int(m)
	}
	p.split(&p.lists[len(p.lists)-1], lo, mid, hi)
	return mid
}

// partitionFeatures partitions the feature lists' segments [lo,hi) by
// partition's marks. It skips the split feature's list when its left
// side is a prefix already, as it is unless the list starts with a NaN,
// and any feature constant on the segment: it stays constant in every
// descendant, whose scans skip it.
func (p *presort) partitionFeatures(lo, mid, hi, feat int) {
	for f := range p.lists[:len(p.lists)-1] {
		l := &p.lists[f]
		if l.x[lo] == l.x[hi-1] || f == feat && (mid == lo || p.left[l.idx[lo]] == 1) {
			continue
		}
		p.split(l, lo, mid, hi)
	}
}

// split stably partitions l's segment [lo,hi) by the left marks into
// [lo,mid) and [mid,hi). Every entry is written in place and to the
// scratch, and only the side it belongs to advances, so the loop does
// not branch on the marks; the right side is then copied back.
func (p *presort) split(l *list, lo, mid, hi int) {
	left, sc := p.left, &p.scratch
	w, r := lo, lo
	for k := lo; k < hi; k++ {
		i, y := l.idx[k], l.y[k]
		m := int(left[i])
		l.idx[w], l.y[w] = i, y
		sc.idx[r], sc.y[r] = i, y
		if l.x != nil {
			x := l.x[k]
			l.x[w], sc.x[r] = x, x
		}
		w += m
		r += 1 - m
	}
	copy(l.idx[mid:hi], sc.idx[lo:r])
	copy(l.y[mid:hi], sc.y[lo:r])
	if l.x != nil {
		copy(l.x[mid:hi], sc.x[lo:r])
	}
}

// featureSplit is one feature's best candidate split.
type featureSplit struct {
	sse       float64
	threshold float64
	ok        bool
}

// scan finds feature f's lowest-SSE split of the segment [lo,hi) by one
// pass over its list. It only reads shared state, so the scans of one
// node can run concurrently and be merged in feature order with results
// identical to a single sequential pass.
func (p *presort) scan(f, lo, hi int) featureSplit {
	l := &p.lists[f]
	xs, ys := l.x[lo:hi], l.y[lo:hi]
	n, minLeaf := len(xs), p.cfg.MinLeaf
	best := featureSplit{sse: math.Inf(1)}
	if xs[0] == xs[n-1] {
		return best // constant: no split here or below
	}
	var tSum, tSq float64
	for _, yi := range ys {
		tSum += yi
		tSq += yi * yi
	}
	// The left side accumulates sum and sum of squares. Until it holds
	// MinLeaf samples no split is admissible; grow guarantees
	// n >= 2*MinLeaf.
	var lSum, lSq float64
	for _, yi := range ys[:minLeaf-1] {
		lSum += yi
		lSq += yi * yi
	}
	for k := minLeaf - 1; k < n-minLeaf; k++ {
		yi := ys[k]
		lSum += yi
		lSq += yi * yi
		v, next := xs[k], xs[k+1]
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
	d := len(p.lists) - 1
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

// Render draws the tree in the style of Fig. 13: each node shows its mean
// target value and population share; internal nodes show their split.
// featNames labels the split features; nil uses generic names.
func (t *Tree) Render(featNames []string) string {
	var b strings.Builder
	total := t.root.n
	// lead is the node's own line prefix, prefix its children's: the root
	// has neither, and each child draws its connector under its parent.
	var walk func(n *node, lead, prefix string)
	walk = func(n *node, lead, prefix string) {
		share := 100 * float64(n.n) / float64(total)
		if n.feature < 0 {
			fmt.Fprintf(&b, "%svalue=%.2f (%.0f%%)\n", lead, n.value, share)
			return
		}
		name := fmt.Sprintf("x%d", n.feature)
		if featNames != nil && n.feature < len(featNames) {
			name = featNames[n.feature]
		}
		fmt.Fprintf(&b, "%s%s < %.2f? value=%.2f (%.0f%%)\n", lead, name, n.threshold, n.value, share)
		walk(n.left, prefix+"├── ", prefix+"│   ")
		walk(n.right, prefix+"└── ", prefix+"    ")
	}
	walk(t.root, "", "")
	return b.String()
}
