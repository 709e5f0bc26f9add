package tree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Config{}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, Config{}); err == nil {
		t.Error("expected error for ragged features")
	}
}

func TestStepFunction(t *testing.T) {
	// y = 0 for x < 5, y = 10 for x >= 5: one split suffices.
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		v := float64(i) / 10
		x = append(x, []float64{v})
		if v < 5 {
			y = append(y, 0)
		} else {
			y = append(y, 10)
		}
	}
	tr, err := Train(x, y, Config{MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{1}); got != 0 {
		t.Errorf("Predict(1) = %v, want 0", got)
	}
	if got := tr.Predict([]float64{9}); got != 10 {
		t.Errorf("Predict(9) = %v, want 10", got)
	}
	if tr.Leaves() != 2 || tr.Depth() != 1 {
		t.Errorf("leaves=%d depth=%d, want 2/1", tr.Leaves(), tr.Depth())
	}
}

func TestConstantTargetIsStump(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	tr, err := Train(x, y, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 1 {
		t.Errorf("leaves = %d, want 1 (no split on constant target)", tr.Leaves())
	}
	if got := tr.Predict([]float64{10}); got != 7 {
		t.Errorf("Predict = %v", got)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 10
		x = append(x, []float64{v})
		y = append(y, math.Sin(v))
	}
	tr, err := Train(x, y, Config{MaxDepth: 3, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 3 {
		t.Errorf("depth = %d, want <= 3", tr.Depth())
	}
}

func TestMinLeafRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := rng.Float64()
		x = append(x, []float64{v})
		y = append(y, v)
	}
	tr, err := Train(x, y, Config{MinLeaf: 30, MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	counts := leafCounts(tr.root)
	for _, c := range counts {
		if c < 30 {
			t.Errorf("leaf with %d samples, want >= 30", c)
		}
	}
}

func leafCounts(n *node) []int {
	if n.feature < 0 {
		return []int{n.n}
	}
	return append(leafCounts(n.left), leafCounts(n.right)...)
}

func TestMultiFeatureSelectsInformative(t *testing.T) {
	// Feature 1 is pure noise; feature 0 determines y.
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a := rng.Float64()
		b := rng.Float64()
		x = append(x, []float64{a, b})
		if a < 0.5 {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	tr, err := Train(x, y, Config{MinLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance(x, y)
	if !(imp[0] > 0.9) {
		t.Errorf("importance = %v, want feature 0 dominant", imp)
	}
	if s := imp[0] + imp[1]; math.Abs(s-1) > 1e-9 {
		t.Errorf("importance sums to %v", s)
	}
}

func TestFeatureImportanceStump(t *testing.T) {
	tr, err := Train([][]float64{{1}, {2}}, []float64{3, 3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance([][]float64{{1}, {2}}, []float64{3, 3})
	if imp[0] != 0 {
		t.Errorf("stump importance = %v", imp)
	}
}

// Property: leaf predictions are the mean of training targets routed to
// the leaf, so training RMSE never exceeds the target standard deviation.
func TestTrainingErrorBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = x[i][0]*2 + rng.NormFloat64()*0.1
		}
		tr, err := Train(x, y, Config{MinLeaf: 2})
		if err != nil {
			return false
		}
		pred := tr.PredictAll(x)
		var mean float64
		for _, v := range y {
			mean += v
		}
		mean /= float64(n)
		var sseTree, sseMean float64
		for i := range y {
			sseTree += (pred[i] - y[i]) * (pred[i] - y[i])
			sseMean += (mean - y[i]) * (mean - y[i])
		}
		return sseTree <= sseMean+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPredictDimensionPanics(t *testing.T) {
	tr, _ := Train([][]float64{{1}, {2}}, []float64{1, 2}, Config{MinLeaf: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Predict([]float64{1, 2})
}

func TestRender(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		v := float64(i)
		x = append(x, []float64{v})
		if v < 25 {
			y = append(y, 0)
		} else {
			y = append(y, 1)
		}
	}
	tr, err := Train(x, y, Config{MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Render([]string{"POH"})
	if !strings.Contains(out, "POH <") {
		t.Errorf("render missing feature name:\n%s", out)
	}
	if !strings.Contains(out, "(100%)") {
		t.Errorf("render missing root share:\n%s", out)
	}
	// Generic names when nil.
	out2 := tr.Render(nil)
	if !strings.Contains(out2, "x0 <") {
		t.Errorf("render missing generic name:\n%s", out2)
	}
}

func TestDeepFitImprovesOverStump(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 1000; i++ {
		v := rng.Float64() * 2 * math.Pi
		x = append(x, []float64{v})
		y = append(y, math.Sin(v))
	}
	shallow, _ := Train(x, y, Config{MaxDepth: 1, MinLeaf: 2})
	deep, _ := Train(x, y, Config{MaxDepth: 8, MinLeaf: 2})
	rmse := func(tr *Tree) float64 {
		var s float64
		for i := range x {
			d := tr.Predict(x[i]) - y[i]
			s += d * d
		}
		return math.Sqrt(s / float64(len(x)))
	}
	if !(rmse(deep) < rmse(shallow)/2) {
		t.Errorf("deep RMSE %v should be well below shallow %v", rmse(deep), rmse(shallow))
	}
}

func TestTrainWorkerEquivalence(t *testing.T) {
	// Large enough to cross both the parallel split-scan and the
	// concurrent-subtree thresholds.
	rng := rand.New(rand.NewSource(9))
	n, d := 6000, 4
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = 3*row[0] - 2*row[2] + rng.NormFloat64()*0.1
	}
	base, err := Train(x, y, Config{MaxDepth: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		tr, err := Train(x, y, Config{MaxDepth: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Depth() != base.Depth() || tr.Leaves() != base.Leaves() {
			t.Fatalf("workers=%d: shape %d/%d, want %d/%d",
				workers, tr.Depth(), tr.Leaves(), base.Depth(), base.Leaves())
		}
		for i := range x {
			if tr.Predict(x[i]) != base.Predict(x[i]) {
				t.Fatalf("workers=%d: prediction differs at sample %d", workers, i)
			}
		}
	}
}

// referenceTrain is CART induction by a per-node sort: every node
// re-sorts its samples for every feature under the canonical (value,
// sample index) order. Train's presorted induction must reproduce it
// byte for byte.
func referenceTrain(x [][]float64, y []float64, cfg Config) *Tree {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	mean, sse := meanSSE(idx, y)
	cfg = cfg.withDefaults(sse)
	return &Tree{features: len(x[0]), root: referenceGrow(x, y, idx, mean, sse, 0, cfg)}
}

func referenceGrow(x [][]float64, y []float64, idx []int, mean, sse float64, depth int, cfg Config) *node {
	n := &node{feature: -1, value: mean, n: len(idx)}
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf || sse <= cfg.MinImprovement {
		return n
	}
	feat, thr, gain, ok := referenceBestSplit(x, y, idx, sse, cfg.MinLeaf)
	if !ok || gain < cfg.MinImprovement {
		return n
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if x[i][feat] < thr {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	n.feature = feat
	n.threshold = thr
	lm, ls := meanSSE(leftIdx, y)
	rm, rs := meanSSE(rightIdx, y)
	n.left = referenceGrow(x, y, leftIdx, lm, ls, depth+1, cfg)
	n.right = referenceGrow(x, y, rightIdx, rm, rs, depth+1, cfg)
	return n
}

func referenceBestSplit(x [][]float64, y []float64, idx []int, parentSSE float64, minLeaf int) (feature int, threshold, gain float64, ok bool) {
	order := make([]int, len(idx))
	bestSSE := math.Inf(1)
	for f := range x[idx[0]] {
		s := referenceScan(x, y, idx, f, minLeaf, order)
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

func referenceScan(x [][]float64, y []float64, idx []int, f, minLeaf int, order []int) featureSplit {
	n := len(idx)
	copy(order, idx)
	sort.Slice(order, func(a, b int) bool {
		va, vb := x[order[a]][f], x[order[b]][f]
		return va < vb || (!(vb < va) && order[a] < order[b])
	})
	var lSum, lSq float64
	var tSum, tSq float64
	for _, i := range order {
		tSum += y[i]
		tSq += y[i] * y[i]
	}
	best := featureSplit{sse: math.Inf(1)}
	for k := 0; k < n-1; k++ {
		yi := y[order[k]]
		lSum += yi
		lSq += yi * yi
		if x[order[k]][f] == x[order[k+1]][f] {
			continue
		}
		nl, nr := k+1, n-k-1
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rSum := tSum - lSum
		rSq := tSq - lSq
		sse := (lSq - lSum*lSum/float64(nl)) + (rSq - rSum*rSum/float64(nr))
		if sse < best.sse {
			best = featureSplit{sse: sse, threshold: (x[order[k]][f] + x[order[k+1]][f]) / 2, ok: true}
		}
	}
	return best
}

// tiedData draws n observations of d features, each feature taking one
// of a few levels (−0 and +0 among them), with about one row in eight
// duplicating an earlier one. flags adds more ties: constFeature holds
// feature 0 constant, mirror makes the last feature the negation of
// feature 0 (equal splits that only summation order separates, like
// RSC and R-RSC), and quantize rounds the targets to quarters.
func tiedData(rng *rand.Rand, n, d, levels int, constFeature, mirror, quantize bool) ([][]float64, []float64) {
	negZero := math.Copysign(0, -1)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		if i > 0 && rng.Intn(8) == 0 {
			j := rng.Intn(i)
			x[i], y[i] = x[j], y[j]
			continue
		}
		row := make([]float64, d)
		for f := range row {
			switch l := rng.Intn(levels); l {
			case 0:
				row[f] = negZero
			case 1:
				row[f] = 0
			default:
				row[f] = float64(l-levels/2) / 4
			}
		}
		if constFeature {
			row[0] = 0.5
		}
		if mirror && d > 1 {
			row[d-1] = -row[0]
		}
		x[i] = row
		y[i] = row[len(row)/2] - row[0]/2 + 0.3*rng.NormFloat64()
		if quantize {
			y[i] = math.Round(4*y[i]) / 4
		}
	}
	return x, y
}

func gobBytes(t *testing.T, tr *Tree) []byte {
	t.Helper()
	b, err := tr.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPresortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(name string, x [][]float64, y []float64, cfg Config) *Tree {
		t.Helper()
		want := gobBytes(t, referenceTrain(x, y, cfg))
		var got *Tree
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			tr, err := Train(x, y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gobBytes(t, tr), want) {
				t.Fatalf("%s, workers=%d: presorted tree differs from the reference\npresorted:\n%sreference:\n%s",
					name, workers, tr.Render(nil), referenceTrain(x, y, cfg).Render(nil))
			}
			got = tr
		}
		return got
	}

	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(300)
		d := 1 + rng.Intn(5)
		x, y := tiedData(rng, n, d, 2+rng.Intn(5), trial%5 == 0, trial%2 == 0, trial%3 == 0)
		cfg := Config{MaxDepth: 1 + rng.Intn(10), MinLeaf: 1 + rng.Intn(8)}
		check(fmt.Sprintf("trial %d (n=%d d=%d %+v)", trial, n, d, cfg), x, y, cfg)
	}

	// Both children of the root exceed subtreeParallelMin, so at
	// Workers 4 the subtrees grow concurrently and their scans fan out.
	x, y := tiedData(rng, 6*subtreeParallelMin, 4, 40, false, true, false)
	for i, row := range x {
		if row[1] < 0 {
			y[i] += 3
		}
	}
	tr := check("large", x, y, Config{MaxDepth: 8, MinLeaf: 3})
	if tr.root.feature < 0 || tr.root.left.n < subtreeParallelMin || tr.root.right.n < subtreeParallelMin {
		t.Fatalf("large case does not split into two subtrees of >= %d samples: root %d, children %d/%d",
			subtreeParallelMin, tr.root.n, tr.root.left.n, tr.root.right.n)
	}

	// Forest members train on bootstrap resamples (duplicated rows) of
	// bagged feature subsets.
	x, y = tiedData(rng, 400, 5, 6, false, true, false)
	cfg := ForestConfig{Trees: 8, FeatureFraction: 0.6, Seed: 4, Workers: 4, Tree: Config{MinLeaf: 2, Workers: 4}}
	f, err := TrainForest(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	samples, featureSets := cfg.draw(len(x), len(x[0]))
	duplicated := false
	for m, tr := range f.trees {
		seen := make(map[int]bool)
		for _, j := range samples[m] {
			duplicated = duplicated || seen[j]
			seen[j] = true
		}
		bx, by := bootstrap(x, y, samples[m], featureSets[m])
		if !bytes.Equal(gobBytes(t, tr), gobBytes(t, referenceTrain(bx, by, cfg.Tree))) {
			t.Fatalf("member %d differs from the reference tree on its bootstrap sample", m)
		}
	}
	if !duplicated || featureSets[0] == nil {
		t.Fatal("forest case lacks bootstrap duplicates or feature bagging")
	}
}

func countNodes(n *node) int {
	if n.feature < 0 {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// trainAllocsConst bounds Train's allocations beyond one per tree node:
// the working set and the Tree itself, independent of n.
const trainAllocsConst = 16

func TestTrainAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{500, 20000} {
		x, y := tiedData(rng, n, 6, 50, false, false, false)
		cfg := Config{MaxDepth: 10, MinLeaf: 5, Workers: 1}
		var tr *Tree
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if tr, err = Train(x, y, cfg); err != nil {
				t.Fatal(err)
			}
		})
		nodes := countNodes(tr.root)
		t.Logf("n=%d: %.0f allocations for %d nodes", n, allocs, nodes)
		if allocs > float64(nodes+trainAllocsConst) {
			t.Errorf("n=%d: Train made %.0f allocations for %d nodes, want at most nodes+%d",
				n, allocs, nodes, trainAllocsConst)
		}
	}
}

// BenchmarkTrain fits a degradation-sized tree: 120k samples of 12
// features on a few hundred levels each, at TrainDegradation's MaxDepth
// and MinLeaf.
func BenchmarkTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, d, levels = 120_000, 12, 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for f := range row {
			row[f] = float64(rng.Intn(levels))/(levels/2) - 1
		}
		x[i] = row
		y[i] = math.Tanh(3*row[0]-2*row[1]*row[2]) + 0.1*rng.NormFloat64()
	}
	cfg := Config{MaxDepth: 10, MinLeaf: 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
