package tree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// ForestConfig controls random-forest induction.
type ForestConfig struct {
	// Trees is the ensemble size; 0 means 30.
	Trees int
	// Tree configures each member tree.
	Tree Config
	// FeatureFraction is the fraction of features considered per split
	// tree (implemented as per-tree feature bagging); 0 means 1/sqrt of
	// one, i.e. all features. Values in (0, 1] subsample.
	FeatureFraction float64
	// SampleFraction is the bootstrap sample size as a fraction of the
	// training set; 0 means 1.0 (classic bootstrap with replacement).
	SampleFraction float64
	// Seed drives bootstrap sampling.
	Seed int64
	// Workers bounds training parallelism; 0 means GOMAXPROCS.
	Workers int
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 30
	}
	if c.FeatureFraction <= 0 || c.FeatureFraction > 1 {
		c.FeatureFraction = 1
	}
	if c.SampleFraction <= 0 || c.SampleFraction > 1 {
		c.SampleFraction = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Tree.Workers == 0 {
		// Trees already train concurrently; keep each induction
		// sequential unless the caller explicitly asks otherwise.
		c.Tree.Workers = 1
	}
	return c
}

// Forest is a bagged ensemble of regression trees (random forest), one of
// the additional prediction methods the paper lists as future work.
type Forest struct {
	trees    []*Tree
	features int
	// featureSets[i] holds the feature indices tree i was trained on
	// (per-tree feature bagging); nil means all features.
	featureSets [][]int
}

// TrainForest fits a random forest to the row observations x with targets
// y. Each tree trains on a bootstrap resample; when FeatureFraction < 1,
// each tree additionally sees a random feature subset.
func TrainForest(x [][]float64, y []float64, cfg ForestConfig) (*Forest, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("tree: no training samples")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("tree: %d observations but %d targets", len(x), len(y))
	}
	cfg = cfg.withDefaults()
	d := len(x[0])
	samples, featureSets := cfg.draw(len(x), d)
	f := &Forest{
		trees:       make([]*Tree, cfg.Trees),
		features:    d,
		featureSets: featureSets,
	}

	var wg sync.WaitGroup
	errs := make([]error, cfg.Trees)
	sem := make(chan struct{}, cfg.Workers)
	for t := 0; t < cfg.Trees; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			bx, by := bootstrap(x, y, samples[t], featureSets[t])
			tr, err := Train(bx, by, cfg.Tree)
			if err != nil {
				errs[t] = err
				return
			}
			f.trees[t] = tr
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// draw pre-draws every member tree's bootstrap resample of n samples
// and, when FeatureFraction < 1, its subset of the d features. All
// randomness is drawn here, in sequence, so training is deterministic
// regardless of scheduling. cfg must have its defaults applied.
func (cfg ForestConfig) draw(n, d int) (samples, featureSets [][]int) {
	nFeat := int(cfg.FeatureFraction * float64(d))
	if nFeat < 1 {
		nFeat = 1
	}
	sampleN := int(cfg.SampleFraction * float64(n))
	if sampleN < 1 {
		sampleN = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	samples = make([][]int, cfg.Trees)
	featureSets = make([][]int, cfg.Trees)
	for t := range samples {
		idx := make([]int, sampleN)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		samples[t] = idx
		if nFeat < d {
			featureSets[t] = rng.Perm(d)[:nFeat]
		}
	}
	return samples, featureSets
}

// bootstrap builds one member tree's training set: the rows idx of x,
// restricted to the features feats (nil keeps every feature).
func bootstrap(x [][]float64, y []float64, idx, feats []int) ([][]float64, []float64) {
	bx := make([][]float64, len(idx))
	by := make([]float64, len(idx))
	for i, j := range idx {
		if feats == nil {
			bx[i] = x[j]
		} else {
			row := make([]float64, len(feats))
			for k, fi := range feats {
				row[k] = x[j][fi]
			}
			bx[i] = row
		}
		by[i] = y[j]
	}
	return bx, by
}

// Predict returns the ensemble mean prediction for one observation.
func (f *Forest) Predict(x []float64) float64 {
	if len(x) != f.features {
		panic(fmt.Sprintf("tree: observation has %d features, forest was trained on %d", len(x), f.features))
	}
	var sum float64
	scratch := make([]float64, 0, f.features)
	for t, tr := range f.trees {
		feats := f.featureSets[t]
		if feats == nil {
			sum += tr.Predict(x)
			continue
		}
		scratch = scratch[:0]
		for _, fi := range feats {
			scratch = append(scratch, x[fi])
		}
		sum += tr.Predict(scratch)
	}
	return sum / float64(len(f.trees))
}

// PredictAll predicts every observation.
func (f *Forest) PredictAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = f.Predict(row)
	}
	return out
}

// Size returns the number of trees in the ensemble.
func (f *Forest) Size() int { return len(f.trees) }
