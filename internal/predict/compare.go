package predict

import (
	"fmt"
	"math/rand"

	"disksig/internal/regression"
	"disksig/internal/smart"
	"disksig/internal/tree"
)

// MethodResult is one row of the prediction-method comparison (the
// paper's future-work item "test more prediction methods").
type MethodResult struct {
	Method    string
	RMSE      float64
	ErrorRate float64
}

// buildSamples assembles the mixed failed/good degradation dataset and
// the 70/30 split exactly as TrainDegradation does.
func buildSamples(failed []*smart.Profile, goodPool []smart.Values, cfg DegradationConfig) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64, err error) {
	if len(failed) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("predict: no failed profiles")
	}
	if len(goodPool) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("predict: empty good-record pool")
	}
	if cfg.WindowD <= 0 {
		return nil, nil, nil, nil, fmt.Errorf("predict: WindowD must be positive, got %v", cfg.WindowD)
	}
	const w = int(smart.NumAttrs)
	failedN := 0
	for _, p := range failed {
		failedN += p.Len()
	}
	// Every sample row is a window of one backing array.
	total := failedN * (1 + cfg.GoodFactor)
	backing := make([]float64, total*w)
	ys := make([]float64, total)
	k := 0
	for _, p := range failed {
		n := p.Len()
		for i := range p.Records {
			t := float64(n - 1 - i)
			target := cfg.Form.Eval(t, cfg.WindowD)
			if t > cfg.WindowD {
				target = 0
			}
			copy(backing[k*w:], p.Records[i].Values[:])
			ys[k] = target
			k++
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for ; k < total; k++ {
		copy(backing[k*w:], goodPool[rng.Intn(len(goodPool))][:])
		ys[k] = 1
	}
	xs := make([][]float64, total)
	for i := range xs {
		xs[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	perm := rng.Perm(len(xs))
	split := int(cfg.TrainFrac * float64(len(xs)))
	if split < 1 || split >= len(xs) {
		return nil, nil, nil, nil, fmt.Errorf("predict: degenerate split %d of %d", split, len(xs))
	}
	trainX, trainY = make([][]float64, split), make([]float64, split)
	testX, testY = make([][]float64, len(xs)-split), make([]float64, len(xs)-split)
	for i, pi := range perm {
		if i < split {
			trainX[i], trainY[i] = xs[pi], ys[pi]
		} else {
			testX[i-split], testY[i-split] = xs[pi], ys[pi]
		}
	}
	return trainX, trainY, testX, testY, nil
}

// CompareMethods trains a regression tree, a random forest, and a ridge
// linear model on the same degradation dataset and reports each method's
// test RMSE and error rate.
func CompareMethods(failed []*smart.Profile, goodPool []smart.Values, cfg DegradationConfig) ([]MethodResult, error) {
	cfg = cfg.withDefaults()
	trainX, trainY, testX, testY, err := buildSamples(failed, goodPool, cfg)
	if err != nil {
		return nil, err
	}
	evaluate := func(pred []float64) (float64, float64) {
		rmse := regression.RMSE(pred, testY)
		return rmse, rmse / 2
	}
	var out []MethodResult

	tr, err := tree.Train(trainX, trainY, cfg.Tree)
	if err != nil {
		return nil, fmt.Errorf("predict: training tree: %w", err)
	}
	rmse, er := evaluate(tr.PredictAll(testX))
	out = append(out, MethodResult{Method: "regression tree", RMSE: rmse, ErrorRate: er})

	forest, err := tree.TrainForest(trainX, trainY, tree.ForestConfig{
		Trees:          20,
		Tree:           cfg.Tree,
		SampleFraction: 0.5,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("predict: training forest: %w", err)
	}
	rmse, er = evaluate(forest.PredictAll(testX))
	out = append(out, MethodResult{Method: "random forest", RMSE: rmse, ErrorRate: er})

	lin, err := TrainLinear(trainX, trainY, 1e-4)
	if err != nil {
		return nil, fmt.Errorf("predict: training linear model: %w", err)
	}
	rmse, er = evaluate(lin.PredictAll(testX))
	out = append(out, MethodResult{Method: "linear (ridge OLS)", RMSE: rmse, ErrorRate: er})

	return out, nil
}
