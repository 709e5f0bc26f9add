// Package predict implements Sec. V-B of the paper — regression-tree
// prediction of disk degradation with signature-derived targets — and the
// baseline failure detectors of Sec. II-C (vendor threshold test,
// Wilcoxon rank-sum test, Mahalanobis anomaly detection) evaluated by
// failure detection rate (FDR) and false alarm rate (FAR).
package predict

import (
	"fmt"

	"disksig/internal/regression"
	"disksig/internal/smart"
	"disksig/internal/tree"
)

// DegradationConfig parameterizes TrainDegradation.
type DegradationConfig struct {
	// Form is the failure group's degradation signature (Eqs. 3/4/6).
	Form regression.SignatureForm
	// WindowD is the fixed window size used to compute sample targets;
	// the paper sets 12 / 380 / 24 for Groups 1-3.
	WindowD float64
	// GoodFactor mixes GoodFactor times as many good samples as failed
	// samples into the dataset (paper: 10). <= 0 means 10.
	GoodFactor int
	// TrainFrac is the training split fraction (paper: 0.7). <= 0 means
	// 0.7.
	TrainFrac float64
	// Seed drives sampling and the split.
	Seed int64
	// Tree configures the regression tree.
	Tree tree.Config
}

func (c DegradationConfig) withDefaults() DegradationConfig {
	if c.GoodFactor <= 0 {
		c.GoodFactor = 10
	}
	if c.TrainFrac <= 0 {
		c.TrainFrac = 0.7
	}
	if c.Tree.MaxDepth == 0 {
		c.Tree.MaxDepth = 10
	}
	if c.Tree.MinLeaf == 0 {
		c.Tree.MinLeaf = 20
	}
	return c
}

// DegradationResult reports a trained degradation predictor and its test
// performance (one row of Table III).
type DegradationResult struct {
	// Tree is the trained regression tree over the 12 normalized
	// attributes.
	Tree *tree.Tree
	// RMSE is the root-mean-square prediction error on the test split.
	RMSE float64
	// ErrorRate is RMSE divided by the target range (the paper's
	// "error rate"; targets span [-1, 1], range 2).
	ErrorRate float64
	// TrainSamples and TestSamples are the split sizes.
	TrainSamples int
	TestSamples  int
	// Importance is the per-attribute SSE-reduction share on the training
	// set, identifying the critical attributes of each group's model.
	Importance []float64
}

// TrainDegradation trains and evaluates a degradation predictor for one
// failure group.
//
// failed must hold the group's normalized failed profiles; every record of
// each profile becomes a sample whose target is the group signature
// evaluated at the record's hours-before-failure. Records older than
// WindowD have not entered the degradation window and take the
// window-edge target 0. goodPool provides normalized good-drive records;
// targets of good samples are 1.
func TrainDegradation(failed []*smart.Profile, goodPool []smart.Values, cfg DegradationConfig) (*DegradationResult, error) {
	cfg = cfg.withDefaults()
	trainX, trainY, testX, testY, err := buildSamples(failed, goodPool, cfg)
	if err != nil {
		return nil, err
	}
	tr, imp, err := tree.TrainWithImportance(trainX, trainY, cfg.Tree)
	if err != nil {
		return nil, fmt.Errorf("predict: training tree: %w", err)
	}
	pred := tr.PredictAll(testX)
	rmse := regression.RMSE(pred, testY)
	return &DegradationResult{
		Tree:         tr,
		RMSE:         rmse,
		ErrorRate:    rmse / 2, // targets span [-1, 1]
		TrainSamples: len(trainX),
		TestSamples:  len(testX),
		Importance:   imp,
	}, nil
}

// AttrNames returns the 12 attribute symbols in Table I order, the feature
// labels of the degradation trees.
func AttrNames() []string {
	names := make([]string, smart.NumAttrs)
	for i, a := range smart.All() {
		names[i] = a.String()
	}
	return names
}

// PaperWindowD returns the fixed window size the paper uses for the
// group's prediction targets (12 / 380 / 24 for Groups 1-3).
func PaperWindowD(group int) float64 {
	switch group {
	case 1:
		return 12
	case 2:
		return 380
	case 3:
		return 24
	default:
		panic(fmt.Sprintf("predict: invalid group %d", group))
	}
}

// PaperForm returns the group's signature form (Eqs. 3/4/6).
func PaperForm(group int) regression.SignatureForm {
	switch group {
	case 1:
		return regression.FormQuadratic
	case 2:
		return regression.FormLinear
	case 3:
		return regression.FormCubic
	default:
		panic(fmt.Sprintf("predict: invalid group %d", group))
	}
}
