//go:build amd64

package main

import (
	"bytes"
	"fmt"
	"strings"
)

// The output below is the elbow curve, the PCA projection, the decile
// tables and the SVC cross-check, all from floating-point clustering
// and statistics. The charts and tables pad their lines, which an Output
// comment cannot hold, so the example prints the report with trailing
// blanks trimmed. It is pinned on amd64 only: arm64 may fuse a multiply
// and an add, which can move a rounded value or a plotted point.
func Example() {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		fmt.Println(err)
		return
	}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	// Output:
	// Average within-group distance by cluster count
	// k=1  |################################################ 1.743
	// k=2  |################ 0.5933
	// k=3  |######### 0.351
	// k=4  |######## 0.3253
	// k=5  |######## 0.2971
	// k=6  |####### 0.2691
	// k=7  |###### 0.2507
	// k=8  |###### 0.2331
	// k=9  |##### 0.2152
	// k=10 |##### 0.2038
	//
	// elbow criterion picks k = 3
	//
	// Group 1:  43 drives — logical failures
	// Group 2:   5 drives — bad-sector failures
	// Group 3:  24 drives — read/write-head failures
	//
	// Failure records in PCA space
	// |                                                                ^^^^
	// |x x xxxxxxx                                                        ^^
	// |     x x xxx x
	// |
	// |
	// |
	// |
	// |
	// |
	// |
	// |
	// |
	// |
	// |                                                                       o
	// |                                                         o
	// |                                                          o
	// |                                                       o
	// |                                                                     o
	// +------------------------------------------------------------------------
	//  x: -2.712 .. 1.431   y: -3.089 .. 0.4252
	//  o = bad-sector (5)
	//  ^ = logical (43)
	//  x = read/write-head (24)
	//
	// PC1 explains 77.9% of variance, PC2 17.6%
	//
	// RUE deciles (failure groups vs good)
	// Decile  G1      G2       G3      good
	// ------  ------  -------  ------  ----
	// 10%     0.9556  -0.8844  0.9556  1
	// 20%     0.9556  -0.7689  0.9556  1
	// 30%     0.9556  -0.6267  0.9778  1
	// 40%     0.9778  -0.4578  0.9778  1
	// 50%     0.9778  -0.2889  0.9778  1
	// 60%     0.9778  -0.2622  0.9778  1
	// 70%     0.9778  -0.2356  1       1
	// 80%     1       -0.1911  1       1
	// 90%     1       -0.1289  1       1
	//
	// R-RSC deciles (failure groups vs good)
	// Decile  G1       G2        G3      good
	// ------  -------  --------  ------  -------
	// 10%     -0.9884  -0.7795   0.9432  -0.9996
	// 20%     -0.9872  -0.775    0.9476  -0.9987
	// 30%     -0.9855  -0.6767   0.9545  -0.9982
	// 40%     -0.9842  -0.4844   0.9573  -0.9973
	// 50%     -0.9827  -0.2922   0.968   -0.9969
	// 60%     -0.9822  -0.2107   0.9723  -0.996
	// 70%     -0.9805  -0.1293   0.9741  -0.9956
	// 80%     -0.9785  -0.05321  0.9826  -0.9951
	// 90%     -0.9766  0.01744   0.9905  -0.9942
	//
	// SVC finds 3 clusters; agreement with K-means (Rand index): 1.0000
}
