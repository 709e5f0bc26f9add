//go:build amd64

package main

// The output below is the fleet's failure categories with their
// signatures and prediction errors, and one drive's signature, all from
// clustering and trained trees. It is pinned on amd64 only: arm64 may
// fuse a multiply and an add, which can move a rounded value.
func Example() {
	main()
	// Output:
	// fleet: 72 failed drives, 240 good drives (23.1% failure rate)
	//
	// the elbow criterion selected k = 3 failure categories:
	//
	// Group 1 — logical failures
	//   population:            59.7% of failed drives
	//   degradation signature: s(t) = (t/d)^2 - 1
	//   degradation windows:   2..12 hours (median 8)
	//   prediction error rate: 5.0% (RMSE 0.100)
	//
	// Group 2 — bad-sector failures
	//   population:            6.9% of failed drives
	//   degradation signature: s(t) = t/d - 1
	//   degradation windows:   142..423 hours (median 407)
	//   prediction error rate: 1.9% (RMSE 0.038)
	//
	// Group 3 — read/write-head failures
	//   population:            33.3% of failed drives
	//   degradation signature: s(t) = (t/d)^3 - 1
	//   degradation windows:   10..24 hours (median 16)
	//   prediction error rate: 3.1% (RMSE 0.062)
	//
	// drive #0: window d = 12 hours, signature s(t) = (t/d)^2 - 1 (RMSE 0.051)
}
