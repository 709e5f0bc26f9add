//go:build amd64

package main

// The output below is the monitor's alert stream for a held-out failing
// drive, which prints the caller's drive IDs and degradations rounded
// from trained trees. It is pinned on amd64 only: arm64 may fuse a
// multiply and an add in training, which can move a rounded value or the
// hour an alert fires.
func Example() {
	main()
	// Output:
	// streaming drive #0 (480 hourly records, fails at the last one)
	//
	// drive 0 [hour 0] watch: logical failure signature, degradation +0.10, not in degradation window
	// drive 0 [hour 21] watch: logical failure signature, degradation +0.10, not in degradation window
	// drive 0 [hour 25] watch: logical failure signature, degradation +0.10, not in degradation window
	// drive 0 [hour 29] watch: logical failure signature, degradation +0.00, not in degradation window
	// drive 0 [hour 50] watch: logical failure signature, degradation +0.10, not in degradation window
	// drive 0 [hour 68] watch: logical failure signature, degradation +0.01, not in degradation window
	// drive 0 [hour 115] watch: logical failure signature, degradation +0.01, not in degradation window
	// drive 0 [hour 132] watch: logical failure signature, degradation +0.10, not in degradation window
	// drive 0 [hour 143] watch: logical failure signature, degradation +0.10, not in degradation window
	// drive 0 [hour 221] watch: logical failure signature, degradation +0.10, not in degradation window
	// drive 0 [hour 273] warning: logical failure signature, degradation -0.00, ~8h to failure
	// drive 0 [hour 279] warning: logical failure signature, degradation -0.00, ~8h to failure
	// drive 0 [hour 302] warning: logical failure signature, degradation -0.00, ~8h to failure
	// drive 0 [hour 339] watch: logical failure signature, degradation +0.01, not in degradation window
	// drive 0 [hour 353] warning: logical failure signature, degradation -0.00, ~8h to failure
	// drive 0 [hour 387] warning: logical failure signature, degradation -0.00, ~8h to failure
	// drive 0 [hour 397] warning: logical failure signature, degradation -0.00, ~8h to failure
	// drive 0 [hour 402] warning: logical failure signature, degradation -0.00, ~8h to failure
	// drive 0 [hour 473] warning: bad-sector failure signature, degradation -0.46, ~219h to failure
	// drive 0 [hour 476] critical: logical failure signature, degradation -0.65, ~5h to failure
	//
	// final state: severity=critical degradation=-0.65 (actual failure occurred at hour 479)
	// healthy drive #72 streamed 96 records without a warning
}
