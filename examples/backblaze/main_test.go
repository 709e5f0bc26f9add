//go:build amd64

package main

// The output below is the exported dump's size and the categorization
// of the reloaded fleet, which comes from K-means clustering. It is
// pinned on amd64 only: arm64 may fuse a multiply and an add, which can
// move a cluster assignment.
func Example() {
	main()
	// Output:
	// exported 312 drives to Backblaze-style CSV (8.5 MB)
	// ingested: 72 failed / 240 good drives, 48948 records
	//
	// categorization on ingested data: k = 3
	//   group 1 (logical): 43 drives, signature s(t) = (t/d)^2 - 1
	//   group 2 (bad-sector): 5 drives, signature s(t) = t/d - 1
	//   group 3 (read/write-head): 24 drives, signature s(t) = (t/d)^3 - 1
	//
	// note: real Backblaze dumps are day-granularity; window sizes then count days, not hours
}
