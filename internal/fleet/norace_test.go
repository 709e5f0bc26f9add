//go:build !race

package fleet

// raceEnabled reports whether the race detector instruments this build;
// allocation-count and heap-footprint assertions are skipped when it
// does.
const raceEnabled = false
