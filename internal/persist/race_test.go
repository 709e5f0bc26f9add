//go:build race

package persist

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped when it does.
const raceEnabled = true
