//go:build !race

package rules

// raceEnabled reports whether the race detector instruments this build;
// allocation regression bounds are meaningless under its inflation.
const raceEnabled = false
