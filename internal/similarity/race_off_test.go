//go:build !race

package similarity

// raceEnabled reports whether the race detector instruments this build;
// allocation counts are meaningless under its inflation.
const raceEnabled = false
