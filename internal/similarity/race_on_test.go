//go:build race

package similarity

const raceEnabled = true
