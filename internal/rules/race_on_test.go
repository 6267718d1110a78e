//go:build race

package rules

const raceEnabled = true
