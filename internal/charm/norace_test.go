//go:build !race

package charm

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
