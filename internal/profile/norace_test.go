//go:build !race

package profile

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
