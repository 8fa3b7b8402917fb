//go:build !race

package server

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
