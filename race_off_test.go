//go:build !race

package duopacity_test

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
