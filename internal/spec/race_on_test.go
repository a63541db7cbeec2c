//go:build race

package spec_test

// raceEnabled reports a -race build, which runs the spec's heaviest
// rendering loops an order of magnitude slower.
const raceEnabled = true
