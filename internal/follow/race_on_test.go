//go:build race

package follow

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop Puts at random, so pool-backed allocation gates cannot hold there.
const raceEnabled = true
