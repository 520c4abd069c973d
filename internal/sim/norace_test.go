//go:build !race

package sim

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
