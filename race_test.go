//go:build race

package chex86

// raceDetector reports a -race build: the Results screen then takes over
// a minute, so TestResultsPinned leaves it to its own non-race run.
const raceDetector = true
