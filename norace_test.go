//go:build !race

package chex86

const raceDetector = false
