//go:build race

package driver

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
