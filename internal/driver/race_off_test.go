//go:build !race

package driver

const raceDetector = false
