//go:build race

package main

// raceDetector reports that the tests run under the race detector.
const raceDetector = true
