//go:build race

package budget

const raceDetector = true
