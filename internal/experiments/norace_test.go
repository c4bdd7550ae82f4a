//go:build !race

package experiments

const raceDetector = false
