//go:build !race

package tflex

const raceDetector = false
