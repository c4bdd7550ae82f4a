//go:build !race

package kernels

const raceDetector = false
