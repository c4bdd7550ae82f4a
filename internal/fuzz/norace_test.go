//go:build !race

package fuzz

const raceDetector = false
